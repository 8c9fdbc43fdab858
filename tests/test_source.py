"""Guard: the package carries no dead imports and no private helper that only tests reach.

The scan reads ``src/renyi_ent/*.py`` with ``ast``. ``__init__.py`` is the
package's export list, so its imports are used by being there.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "renyi_ent"


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def _names(node: ast.AST) -> set[str]:
    """Every name read or attribute taken under ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_every_import_is_used():
    unused = []
    for name, tree in _trees().items():
        if name == "__init__.py":
            continue
        used = _names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import | ast.ImportFrom) and getattr(node, "module", None) != "__future__":
                bound = [(a.asname or a.name).split(".")[0] for a in node.names]
                unused += [f"{name}:{node.lineno}: {b}" for b in bound if b not in used]
    assert not unused, "imports never used:\n" + "\n".join(unused)


def test_every_private_function_has_a_caller_in_src():
    trees = _trees()
    reads = [(node, _names(node)) for tree in trees.values() for node in tree.body]  # per top-level statement
    orphans = [
        f"{name}:{node.lineno}: {node.name}"
        for name, tree in trees.items() for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
        and not any(node.name in names for other, names in reads if other is not node)
    ]
    assert not orphans, "private functions no module of the package refers to:\n" + "\n".join(orphans)
