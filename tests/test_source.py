"""Guard: the package carries no dead imports, no private helper that only tests reach, and no export
that nothing reads, and every package name the benchmark reads still resolves.

The scan reads ``src/renyi_ent/*.py`` and ``perfbench/*.py`` with ``ast``. ``__init__.py`` is the
package's export list, so its imports are used by being there; an export counts as read when a
top-level statement of another module, or of its own module other than its definition, names it,
or when the ``__init__`` docstring lists it as public.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "renyi_ent"
PERFBENCH = ROOT / "perfbench"


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


def _exports(init: ast.Module) -> set[str]:
    """Each name ``__init__`` re-exports."""
    return {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}


def _public_list(init: ast.Module) -> set[str]:
    """The names ``__init__``'s docstring keeps public though nothing in the package reads them."""
    return set(re.findall(r"``(\w+)``", ast.get_docstring(init)))


def test_every_export_is_read_or_on_the_public_list():
    trees = _trees()
    init = trees.pop("__init__.py")
    exports, public = _exports(init), _public_list(init)
    reads = [(node, _names(node)) for tree in trees.values() for node in tree.body]
    unread = sorted(
        name for name in exports
        if name not in public and not any(name in names and getattr(node, "name", None) != name for node, names in reads)
    )
    assert not unread, "exports no other code in the package reads, missing from the __init__ docstring's list: " + ", ".join(unread)
    assert public <= exports, "listed as public but not exported: " + ", ".join(sorted(public - exports))


def _package_reads(tree: ast.Module) -> set[str]:
    """Dotted paths under ``renyi_ent`` a module reads: ``renyi_ent.a.b`` chains and ``from renyi_ent import a``."""
    paths = {f"{node.module}.{a.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "renyi_ent" for a in node.names}
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "renyi_ent":
            paths.add(".".join(["renyi_ent", *reversed(parts)]))
    return paths


def _resolves(path: str) -> bool:
    """Whether ``path`` names an attribute or, as ``from renyi_ent import cli`` may, a submodule."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ModuleNotFoundError:
                return False
        obj = getattr(obj, part)
    return True


def test_every_package_name_the_benchmark_reads_resolves():
    reads = {path for file in sorted(PERFBENCH.glob("*.py")) for path in _package_reads(ast.parse(file.read_text(encoding="utf-8")))}
    assert {"renyi_ent.tensor_product", "renyi_ent.minimize_mc", "renyi_ent.cli"} <= reads  # the scan sees the workloads
    missing = sorted(path for path in reads if not _resolves(path))
    assert not missing, "the benchmark reads names the package no longer has: " + ", ".join(missing)
