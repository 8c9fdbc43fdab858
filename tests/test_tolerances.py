"""Guard: every tolerance of the package lives in the one table at the top of ``linalg.py``.

The scan reads the code of ``src/renyi_ent/*.py`` with ``ast``, so docstrings
and comments, which are not code, may still quote a value.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "renyi_ent"
TOLERANCE_NAME = re.compile(r"_?[A-Z0-9_]*(TOL|RTOL|ATOL|CUT|REL)")
MAX_TABLE_ROWS = 11


def _module_assignments(tree: ast.Module):
    """(names, node) of each module-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            yield [t.id for t in node.targets if isinstance(t, ast.Name)], node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield [node.target.id], node


def _small_floats(node: ast.AST) -> list[ast.Constant]:
    """The float literals in (0, 1e-3) under ``node``."""
    return [
        n for n in ast.walk(node) if isinstance(n, ast.Constant) and type(n.value) is float and 0.0 < n.value < 1e-3
    ]


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_small_float_literal_outside_the_table():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        table = [n for _, node in _module_assignments(tree) for n in _small_floats(node)]
        table = table if path.name == "linalg.py" else []
        hits += [f"{path.name}:{n.lineno}: {n.value!r}" for n in _small_floats(tree) if n not in table]
    assert not hits, "tolerance literals outside linalg's table:\n" + "\n".join(hits)


def test_no_tolerance_name_outside_linalg():
    defined = [
        f"{path.name}: {name}" for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"
        for names, _ in _module_assignments(_tree(path)) for name in names if TOLERANCE_NAME.fullmatch(name)
    ]
    assert not defined, "tolerances defined outside linalg's table:\n" + "\n".join(defined)


def _table_rows(tree: ast.Module) -> list:
    """(names, node) of each row of the table, given linalg's tree."""
    return [
        (names, node) for names, node in _module_assignments(tree)
        if any(TOLERANCE_NAME.fullmatch(n) for n in names) or _small_floats(node)
    ]


def test_table_rows_state_scale_and_reason():
    path = SRC / "linalg.py"
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = _table_rows(_tree(path))
    assert 0 < len(rows) <= MAX_TABLE_ROWS
    for names, node in rows:
        line = lines[node.lineno - 1]
        assert node.lineno == node.end_lineno and "  # " in line, f"{names}: one line with its scale and reason"
        assert line.split("  # ", 1)[1].split(":", 1)[0].strip(), f"{names}: no scale given"


def test_every_table_row_is_read():
    trees = {path.name: _tree(path) for path in sorted(SRC.glob("*.py"))}
    rows = _table_rows(trees["linalg.py"])
    own = {id(n) for _, node in rows for n in ast.walk(node)}  # the Names inside the rows themselves
    read = {
        n.id for tree in trees.values() for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and id(n) not in own
    }
    unread = [name for names, _ in rows for name in names if name not in read]
    assert not unread, "table rows that no code reads: " + ", ".join(unread)
