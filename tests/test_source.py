"""Guard: the package carries no dead imports, no private helper that only tests reach, and no export
that nothing reads, and every package name the benchmark reads, its tracer wraps or the README names
still resolves; ``cli`` compares its dimension cap only where it refuses or skips, and every seeded
generator is made once per call, from one seed.

The scan reads ``src/renyi_ent/*.py`` and ``perfbench/*.py`` with ``ast``, and the README's code
spans. ``__init__.py`` is the package's export list, so its imports are used by being there; an export
counts as read when a top-level statement of another module, or of its own module other than its
definition, names it, or when the ``__init__`` docstring lists it as public.
"""

import ast
import importlib
import re
import types
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


# Functions the benchmark's tracer names that the package does not have: a counter of one reads 0. The
# tracer may change only with the benchmark, so each is listed until then, and the list can only shrink.
STALE_BENCHMARK_NAMES = {
    "certificates.marginal_condition_mc",  # folded into certify_optimizer(..., free_set="mc-diagonal")
    "minimizers.minimize_conditional_mc",  # a test oracle, in tests/oracles.py
}


def _tracer_names() -> set[str]:
    """The ``module.function`` names of the tracer's LAMBDA, CERTIFY and SOLVE constants."""
    names = set()
    for node in ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8")).body:
        targets = {t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)}
        if targets & {"LAMBDA", "CERTIFY", "SOLVE"}:
            value = ast.literal_eval(node.value)
            names |= {value} if isinstance(value, str) else set(value)
    return names


def _is_function(name: str) -> bool:
    """Whether ``module.function`` names a function of the package module ``renyi_ent.module``."""
    module, attr = name.rsplit(".", 1)
    return callable(getattr(importlib.import_module(f"renyi_ent.{module}"), attr, None))


def test_every_function_the_tracer_wraps_resolves():
    names = _tracer_names()
    assert {"certificates.max_product_overlap", "certificates.certify_optimizer", "minimizers.minimize_mc"} <= names
    missing = {name for name in names if not _is_function(name)}
    assert missing <= STALE_BENCHMARK_NAMES, "the tracer wraps what the package no longer has: " + ", ".join(
        sorted(missing - STALE_BENCHMARK_NAMES))
    stale = STALE_BENCHMARK_NAMES - missing  # a name the tracer dropped, or the package has again
    assert not stale, "no longer stale, drop from STALE_BENCHMARK_NAMES: " + ", ".join(sorted(stale))


def _readme_names() -> dict[str, str]:
    """Each dotted name in a README code span that starts at the package, one of its modules or a name
    one of them defines (``linalg.ColumnSparse``, ``XiEvaluation.local_matrices``), with its full path."""
    owners = {"renyi_ent": ""}
    for path in sorted(SRC.glob("*.py")):
        module = "renyi_ent" if path.stem == "__init__" else f"renyi_ent.{path.stem}"
        if path.stem != "__init__":
            owners[path.stem] = "renyi_ent."
        for name, value in vars(importlib.import_module(module)).items():
            if not isinstance(value, types.ModuleType):  # numpy's np.kron is not the package's
                owners.setdefault(name, module + ".")
    names = {}
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)  # code blocks
    for span in re.findall(r"`([^`]+)`", text):
        for name in re.findall(r"(?<![\w/])[A-Za-z_]\w*(?:\.\w+)+", span):  # not a path's file name
            head = name.split(".")[0]
            if head in owners:
                names[name] = owners[head] + name
    return names


def test_every_package_name_the_readme_names_resolves():
    names = _readme_names()
    assert {"linalg.ColumnSparse", "XiEvaluation.local_matrices", "cli.COUNT_CAP"} <= set(names)  # the scan sees them
    missing = sorted(name for name, path in names.items() if not _resolves(path))
    assert not missing, "the README names what the package no longer has: " + ", ".join(missing)


def test_the_cli_compares_the_dimension_cap_in_one_place_per_decision():
    # the refusal lives in _capped_dim; counterexample's own comparison only picks its closed-form skip
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    places = [
        (getattr(top, "name", "<module>"), node.lineno)
        for top in tree.body
        for node in ast.walk(top) if isinstance(node, ast.Compare) and "CERTIFY_DIM_CAP" in _names(node)
    ]
    assert places and {name for name, _ in places} <= {"_capped_dim", "cmd_counterexample"}, places
    assert sum(name == "cmd_counterexample" for name, _ in places) == 1, places


def test_column_sparse_knows_no_partition():
    # the tensor partition is read where the contraction is planned, in certificates, never by the storage
    tree = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ColumnSparse"]
    methods = [node for node in cls.body if isinstance(node, ast.FunctionDef)]
    assert {"toarray", "columns", "gram"} <= {m.name for m in methods}  # the scan sees them
    takes = [m.name for m in methods for a in ast.walk(m.args) if isinstance(a, ast.arg) and a.arg == "dims"]
    assert not takes, "ColumnSparse methods that take a partition: " + ", ".join(takes)


def test_user_json_is_parsed_only_by_read_json():
    # linalg._read_json turns the parser's RecursionError into a one-line ValueError; a parse elsewhere skips that
    places = sorted(
        (name, getattr(top, "name", "<module>"))
        for name, tree in _trees().items() for top in tree.body for node in ast.walk(top)
        if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads") and _names(node.value) == {"json"})
        or (isinstance(node, ast.ImportFrom) and node.module == "json")
    )
    assert places == [("linalg.py", "_read_json")], places


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_every_generator_is_made_once_from_one_seed():
    # a multi-start draws all its starts from one generator; a generator per start, or one seeded by a
    # (seed, start) list, is a second seeding rule
    calls, bad = set(), []
    for name, tree in _trees().items():
        looped = {id(n) for loop in ast.walk(tree) if isinstance(loop, _LOOPS) for n in ast.walk(loop)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "default_rng":
                calls.add(name)
                one_seed = len(node.args) == 1 and not node.keywords and not isinstance(node.args[0], ast.List | ast.Tuple)
                if not one_seed or id(node) in looped:
                    bad.append(f"{name}:{node.lineno}")
    assert {"certificates.py", "minimizers.py", "linalg.py"} <= calls  # the scan sees them
    assert not bad, "default_rng calls in a loop or with other than one seed: " + ", ".join(bad)
