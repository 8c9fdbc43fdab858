"""Span tracing for the benchmark's traced pass.

The tracer replaces every public function of the six ``renyi_ent`` modules,
under every name it is imported as, with a wrapper that records a span
(name, start, end, parent). ``numpy.linalg.eigh`` / ``eigvalsh`` / ``svd``
are wrapped as counters, not spans, so decomposition time stays inside the
self time of the function that asked for it. Nothing under ``src/`` changes:
the wrappers are installed on module attributes and removed afterwards.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time

import numpy as np

LAYERS = ("linalg", "divergences", "certificates", "minimizers", "catalog", "cli")
XI_ROUTES = ("boundary-line", "commuting", "divided-difference")
DECOMPOSITIONS = ("eigh", "eigvalsh", "svd")
LAMBDA = "certificates.max_product_overlap"
CERTIFY = ("certificates.certify_optimizer", "certificates.marginal_condition_mc")
SOLVE = (
    "minimizers.minimize_incoherent",
    "minimizers.minimize_mc",
    "minimizers.minimize_conditional_mc",
)
OBJECTIVE = "minimizers.objective"
ROOT = "pass"
# a restart "hits" when it ends within this share of the best Lambda^2
# (the same relative width as the certification band)
RESTART_HIT_RTOL = 1e-7


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for the root


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Collects spans and decomposition counters for one traced pass."""

    def __init__(self, operator_types: tuple[type, ...] = ()):
        self.operator_types = operator_types
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.dim_stack: list[int] = []  # nearest enclosing operator dimension
        self.lambda_depth = 0
        self.decomp = {"full": [0, 0.0], "small": [0, 0.0]}
        self.decomp_n3 = 0
        self.lambda_local_eigh = 0
        self.xi_routes = dict.fromkeys(XI_ROUTES, 0)
        self.restarts = 0
        self.restart_hits = 0
        self.cert_margins: list[float] = []
        self.solver_verdicts: list[str] = []
        self.solver_margins: list[float] = []
        self.objective_rows = 0

    # -- spans ------------------------------------------------------------

    def open(self, name: str, dim: int = 0) -> int:
        """Start a span; ``dim`` is its largest operator argument, 0 to inherit."""
        parent = self.stack[-1] if self.stack else -1
        if dim == 0 and self.dim_stack:
            dim = self.dim_stack[-1]
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        self.dim_stack.append(dim)
        if name == LAMBDA:
            self.lambda_depth += 1
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()
        self.dim_stack.pop()
        if self.spans[idx].name == LAMBDA:
            self.lambda_depth -= 1

    def _arg_dim(self, args, kwargs) -> int:
        dim = 0
        for a in (*args, *kwargs.values()):
            if isinstance(a, self.operator_types):
                dim = max(dim, a.dim)
        return dim

    def call(self, name: str, fn, args, kwargs):
        if name == "minimizers.minimize_simplex":
            args, kwargs = self._trace_objective(args, kwargs)
        idx = self.open(name, self._arg_dim(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(idx)
        self._observe(name, result)
        return result

    def _trace_objective(self, args, kwargs):
        if args:
            problem, rest = args[0], args[1:]
        else:
            problem, rest = kwargs.pop("problem"), ()
        objective = problem.objective

        def traced_objective(S):
            self.objective_rows += int(np.shape(S)[0])
            idx = self.open(OBJECTIVE)
            try:
                return objective(S)
            finally:
                self.close(idx)

        return (dataclasses.replace(problem, objective=traced_objective), *rest), kwargs

    def _observe(self, name: str, result) -> None:
        if name == "certificates.xi":
            self.xi_routes[result.route] = self.xi_routes.get(result.route, 0) + 1
        elif name == LAMBDA:
            values = result.restart_values
            self.restarts += len(values)
            band = RESTART_HIT_RTOL * max(1.0, abs(result.value))
            self.restart_hits += sum(1 for v in values if v >= result.value - band)
        elif name in CERTIFY:
            self.cert_margins.append(result.margin / result.tol_cert)
        elif name in SOLVE and result.certificate is not None:
            cert = result.certificate
            self.solver_verdicts.append(cert.verdict)
            self.solver_margins.append(cert.margin / cert.tol_cert)

    # -- decompositions ---------------------------------------------------

    def decomposition(self, fn, a, args, kwargs):
        start = time.perf_counter()
        try:
            return fn(a, *args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            shape = np.shape(a)
            m, n = shape[-2], shape[-1]
            count = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
            self.decomp_n3 += count * m * n * min(m, n)
            full_dim = self.dim_stack[-1] if self.dim_stack else 0
            kind = "full" if full_dim == 0 or max(m, n) >= full_dim else "small"
            self.decomp[kind][0] += 1
            self.decomp[kind][1] += elapsed
            if self.lambda_depth and kind == "small" and fn.__name__ == "eigh":
                self.lambda_local_eigh += count

    # -- results ----------------------------------------------------------

    def _nested_in_same(self, i: int) -> bool:
        name, j = self.spans[i].name, self.spans[i].parent
        while j >= 0:
            if self.spans[j].name == name:
                return True
            j = self.spans[j].parent
        return False

    def metrics(self) -> dict[str, float]:
        selfs = self_times(self.spans)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}  # outermost spans of each name only
        for i, (s, own) in enumerate(zip(self.spans, selfs)):
            calls[s.name] = calls.get(s.name, 0) + 1
            self_s[s.name] = self_s.get(s.name, 0.0) + own
            if not self._nested_in_same(i):
                total_s[s.name] = total_s.get(s.name, 0.0) + (s.end - s.start)

        def sum_of(table, names):
            return sum(table.get(n, 0) for n in names)

        def prefixed(layer):
            return [n for n in self_s if n.startswith(layer + ".")]

        out: dict[str, float] = {
            "linalg.decomp_full.calls": self.decomp["full"][0],
            "linalg.decomp_full.s": self.decomp["full"][1],
            "linalg.decomp_small.calls": self.decomp["small"][0],
            "linalg.decomp_small.s": self.decomp["small"][1],
            "linalg.decomp_n3": self.decomp_n3,
            "catalog.build.s": total_s.get("catalog.build", 0.0),
            "catalog.ansatz.s": total_s.get("catalog.ansatz_optimizer", 0.0),
        }
        for fn in ("d_alpha_z", "q_alpha_z"):
            out[f"divergences.{fn}.calls"] = calls.get(f"divergences.{fn}", 0)
            out[f"divergences.{fn}.self_s"] = self_s.get(f"divergences.{fn}", 0.0)
        out["certificates.support.self_s"] = self_s.get("certificates.in_support_set", 0.0)
        out["certificates.xi.self_s"] = self_s.get("certificates.xi", 0.0)
        for route in XI_ROUTES:
            out[f"certificates.xi.route.{route}"] = self.xi_routes[route]
        out["certificates.certify.calls"] = sum_of(calls, CERTIFY)
        out["certificates.certify.self_s"] = sum_of(self_s, CERTIFY)
        out["certificates.lambda.calls"] = calls.get(LAMBDA, 0)
        out["certificates.lambda.self_s"] = self_s.get(LAMBDA, 0.0)
        out["certificates.lambda.local_eigh"] = self.lambda_local_eigh
        out["certificates.lambda.restart_hit_ratio"] = (
            self.restart_hits / self.restarts if self.restarts else 0.0
        )
        out["certificates.margin_rel_min"] = min(self.cert_margins, default=0.0)
        solver_spans = [n for n in prefixed("minimizers") if n != OBJECTIVE]
        out["minimizers.solve.calls"] = sum_of(calls, SOLVE)
        out["minimizers.solve.self_s"] = sum_of(self_s, solver_spans)
        out["minimizers.objective.calls"] = calls.get(OBJECTIVE, 0)
        out["minimizers.objective.rows"] = self.objective_rows
        out["minimizers.objective.self_s"] = self_s.get(OBJECTIVE, 0.0)
        verdicts = self.solver_verdicts
        out["minimizers.certified_ratio"] = (
            verdicts.count("certified-optimal") / len(verdicts) if verdicts else 0.0
        )
        out["minimizers.margin_rel_min"] = min(self.solver_margins, default=0.0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum_of(self_s, prefixed(layer))
        # pass time that no library span covers is benchmark-side CLI glue
        out["cli.self_s"] += self_s.get(ROOT, 0.0)
        return out

    def span_records(self) -> dict:
        """Spans as [name index, start, end, parent, self time] rows plus the name table."""
        names: dict[str, int] = {}
        rows = [
            [names.setdefault(s.name, len(names)), s.start, s.end, s.parent, own]
            for s, own in zip(self.spans, self_times(self.spans))
        ]
        return {"names": list(names), "fields": ["name", "start", "end", "parent", "self_s"], "spans": rows}


def _public_functions(module):
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Instrumentation:
    """Installs the tracer's wrappers; undo with :meth:`remove`."""

    def __init__(self, tracer: Tracer, package, namespaces=()):
        self.tracer = tracer
        self.package = package
        self.extra_namespaces = tuple(namespaces)
        self.saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [getattr(self.package, layer) for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in _public_functions(module):
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for ns in (self.package, *modules, *self.extra_namespaces):
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._replace(ns, attr, wrappers[value])
        for name in DECOMPOSITIONS:
            fn = getattr(np.linalg, name)
            self._replace(np.linalg, name, self._wrap_decomposition(fn))

    def remove(self) -> None:
        for ns, attr, original in reversed(self.saved):
            setattr(ns, attr, original)
        self.saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _replace(self, ns, attr, new) -> None:
        self.saved.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, new)

    def _wrap(self, name, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    def _wrap_decomposition(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            return tracer.decomposition(fn, a, args, kwargs)

        return counted
