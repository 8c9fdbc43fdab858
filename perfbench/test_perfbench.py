"""Tests of the benchmark's own checkers and trace arithmetic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import renyi_ent  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LABEL = "bell:lam=0.75|0.25|0|0"


def _row(label, alpha, z, closed, certified):
    return f"ok {label} alpha={alpha} z={z} closed={closed!r} certified={certified!r} margin=0 (5 ms)"


def test_table1_checker_accepts_exact_rows_and_flags_a_tampered_one():
    refs = {(LABEL, 1.0, 1.0): 0.5, (LABEL, 2.0, 2.0): 0.25}
    good = "\n".join(_row(LABEL, a, z, v, v) for (_, a, z), v in refs.items())
    assert workloads.table1_check(workloads.Table1Inputs(refs), (0, good)).failed == 0

    tampered = "\n".join([_row(LABEL, 1.0, 1.0, 0.5, 0.5 + 1e-5), _row(LABEL, 2.0, 2.0, 0.25, 0.25)])
    out = workloads.table1_check(workloads.Table1Inputs(refs), (0, tampered))
    assert (out.attempted, out.failed, out.wrong) == (2, 1, 1)


def test_table1_checker_flags_missing_uncertified_rows_and_exit_code():
    refs = {(LABEL, 1.0, 1.0): 0.5, (LABEL, 2.0, 2.0): 0.25}
    uncertified = _row(LABEL, 1.0, 1.0, 0.5, math.nan)  # the second row is missing
    assert workloads.table1_check(workloads.Table1Inputs(refs), (0, uncertified)).failed == 2
    good = "\n".join(_row(LABEL, a, z, v, v) for (_, a, z), v in refs.items())
    assert workloads.table1_check(workloads.Table1Inputs(refs), (1, good)).failed == 1


def test_antisym_checker_flags_a_refuted_verdict():
    payload = {"single": 1.0, "pair": 1.3, "single_verdict": "certified-optimal", "pair_verdict": "refuted"}
    out = workloads.check_antisym(0, payload, closed_pair=1.3)
    assert (out.attempted, out.failed, out.wrong) == (2, 1, 0)
    payload["pair_verdict"] = "certified-optimal"
    assert workloads.check_antisym(0, payload, closed_pair=1.3).failed == 0
    assert workloads.check_antisym(0, payload, closed_pair=1.3 + 1e-5).wrong == 1


def _solution(value, verdict):
    return SimpleNamespace(value=value, certificate=SimpleNamespace(verdict=verdict))


def test_simplex_checker_flags_refuted_solves_and_additivity_defects():
    certified, value_ok, _ = workloads.check_simplex_call("mc", 0, 2.0, _solution(0.3, "refuted"), 0.0, [])
    assert (certified, value_ok) == (False, True)
    joint = _solution(0.7 + 2e-5, "certified-optimal")
    certified, value_ok, _ = workloads.check_simplex_call("coherence", 2, 2.0, joint, 0.0, [0.3, 0.4])
    assert (certified, value_ok) == (True, False)
    joint = _solution(0.7, "certified-optimal")
    assert workloads.check_simplex_call("coherence", 2, 2.0, joint, 0.0, [0.3, 0.4])[:2] == (True, True)
    certified, value_ok, _ = workloads.check_simplex_call("mc", 0, 1.0, _solution(0.3 + 2e-6, "certified-optimal"), 0.3, [])
    assert (certified, value_ok) == (True, False)


def test_an_uncertified_solve_with_the_right_value_is_counted_but_not_failed():
    out = workloads.Outcome()
    out.record(True, True, "refuted mc solve", certified=False)
    out.record(False, False, "wrong joint value", certified=True)
    out.record(True, True, "certified solve", certified=True)
    assert (out.attempted, out.failed, out.wrong, out.certified) == (3, 1, 1, 2)
    assert out.notes == ["refuted mc solve", "wrong joint value"]


def test_simplex_alpha_one_reference_matches_the_solver():
    s = workloads.simplex_set(0, 0)
    p = renyi_ent.AlphaZ(1.0, 1.0)
    sol = renyi_ent.minimize_incoherent(s.coherence[0], p, opts=renyi_ent.SolverOptions(starts=1))
    assert abs(sol.value - s.references[0]) < 1e-6


def test_self_time_subtracts_covered_child_time():
    spans = [
        tracing.Span("pass", 0.0, 10.0, -1),
        tracing.Span("a", 1.0, 4.0, 0),
        tracing.Span("a.inner", 2.0, 3.0, 1),
        tracing.Span("b", 5.0, 6.0, 0),
        tracing.Span("c", 5.5, 7.0, 0),  # overlaps b: the union counts once
    ]
    assert tracing.self_times(spans) == [10.0 - 3.0 - 2.0, 2.0, 1.0, 1.0, 1.5]


def test_instrumentation_counts_and_restores():
    original = renyi_ent.certificates.xi
    original_eigh = np.linalg.eigh
    rho = renyi_ent.build(renyi_ent.BellDiagonal((0.75, 0.25, 0.0, 0.0)))
    sigma = renyi_ent.random_density(4, 4, seed=0, dims=(2, 2))
    tracer = tracing.Tracer((renyi_ent.HermitianOperator, renyi_ent.DensityMatrix))
    with tracing.Instrumentation(tracer, renyi_ent):
        assert renyi_ent.certificates.xi is not original
        renyi_ent.d_alpha_z(rho, sigma, renyi_ent.AlphaZ(2.0, 2.0))
    assert renyi_ent.certificates.xi is original and np.linalg.eigh is original_eigh
    metrics = tracer.metrics()
    assert metrics["divergences.d_alpha_z.calls"] == 1
    assert metrics["linalg.decomp_full.calls"] > 0 and metrics["linalg.decomp_small.calls"] == 0


def test_tail_keeps_ten_passes_beyond_or_falls_back_to_the_median():
    value, pct, beyond = run.tail([float(x) for x in range(40)])
    assert (pct, beyond) == (75.0, 10)
    value, pct, _ = run.tail([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (value, pct) == (3.0, 50.0)
