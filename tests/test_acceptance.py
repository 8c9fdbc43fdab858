"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with pytest -s; a failed assertion prints FAIL)."""

import csv
import json
import math
import time

import numpy as np

from renyi_ent import (
    AlphaZ,
    AntisymPair,
    BellDiagonal,
    Dicke,
    GHZ,
    Isotropic,
    MCBD,
    PureBipartite,
    SolverOptions,
    Werner,
    beta_dual,
    build,
    d_alpha_z,
    d_max,
    d_min,
    d_umegaki,
    density,
    max_product_overlap,
    minimize_incoherent,
    minimize_mc,
    partial_transpose,
    random_density,
    renyi_entropy,
    tensor_product,
    xi,
)
from renyi_ent.cli import DEFAULT_GRID, main
from oracles import (
    as_xi,
    conditional_entropy_mc,
    full_rank_state,
    lambda_sq_closed_form,
    matrix_power,
    partial_trace,
    product_overlap_grid,
    support_projector,
    wrap,
    xi_matrix,
    xi_quadrature,
)

GRID = [AlphaZ(a, z) for a, z in DEFAULT_GRID]
FAST = SolverOptions(starts=2)


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def random_mc_state(d: int, seed: int):
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    coeff = g @ g.conj().T
    coeff /= np.trace(coeff).real
    m = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            m[j * d + j, k * d + k] = coeff[j, k]
    return density(m, (d, d))


def test_criterion_1_table1_reproduction(tmp_path, capsys):
    out_csv = tmp_path / "table1.csv"
    start = time.perf_counter()
    code = main(["table1", "--out", str(out_csv), "--restarts", "64"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7 * len(DEFAULT_GRID)
    worst = 0.0
    for row in rows:
        err = abs(float(row["closed_form"]) - float(row["certified_value"]))
        worst = max(worst, err)
        assert err <= 1e-6, row
    assert elapsed < 120.0, f"table1 took {elapsed:.1f}s"
    with capsys.disabled():
        _report(
            "criterion 1 (Table-1 reproduction)",
            f"{len(rows)} rows, worst |closed - certified| = {worst:.2e}, {elapsed:.1f}s",
        )


def test_criterion_2_counterexample(capsys):
    start = time.perf_counter()
    code3 = main(["counterexample", "--d", "3", "--restarts", "64"])
    elapsed3 = time.perf_counter() - start
    out3 = capsys.readouterr().out
    code2 = main(["counterexample", "--d", "2", "--restarts", "64"])
    out2 = capsys.readouterr().out
    assert code3 == 0 and code2 == 0
    d3, d2 = json.loads(out3), json.loads(out2)
    assert abs(d3["single"] - 1.0) <= 1e-6
    assert abs(d3["pair"] - (1.0 + math.log2(1.5))) <= 1e-6
    assert abs(d3["gap"] - math.log2(1.5)) <= 1e-6
    assert d3["single_verdict"] == d3["pair_verdict"] == "certified-optimal"
    assert abs(d2["additivity_defect"]) <= 1e-6
    assert elapsed3 < 60.0, f"81x81 certification took {elapsed3:.1f}s"
    with capsys.disabled():
        _report(
            "criterion 2 (Werner counterexample)",
            f"d=3 gap = {d3['gap']:.6f}, d=2 defect = {d2['additivity_defect']:.1e}, {elapsed3:.1f}s",
        )


def test_criterion_3_lambda_sq_oracle_equivalence(capsys):
    worst_grid = 0.0
    for i in range(50):
        rho = random_density(4, 4, seed=3000 + i, dims=(2, 2))
        alt = max_product_overlap(as_xi(rho), restarts=64).value
        grid = product_overlap_grid(rho, steps=400).value
        worst_grid = max(worst_grid, abs(alt - grid))
        assert abs(alt - grid) <= 1e-5, f"instance {i}: altmin {alt} vs grid {grid}"

    catalog_cases = [
        BellDiagonal((0.75, 0.25, 0.0, 0.0)),
        BellDiagonal((0.4, 0.3, 0.2, 0.1)),
        Werner(0.2, 3),
        Werner(0.5, 3),
        Isotropic(0.8, 3),
        Isotropic(0.2, 3),
        Dicke(3, (2, 1)),
        MCBD((0.5, 0.3, 0.2)),
        MCBD((0.2,) * 5),
        PureBipartite((0.9, 0.1)),
        GHZ(3, 3),
        AntisymPair(3),
    ]
    worst_closed = 0.0
    for fam in catalog_cases:
        found = max_product_overlap(as_xi(build(fam)), restarts=64).value
        expect = lambda_sq_closed_form(fam)
        worst_closed = max(worst_closed, abs(found - expect))
        assert abs(found - expect) <= 1e-6, f"{fam}: {found} vs {expect}"
    with capsys.disabled():
        _report(
            "criterion 3 (Lambda^2 oracle equivalence)",
            f"50 random 2x2 worst = {worst_grid:.2e}, {len(catalog_cases)} closed forms worst = {worst_closed:.2e}",
        )


def test_criterion_4_xi_quadrature_cross_check(capsys):
    points = [AlphaZ(a, z) for a, z in ((0.3, 0.8), (0.9, 0.9), (1.0, 1.0), (1.5, 1.0), (3.0, 2.5))]
    assert all(abs(abs(p.beta) - 1.0) > 1e-6 for p in points)
    worst = 0.0
    for i in range(20):
        rho = full_rank_state(4, 4000 + i, dims=(2, 2))
        tau = full_rank_state(4, 4500 + i, dims=(2, 2))
        for p in points:
            fast = xi_matrix(xi(rho, tau, p)).entries
            slow = xi_quadrature(rho, tau, p)
            diff = float(np.max(np.abs(fast - slow)))
            worst = max(worst, diff)
            assert diff <= 1e-8, f"pair {i} at ({p.alpha}, {p.z}): {diff:.2e}"
    with capsys.disabled():
        _report("criterion 4 (Xi quadrature cross-check)", f"100 integrals, worst max-entry = {worst:.2e}")


def test_criterion_5_coherence_additivity(capsys):
    points = [AlphaZ(0.7, 0.7), AlphaZ(1.0, 1.0), AlphaZ(2.0, 2.0)]
    worst = 0.0
    for i in range(20):
        r1 = full_rank_state(3, 5000 + i)
        r2 = full_rank_state(3, 5500 + i)
        joint = density(tensor_product(r1, r2).entries, (9,))
        for q in points:
            v1 = minimize_incoherent(r1, q, opts=FAST).value
            v2 = minimize_incoherent(r2, q, opts=FAST).value
            vj = minimize_incoherent(joint, q, opts=FAST).value
            defect = abs(vj - v1 - v2)
            worst = max(worst, defect)
            assert defect <= 1e-5, f"pair {i} at ({q.alpha}, {q.z}): defect {defect:.2e}"
    with capsys.disabled():
        _report("criterion 5 (coherence additivity)", f"20 pairs, worst defect = {worst:.2e}")


def test_criterion_6_mc_machinery(capsys):
    points = [AlphaZ(0.6, 0.8), AlphaZ(1.0, 1.0), AlphaZ(2.0, 2.0)]
    worst_identity = 0.0
    for i in range(20):
        d = 2 + (i % 2)
        rho = random_mc_state(d, 6000 + i)
        p = points[i % len(points)]
        sol = minimize_mc(rho, p, opts=FAST)
        h_up = conditional_entropy_mc(rho, p, opts=FAST)
        gap = abs(sol.value + h_up)
        worst_identity = max(worst_identity, gap)
        assert gap <= 1e-6, f"state {i}: |value + H_up| = {gap:.2e}"
        assert sol.certificate.verdict == "certified-optimal", f"state {i}: {sol.certificate.verdict}"

    worst_pure = 0.0
    for weights in ((0.7, 0.3), (0.5, 0.3, 0.2)):
        rho = build(PureBipartite(weights))
        for p in GRID:
            h_up = conditional_entropy_mc(rho, p, opts=FAST)
            resid = abs(h_up + renyi_entropy(weights, beta_dual(p)))
            worst_pure = max(worst_pure, resid)
            assert resid <= 1e-6, f"{weights} at ({p.alpha}, {p.z}): {resid:.2e}"
    with capsys.disabled():
        _report(
            "criterion 6 (MC machinery)",
            f"20 states worst identity = {worst_identity:.2e}, pure duality worst = {worst_pure:.2e}",
        )


def test_criterion_7_limit_suite(capsys):
    worst = [0.0, 0.0, 0.0]
    for i in range(10):
        rho = full_rank_state(3, 7000 + i)
        sigma = full_rank_state(3, 7500 + i)
        du = d_umegaki(rho, sigma)
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            worst[0] = max(worst[0], abs(d_alpha_z(rho, sigma, AlphaZ(a, a)) - du))
        worst[1] = max(worst[1], abs(d_alpha_z(rho, sigma, AlphaZ(1e-5, 1.0)) - d_min(rho, sigma)))
        worst[2] = max(worst[2], abs(d_alpha_z(rho, sigma, AlphaZ(1e3, 1e3)) - d_max(rho, sigma)))
    assert worst[0] <= 1e-3
    assert worst[1] <= 1e-3
    assert worst[2] <= 1e-2
    with capsys.disabled():
        _report(
            "criterion 7 (limit suite)",
            f"umegaki {worst[0]:.1e} <= 1e-3, d_min {worst[1]:.1e} <= 1e-3, d_max {worst[2]:.1e} <= 1e-2",
        )


def test_criterion_8_property_suites(capsys):
    n = 100
    # data-processing spot checks under a local partial trace
    for i in range(n):
        p = GRID[i % len(GRID)]
        rho = random_density(4, 4, seed=8000 + i, dims=(2, 2))
        sigma = random_density(4, 4, seed=8200 + i, dims=(2, 2))
        big = d_alpha_z(rho, sigma, p)
        small = d_alpha_z(
            density(partial_trace(rho, [0]).entries, (2,)), partial_trace(sigma, [0]), p
        )
        assert big >= small - 1e-8, f"DPI instance {i}"

    # monotone decrease in the second argument
    for i in range(n):
        p = GRID[i % len(GRID)]
        rho = full_rank_state(3, 8400 + i)
        sigma = full_rank_state(3, 8600 + i)
        bump = random_density(3, 3, seed=8800 + i)
        bigger = wrap(sigma.entries + 0.03 * bump.entries, (3,))
        assert d_alpha_z(rho, bigger, p) <= d_alpha_z(rho, sigma, p) + 1e-8, f"monotone {i}"

    # tensor additivity of D
    for i in range(n):
        p = GRID[i % len(GRID)]
        r1, s1 = full_rank_state(2, 9000 + i), full_rank_state(2, 9200 + i)
        r2, s2 = full_rank_state(2, 9400 + i), full_rank_state(2, 9600 + i)
        joint = d_alpha_z(
            density(tensor_product(r1, r2).entries, (2, 2)), tensor_product(s1, s2), p
        )
        parts = d_alpha_z(r1, s1, p) + d_alpha_z(r2, s2, p)
        assert abs(joint - parts) <= 1e-8, f"additivity {i}"

    # generalized-inverse algebra
    exponents = [(0.5, 0.8), (1.3, -0.4), (2.0, 0.25), (0.7, 0.7)]
    for i in range(n):
        rho = random_density(5, 2 + (i % 4), seed=9800 + i)
        pw, qw = exponents[i % len(exponents)]
        lhs = matrix_power(rho, pw).entries @ matrix_power(rho, qw).entries
        rhs = matrix_power(rho, pw + qw).entries
        assert np.max(np.abs(lhs - rhs)) <= 1e-8, f"power algebra {i}"
        inv = matrix_power(rho, -0.6).entries @ matrix_power(rho, 0.6).entries
        assert np.max(np.abs(inv - support_projector(rho).entries)) <= 1e-8, f"projector {i}"

    # partial-transpose involution
    for i in range(n):
        rho = random_density(8, 8, seed=10_500 + i, dims=(2, 2, 2))
        flip = [i % 3] if i % 2 == 0 else [0, 2]
        twice = partial_transpose(partial_transpose(rho, flip), flip)
        assert np.max(np.abs(twice.entries - rho.entries)) <= 1e-14, f"involution {i}"

    with capsys.disabled():
        _report("criterion 8 (property suites)", "5 suites x 100 seeded instances")
