import math

import numpy as np
import pytest

from renyi_ent import minimizers
from renyi_ent import (
    AlphaZ,
    MCBD,
    PureBipartite,
    SolverOptions,
    build,
    certify_optimizer,
    closed_form_value,
    d_alpha_z,
    d_umegaki,
    density,
    minimize_incoherent,
    minimize_mc,
    pure_density,
    random_density,
    renyi_entropy,
    xi,
)
from renyi_ent.catalog import Isotropic
from renyi_ent.catalog import build as build_family
from oracles import (
    coherence_scan_qubit,
    conditional_entropy_mc,
    full_rank_state,
    golden_section_1d,
    minimize_conditional_mc,
    project_to_simplex,
    q_alpha_z,
    simplex_serial,
    tiled_objective,
    xi_matrix,
)

FAST = SolverOptions(starts=2)


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


class TestSimplexProjection:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_to_simplex(v), v)

    @pytest.mark.parametrize("seed", range(10))
    def test_feasible_output(self, seed):
        rng = np.random.default_rng(seed)
        out = project_to_simplex(rng.standard_normal(6))
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-12

    def test_known_projection(self):
        out = project_to_simplex(np.array([0.9, 0.9]))
        assert np.allclose(out, [0.5, 0.5])


class TestGoldenSection:
    def test_quadratic(self):
        x, val = golden_section_1d(lambda x: (x - 0.3) ** 2, (0.0, 1.0))
        assert abs(x - 0.3) <= 1e-9
        assert val <= 1e-16

    def test_monotone_hits_endpoint(self):
        x, _ = golden_section_1d(lambda x: x, (0.0, 1.0))
        assert x <= 1e-9

    def test_isotropic_optimizer_sits_at_boundary(self):
        rho = build_family(Isotropic(0.8, 3))
        p = AlphaZ(1.0, 1.0)

        def objective(f):
            return d_umegaki(rho, build_family(Isotropic(max(f, 1e-9), 3)))

        x, _ = golden_section_1d(objective, (1e-6, 1.0 / 3.0))
        assert abs(x - 1.0 / 3.0) <= 1e-6


class TestMinimizeIncoherent:
    def test_already_diagonal_state(self):
        rho = density(np.diag([0.6, 0.3, 0.1]), (3,))
        sol = minimize_incoherent(rho, AlphaZ(2.0, 2.0), opts=FAST)
        assert abs(sol.value) <= 1e-9
        assert np.allclose(sol.weights, [0.6, 0.3, 0.1], atol=1e-6)

    def test_plus_state_relative_entropy_of_coherence(self):
        plus = pure_density(np.array([1.0, 1.0]) / np.sqrt(2), (2,))
        p = AlphaZ(1.0, 1.0)
        sol = minimize_incoherent(plus, p, opts=FAST)
        assert abs(sol.value - 1.0) <= 1e-9
        assert np.allclose(sol.weights, [0.5, 0.5], atol=1e-6)
        assert abs(sol.value - coherence_scan_qubit(plus, p, steps=4001)) <= 1e-6
        assert sol.certificate.verdict == "certified-optimal"

    @pytest.mark.parametrize("a,z", [(0.7, 0.7), (2.0, 2.0)])
    def test_scan_oracle_random_qubit(self, a, z):
        rho = full_rank_state(2, 77)
        p = AlphaZ(a, z)
        sol = minimize_incoherent(rho, p, opts=FAST)
        scan = coherence_scan_qubit(rho, p, steps=4001)
        assert sol.value <= scan + 1e-6

    def test_additivity_spot(self):
        from renyi_ent import tensor_product

        p = AlphaZ(1.0, 1.0)
        r1, r2 = full_rank_state(3, 50), full_rank_state(3, 51)
        joint = density(tensor_product(r1, r2).entries, (9,))
        v1 = minimize_incoherent(r1, p, opts=FAST).value
        v2 = minimize_incoherent(r2, p, opts=FAST).value
        vj = minimize_incoherent(joint, p, opts=FAST).value
        assert abs(vj - v1 - v2) <= 1e-5

    def test_feasibility_and_restart_monotonicity(self):
        rho = full_rank_state(3, 52)
        sol = minimize_incoherent(rho, AlphaZ(0.7, 0.9), opts=SolverOptions(starts=4))
        assert np.all(sol.weights >= 0)
        assert abs(sol.weights.sum() - 1.0) <= 1e-10
        best_so_far = math.inf
        for v in sol.per_start:
            best_so_far = min(best_so_far, v)
        assert best_so_far == sol.value

    def test_outside_region_rejected(self):
        with pytest.raises(ValueError):
            minimize_incoherent(full_rank_state(2, 1), AlphaZ(3.0, 1.0))

    def test_basis_covariance(self):
        # a permutation with phases maps incoherent states to incoherent states,
        # so the closest one moves with rho and the value stays
        rho = full_rank_state(3, 53)
        p = AlphaZ(2.0, 2.0)
        phases = np.exp(1j * np.random.default_rng(54).uniform(0.0, 2.0 * np.pi, 3))
        u = np.eye(3)[:, [2, 0, 1]] * phases
        moved = density(u @ rho.entries @ u.conj().T, (3,))
        plain = minimize_incoherent(rho, p, opts=FAST)
        covariant = minimize_incoherent(moved, p, opts=FAST)
        assert abs(plain.value - covariant.value) <= 1e-8
        assert np.max(np.abs(u @ plain.sigma.entries @ u.conj().T - covariant.sigma.entries)) <= 1e-5

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3, FOUND 57: a weight below SUPPORT_CUT * max(w) is live "
                       "in the solver's objective, yet the certificate cuts it")
    def test_rank_one_solution_at_a_small_alpha_is_certified(self):
        # the solver returns w_0 = 3.6e-11: support_ok is false, margin/q = -3.7e-11, and d_alpha_z at the
        # returned weights lies 6e-11 above the reported value
        rho, p = random_density(3, 1, seed=0), AlphaZ(0.3, 0.8)
        sol = minimize_incoherent(rho, p)
        assert sol.certificate.verdict == "certified-optimal"
        assert abs(d_alpha_z(rho, sol.sigma, p) - sol.value) <= 1e-12 * max(1.0, abs(sol.value))


class TestMinimizeMC:
    def test_non_mc_state_rejected_with_one_message(self):
        # the certificate and both solvers share one maximal-correlation check
        rho = random_density(9, 9, seed=7, dims=(3, 3))
        p = AlphaZ(2.0, 2.0)
        messages = []
        for call in (
            lambda: certify_optimizer(rho, rho, p, free_set="mc-diagonal"),
            lambda: minimize_mc(rho, p, opts=FAST),
            lambda: minimize_conditional_mc(rho, p, opts=FAST),
        ):
            with pytest.raises(ValueError, match="rho is not maximally correlated") as exc:
                call()
            messages.append(str(exc.value))
        assert messages == [messages[0]] * 3

    def test_bell_state_relative_entropy(self):
        rho = build(PureBipartite((0.5, 0.5)))
        sol = minimize_mc(rho, AlphaZ(1.0, 1.0), opts=FAST)
        assert abs(sol.value - 1.0) <= 1e-9
        assert np.allclose(sol.weights, [0.5, 0.5], atol=1e-6)
        assert sol.certificate.verdict == "certified-optimal"

    def test_mcbd_closed_form(self):
        fam = MCBD((0.5, 0.3, 0.2))
        p = AlphaZ(2.0, 2.0)
        sol = minimize_mc(build(fam), p, opts=FAST)
        assert abs(sol.value - closed_form_value(fam, p)) <= 1e-7

    def test_pure_state_beta_three(self):
        p = AlphaZ(0.6, 0.6)  # beta = 0.6 / 0.2 = 3
        rho = build(PureBipartite((0.9, 0.1)))
        sol = minimize_mc(rho, p, opts=FAST)
        assert abs(sol.value - renyi_entropy((0.9, 0.1), 3.0)) <= 1e-7

    def test_solver_matches_certificate_value(self):
        p = AlphaZ(1.5, 1.0)
        rho = random_mc_state(3, 60)
        sol = minimize_mc(rho, p, opts=FAST)
        assert sol.certificate.verdict in ("certified-optimal", "inconclusive")
        certified = d_alpha_z(rho, sol.sigma, p)
        assert abs(sol.value - certified) <= 1e-6

    def test_rejects_non_mc(self):
        with pytest.raises(ValueError):
            minimize_mc(random_density(4, 4, 0, dims=(2, 2)), AlphaZ(1.0, 1.0))


class TestConditionalEntropy:
    def test_bell_state_value(self):
        rho = build(PureBipartite((0.5, 0.5)))
        h = conditional_entropy_mc(rho, AlphaZ(1.0, 1.0), opts=FAST)
        assert abs(h + 1.0) <= 1e-9

    def test_point_mass_mcbd(self):
        rho = build(MCBD((1.0, 0.0, 0.0)))
        h = conditional_entropy_mc(rho, AlphaZ(1.0, 1.0), opts=FAST)
        assert abs(h + math.log2(3)) <= 1e-7

    @pytest.mark.parametrize("seed", [70, 71])
    def test_identity_with_minimize_mc(self, seed):
        rho = random_mc_state(2, seed)
        p = AlphaZ(2.0, 2.0)
        sol = minimize_mc(rho, p, opts=FAST)
        h = conditional_entropy_mc(rho, p, opts=FAST)
        assert abs(sol.value + h) <= 1e-6

    def test_pure_state_duality_with_marginal_entropy(self):
        from renyi_ent import beta_dual

        p = AlphaZ(1.5, 1.5)
        weights = (0.7, 0.2, 0.1)
        rho = build(PureBipartite(weights))
        h = conditional_entropy_mc(rho, p, opts=FAST)
        assert abs(h + renyi_entropy(weights, beta_dual(p))) <= 1e-6


class TestObjectiveConsistency:
    @pytest.mark.parametrize("a,z", [(0.7, 0.9), (1.0, 1.0), (2.0, 2.0)])
    def test_batched_objective_matches_d_alpha_z(self, a, z):
        from renyi_ent.minimizers import _diag_objective

        p = AlphaZ(a, z)
        rho = full_rank_state(3, 80)
        f = _diag_objective(rho.entries, p)
        rng = np.random.default_rng(81)
        samples = rng.dirichlet(np.ones(3), size=5)
        batched, _ = f(samples)
        for row, expect in zip(samples, batched):
            direct = d_alpha_z(rho, density(np.diag(row), (3,)), p)
            assert abs(direct - expect) <= 1e-10

    @pytest.mark.parametrize("eps", [5e-11, 1e-6])
    @pytest.mark.parametrize("a,z", [(2.0, 2.0), (1.0, 1.0), (1.5, 1.0), (0.5, 0.5)])
    def test_zero_weight_support_rule_matches_d_alpha_z(self, a, z, eps):
        # rho_22 = eps on the zero weight: within the support cut of lambda_max(rho) ~ 0.72 at 5e-11, so
        # rho << diag(w) and D is finite; beyond it at 1e-6, so D = inf for alpha >= 1
        from renyi_ent.minimizers import _diag_objective

        p = AlphaZ(a, z)
        rho = density(np.array([[0.6, 0.2, 0.0], [0.2, 0.4 - eps, 0.0], [0.0, 0.0, eps]]), (3,))
        w = np.array([0.5, 0.5, 0.0])
        value = float(_diag_objective(rho.entries, p)(w[None, :])[0][0])
        direct = d_alpha_z(rho, density(np.diag(w), (3,)), p)
        assert math.isfinite(value) == math.isfinite(direct)
        assert math.isfinite(direct) == (a < 1.0 or eps < 1e-10)
        if math.isfinite(direct):
            assert abs(value - direct) <= 1e-12


GRADIENT_POINTS = [(0.7, 0.7), (1.0, 1.0), (1.5, 1.2), (2.0, 2.0), (0.5, 1.0), (3.0, 2.5)]


class TestExactGradient:
    @pytest.mark.parametrize("reps", [1, 2])
    @pytest.mark.parametrize("a,z", GRADIENT_POINTS)
    def test_matches_central_differences(self, a, z, reps):
        rho = full_rank_state(4, 82 + reps)
        dim = 4 // reps
        f = tiled_objective(rho.entries, AlphaZ(a, z), reps)
        rng = np.random.default_rng(83)
        # interior rows, every weight >= 0.05
        rows = 0.8 * rng.dirichlet(np.ones(dim), size=3) + 0.2 / dim
        values, grads = f(rows)
        h = 1e-6
        for row, value, grad in zip(rows, values, grads):
            shifts = h * np.eye(dim)
            plus, _ = f(row + shifts)
            minus, _ = f(row - shifts)
            central = (plus - minus) / (2.0 * h)
            assert np.max(np.abs(grad - central)) <= 1e-8 * max(1.0, np.max(np.abs(grad)))
            # a divergence against diag(w) shifts by -log2 c under w -> c w
            assert abs(float(row @ grad) + 1.0 / math.log(2.0)) <= 1e-12


class TestSolverStepIsCertificateRatio:
    """The solver's step ratio r = -ln2 * grad is the certificate's diag Xi(rho, diag w) / Q."""

    @pytest.mark.parametrize("d,seed", [(3, 84), (3, 85), (4, 86), (4, 87)])
    @pytest.mark.parametrize("a,z", [(0.5, 0.5), (0.7, 0.7), (1.0, 1.0), (1.5, 1.2), (2.0, 2.0), (3.0, 2.5)])
    def test_ratio_matches_xi_over_q(self, d, seed, a, z):
        from renyi_ent.minimizers import _diag_objective

        p = AlphaZ(a, z)
        rho = random_density(d, d, seed)
        f = _diag_objective(rho.entries, p)
        # an interior point, every weight >= 0.05
        w = 0.8 * np.random.default_rng(seed).dirichlet(np.ones(d)) + 0.2 / d
        _, grads = f(w[None, :])
        r = -math.log(2.0) * grads[0]
        tau = density(np.diag(w), (d,))
        q = 1.0 if p.on_umegaki_line else q_alpha_z(rho, tau, p)
        ratio = np.real(np.diag(xi_matrix(xi(rho, tau, p)).entries)) / q
        assert np.all(np.abs(r - ratio) <= 1e-12 * np.abs(ratio))


MARGIN_POINTS = [
    (0.5, 1.0), (0.6, 0.6), (0.7, 0.9), (1.5, 0.75), (1.5, 1.2), (1.5, 1.5),
    (2.0, 1.0), (2.0, 2.0), (3.0, 2.0), (3.0, 3.0), (5.0, 4.5),
]


class TestSolverMarginsAndCost:
    @pytest.mark.parametrize("a,z", MARGIN_POINTS)
    def test_certified_well_inside_band_at_bounded_cost(self, a, z, monkeypatch):
        calls = []
        originals = {name: getattr(np.linalg, name) for name in ("eigh", "eigvalsh")}

        def counted(name):
            def wrapper(m, *args, **kwargs):
                calls.append(np.ndim(m))
                return originals[name](m, *args, **kwargs)

            return wrapper

        for name in originals:
            monkeypatch.setattr(np.linalg, name, counted(name))
        p = AlphaZ(a, z)
        for seed in range(100, 106):
            calls.clear()
            sol = minimize_incoherent(full_rank_state(4, seed), p)
            cert = sol.certificate
            assert cert.verdict == "certified-optimal", (seed, cert.margin / cert.tol_cert)
            assert cert.margin >= -0.1 * cert.tol_cert, (seed, cert.margin / cert.tol_cert)
            assert sol.stop_reason == "stationary"
            # the starts run in lockstep, one batched eigh per step: the
            # start points, the longest run's accepted steps and at most one
            # rejected trial; starts run one after another would pay the sum
            assert calls.count(3) <= max(sol.iterations) + 2
            # the rest belongs to the objective setup and the certificate
            assert len(calls) - calls.count(3) <= 8
            assert max(sol.iterations) <= 100


class TestSolverOptions:
    @pytest.mark.parametrize("value", [0, -3])
    def test_empty_search_rejected(self, value):
        with pytest.raises(ValueError, match="starts"):
            SolverOptions(starts=value)

    def test_counters_per_start(self):
        rho = full_rank_state(3, 84)
        sol = minimize_incoherent(rho, AlphaZ(2.0, 2.0), opts=SolverOptions(starts=3))
        assert len(sol.iterations) == len(sol.per_start) == 3
        assert all(it >= 1 for it in sol.iterations)
        assert sol.stop_reason == "stationary"

    def test_max_iters_reported(self, monkeypatch):
        monkeypatch.setattr(minimizers, "MAX_ITERS", 1)
        rho = full_rank_state(3, 84)
        sol = minimize_incoherent(rho, AlphaZ(2.0, 2.0), opts=SolverOptions(starts=2))
        assert sol.iterations == (1, 1)
        assert sol.stop_reason == "max-iters"


def assert_same_runs(lockstep, serial):
    """Per start: equal steps and stop reasons, values within 1e-13 relative; the same best start."""
    assert lockstep.iterations == serial.iterations
    assert lockstep.stop_reasons == serial.stop_reasons
    assert lockstep.stop_reason == serial.stop_reason
    assert np.allclose(lockstep.per_start, serial.per_start, rtol=1e-13, atol=0.0)
    assert np.isclose(lockstep.value, serial.value, rtol=1e-13, atol=0.0)


@pytest.fixture
def solves(monkeypatch):
    """Every minimize_simplex call made while the test runs, as (lockstep run, serial oracle run)."""
    pairs = []
    original = minimizers.minimize_simplex

    def both(problem, opts=None, warm=None):
        run = original(problem, opts, warm)
        pairs.append((run, simplex_serial(problem, opts, warm)))
        return run

    monkeypatch.setattr(minimizers, "minimize_simplex", both)
    return pairs


class TestLockstepMatchesSerial:
    """The lockstep starts follow the iterates of the one-start-at-a-time solve."""

    @pytest.mark.parametrize("a,z", MARGIN_POINTS)
    def test_incoherent(self, a, z, solves):
        for seed in (100, 101):
            minimize_incoherent(full_rank_state(4, seed), AlphaZ(a, z))
        assert len(solves) == 2
        for pair in solves:
            assert_same_runs(*pair)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("a,z", [(0.5, 0.5), (0.7, 0.9), (1.0, 1.0), (1.5, 1.2), (2.0, 2.0), (3.0, 2.0)])
    def test_mc_and_conditional(self, d, a, z, solves):
        rho = random_mc_state(d, 90 + d)
        minimize_mc(rho, AlphaZ(a, z))
        minimize_conditional_mc(rho, AlphaZ(a, z))
        assert len(solves) == 2
        for pair in solves:
            assert_same_runs(*pair)

    def test_single_start_and_max_iters(self, solves, monkeypatch):
        rho = full_rank_state(3, 84)
        minimize_incoherent(rho, AlphaZ(2.0, 2.0), opts=SolverOptions(starts=1))
        monkeypatch.setattr(minimizers, "MAX_ITERS", 1)
        minimize_incoherent(rho, AlphaZ(2.0, 2.0))
        minimize_mc(random_mc_state(3, 93), AlphaZ(0.7, 0.9))
        assert [len(run.iterations) for run, _ in solves] == [1, 8, 8]
        assert set(solves[1][0].stop_reasons) == {"max-iters"}
        for pair in solves:
            assert_same_runs(*pair)

    def test_rejected_trials_halve_and_reset_theta(self):
        # undamped at alpha = 3 the map overshoots: rejected trials halve
        # theta, and each accepted step resets it
        from renyi_ent.minimizers import _diag_objective

        rho = full_rank_state(4, 100)
        rows = []
        f = _diag_objective(rho.entries, AlphaZ(3.0, 3.0))

        def counted(S):
            rows.append(S.shape[0])
            return f(S)

        problem = minimizers.SimplexProblem(counted, 4, 1.0)
        run = minimizers.minimize_simplex(problem, SolverOptions(), np.real(np.diag(rho.entries)))
        # rows evaluated beyond the start points and the accepted steps
        assert sum(rows) - len(run.iterations) - sum(run.iterations) >= 100
        assert_same_runs(run, simplex_serial(problem, SolverOptions(), np.real(np.diag(rho.entries))))

        # a map that only climbs: every trial is rejected until theta < _MIN_THETA
        c = np.arange(3.0)

        def climbing(S):
            values = S @ c
            return values, -(c / values[:, None]) / math.log(2.0)

        problem = minimizers.SimplexProblem(climbing, 3)
        run = minimizers.minimize_simplex(problem, SolverOptions(starts=3))
        assert run.stop_reasons == ("no-descent",) * 3 and run.iterations == (0, 0, 0)
        assert_same_runs(run, simplex_serial(problem, SolverOptions(starts=3)))

    def test_non_finite_start_falls_back_to_uniform(self):
        from renyi_ent.minimizers import _diag_objective

        # alpha > 1: a zero weight under rho-mass makes the start's value infinite
        rho = full_rank_state(3, 85)
        p = AlphaZ(2.0, 2.0)
        f = _diag_objective(rho.entries, p)
        problem = minimizers.SimplexProblem(f, 3, 0.5)
        warm = np.array([0.0, 0.5, 0.5])
        assert not np.isfinite(f(warm[None, :])[0][0])
        run = minimizers.minimize_simplex(problem, SolverOptions(starts=3), warm)
        serial = simplex_serial(problem, SolverOptions(starts=3), warm)
        assert_same_runs(run, serial)
        assert run.iterations[0] >= 1 and run.stop_reasons[0] == "stationary"
        # from the uniform point the first start reaches the others' optimum
        assert abs(run.per_start[0] - run.value) <= 1e-12 * abs(run.value)

    def test_nowhere_finite_gives_uniform_no_descent(self):
        def f(S):
            return np.full(S.shape[0], math.inf), np.zeros_like(S)

        problem = minimizers.SimplexProblem(f, 3)
        run = minimizers.minimize_simplex(problem, SolverOptions(starts=2), np.array([1.0, 0.0, 0.0]))
        assert_same_runs(run, simplex_serial(problem, SolverOptions(starts=2), np.array([1.0, 0.0, 0.0])))
        assert run.iterations == (0, 0) and run.stop_reasons == ("no-descent", "no-descent")
        assert run.stop_reason == "no-descent" and run.value == math.inf
        assert np.array_equal(run.weights, np.full(3, 1.0 / 3.0))
