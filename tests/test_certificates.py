import math

import numpy as np
import pytest

from renyi_ent import (
    GHZ,
    AlphaZ,
    AntisymPair,
    BellDiagonal,
    Dicke,
    Isotropic,
    MCBD,
    PureBipartite,
    Werner,
    ansatz_optimizer,
    build,
    certify_optimizer,
    chi,
    d_alpha_z,
    d_umegaki,
    density,
    eig_hermitian,
    in_support_set,
    marginal_condition_mc,
    matrix_power,
    max_product_overlap,
    product_overlap_grid,
    pure_density,
    q_alpha_z,
    random_density,
    report_from_json,
    report_to_json,
    support_projector,
    xi,
)
from renyi_ent.certificates import commutator_maxnorm
from renyi_ent.divergences import is_dominated, is_orthogonal
from renyi_ent.linalg import support_rank
from oracles import full_rank_state, product_overlap_serial, product_overlap_value, xi_quadrature

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)


class TestChi:
    def test_pure_state_collapses_to_scalar(self):
        p = AlphaZ(2.0, 2.0)
        psi = np.array([0.8, 0.0, 0.0, 0.6])
        rho = pure_density(psi, (2, 2))
        tau = full_rank_state(4, 1, dims=(2, 2))
        out = chi(rho, tau.op, p)
        tpow = matrix_power(tau, (1.0 - p.alpha) / p.z).entries
        scalar = (psi @ tpow @ psi).real ** (p.z - 1.0)
        assert np.max(np.abs(out.entries - scalar * rho.entries)) <= 1e-10

    def test_z_one_gives_rho_power(self):
        p = AlphaZ(1.7, 1.0)
        rho = random_density(3, 3, seed=2)
        tau = full_rank_state(3, 3)
        out = chi(rho, tau.op, p)
        assert np.max(np.abs(out.entries - matrix_power(rho, 1.7).entries)) <= 1e-9

    def test_commuting_trace_identity(self):
        # Tr(chi tau^((1-a)/z)) must equal Q for any pair
        p = AlphaZ(1.5, 1.2)
        rho = density(np.diag([0.6, 0.3, 0.1]), (3,))
        tau = density(np.diag([0.2, 0.5, 0.3]), (3,))
        val = np.trace(chi(rho, tau.op, p).entries @ matrix_power(tau, p.beta).entries).real
        assert abs(val - q_alpha_z(rho, tau.op, p)) <= 1e-12

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            chi(random_density(2, 2, 0), random_density(2, 2, 1).op, AlphaZ(1.0, 1.0))


class TestXi:
    def test_commuting_bell_diagonal(self):
        rho = build(BellDiagonal((0.75, 0.25, 0.0, 0.0)))
        tau = ansatz_optimizer(BellDiagonal((0.75, 0.25, 0.0, 0.0)), AlphaZ(2.0, 2.0))
        ev = xi(rho, tau.op, AlphaZ(2.0, 1.5))
        assert ev.route == "commuting"
        # in the Bell basis: diag(.75^2/.5^2, .25^2/.5^2, 0, 0)
        from renyi_ent.catalog import bell_basis

        basis = np.column_stack(bell_basis())
        diag = np.real(np.diag(basis.conj().T @ ev.xi.entries @ basis))
        assert np.allclose(diag, [2.25, 0.25, 0.0, 0.0], atol=1e-10)

    def test_small_alpha_z_one_approaches_support_projector(self):
        rho = random_density(3, 2, seed=4)
        tau = full_rank_state(3, 5)
        ev = xi(rho, tau.op, AlphaZ(1e-6, 1.0), force_general=True)
        assert np.max(np.abs(ev.xi.entries - support_projector(rho).entries)) <= 1e-3

    def test_route_flags(self):
        rho, tau = full_rank_state(3, 6), full_rank_state(3, 7)
        assert xi(rho, tau.op, AlphaZ(0.4, 0.6)).route == "boundary-line"
        assert xi(rho, tau.op, AlphaZ(3.0, 2.0)).route == "boundary-line"
        assert xi(rho, tau.op, AlphaZ(2.0, 2.0)).route == "divided-difference"
        assert xi(rho, rho.op, AlphaZ(2.0, 2.0)).route == "commuting"
        assert xi(rho, rho.op, AlphaZ(2.0, 2.0), force_general=True).route == "divided-difference"

    def test_commuting_fast_path_matches_general(self):
        # random pair with a common (non-computational) eigenbasis
        rng = np.random.default_rng(3)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        rho = density(u @ np.diag([0.5, 0.3, 0.2]) @ u.conj().T, (3,))
        tau = density(u @ np.diag([0.4, 0.35, 0.25]) @ u.conj().T, (3,))
        for a, z in [(0.5, 1.0), (2.0, 2.0), (1.0, 1.0), (0.9, 0.9)]:
            p = AlphaZ(a, z)
            fast = xi(rho, tau.op, p)
            slow = xi(rho, tau.op, p, force_general=True)
            assert fast.route == "commuting" and slow.route == "divided-difference"
            assert np.max(np.abs(fast.xi.entries - slow.xi.entries)) <= 1e-8

    @pytest.mark.parametrize("a,z", [(0.3, 0.8), (1.0, 1.0), (2.0, 2.0)])
    def test_trace_against_tau_gives_q(self, a, z):
        p = AlphaZ(a, z)
        rho, tau = full_rank_state(4, 8), full_rank_state(4, 9)
        ev = xi(rho, tau.op, p, force_general=True)
        val = float(np.trace(ev.xi.entries @ tau.entries).real)
        expect = 1.0 if p.on_umegaki_line else q_alpha_z(rho, tau.op, p)
        assert abs(val - expect) <= 1e-8
        # same saturation on a commuting pair
        rho_c = density(np.diag([0.5, 0.25, 0.15, 0.1]), (4,))
        tau_c = density(np.diag([0.3, 0.3, 0.2, 0.2]), (4,))
        ev_c = xi(rho_c, tau_c.op, p)
        val_c = float(np.trace(ev_c.xi.entries @ tau_c.entries).real)
        expect_c = 1.0 if p.on_umegaki_line else q_alpha_z(rho_c, tau_c.op, p)
        assert abs(val_c - expect_c) <= 1e-8

    def test_boundary_continuity(self):
        alpha = 0.4
        rho, tau = full_rank_state(3, 10), full_rank_state(3, 11)
        line = xi(rho, tau.op, AlphaZ(alpha, 1.0 - alpha)).xi.entries
        for eps in (1e-6, -1e-6):
            near = xi(rho, tau.op, AlphaZ(alpha, (1.0 - alpha) * (1.0 + eps)), force_general=True)
            assert near.route == "divided-difference"
            assert np.max(np.abs(near.xi.entries - line)) <= 1e-4

    def test_quadrature_spot_check(self):
        p = AlphaZ(1.5, 1.2)
        rho = full_rank_state(4, 12, dims=(2, 2))
        tau = full_rank_state(4, 13, dims=(2, 2))
        ev = xi(rho, tau.op, p, force_general=True)
        oracle = xi_quadrature(rho, tau.op, p)
        assert np.max(np.abs(ev.xi.entries - oracle)) <= 1e-8

    def test_psd_within_tolerance(self):
        for a, z in [(0.5, 1.0), (1.0, 1.0), (2.0, 2.0), (0.5, 0.5)]:
            rho, tau = full_rank_state(3, 14), full_rank_state(3, 15)
            ev = xi(rho, tau.op, AlphaZ(a, z))
            w = np.linalg.eigvalsh(ev.xi.entries)
            assert w[0] >= -1e-10 * max(w[-1], 1.0)

    def test_empty_tau_rejected(self):
        from renyi_ent.linalg import HermitianOperator

        zero = HermitianOperator(np.zeros((2, 2)), (2,))
        with pytest.raises(ValueError):
            xi(random_density(2, 2, 0), zero, AlphaZ(2.0, 2.0))


class TestSupportSet:
    def test_full_rank_tau_always_in(self):
        rho = random_density(4, 2, seed=16)
        tau = full_rank_state(4, 17)
        for a, z in [(0.5, 1.0), (2.0, 2.0), (0.5, 0.5)]:
            assert in_support_set(rho, tau.op, AlphaZ(a, z))

    def test_reverse_line_allows_small_tau(self):
        rho = pure_density(PHI_PLUS, (2, 2))
        tau = density(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
        assert in_support_set(rho, tau.op, AlphaZ(0.5, 0.5))

    def test_rank_deficient_tau_fails_off_line(self):
        rho = full_rank_state(3, 18)
        tau = random_density(3, 1, seed=19)
        assert not in_support_set(rho, tau.op, AlphaZ(2.0, 2.0))


class TestMaxProductOverlap:
    def test_bell_diagonal_closed_form(self):
        rho = build(BellDiagonal((0.55, 0.25, 0.15, 0.05)))
        res = max_product_overlap(rho.op, restarts=16)
        assert abs(res.value - (0.55 + 0.25) / 2) <= 1e-9

    def test_mcbd_value(self):
        rho = build(MCBD((0.6, 0.3, 0.1)))
        res = max_product_overlap(rho.op, restarts=16)
        assert abs(res.value - 1.0 / 3.0) <= 1e-9

    def test_witness_reproduces_value(self):
        op = full_rank_state(4, 20, dims=(2, 2)).op
        res = max_product_overlap(op, restarts=16)
        assert abs(product_overlap_value(op, res.witness) - res.value) <= 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_grid_oracle(self, seed):
        op = random_density(4, 4, seed=1000 + seed, dims=(2, 2)).op
        res = max_product_overlap(op, restarts=64)
        grid = product_overlap_grid(op, steps=400)
        assert abs(res.value - grid.value) <= 1e-5

    def test_monotone_under_restarts(self):
        op = full_rank_state(8, 21, dims=(2, 2, 2)).op
        running = -math.inf
        for r in (1, 4, 16):
            val = max_product_overlap(op, restarts=r).value
            assert val >= running - 1e-12
            running = max(running, val)

    def test_local_unitary_invariance(self):
        op = full_rank_state(4, 22, dims=(2, 2)).op
        rng = np.random.default_rng(23)
        locals_ = []
        for _ in range(2):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, _ = np.linalg.qr(g)
            locals_.append(q)
        u = np.kron(locals_[0], locals_[1])
        from renyi_ent.linalg import wrap

        rotated = wrap(u @ op.entries @ u.conj().T, (2, 2))
        a = max_product_overlap(op, restarts=32).value
        b = max_product_overlap(rotated, restarts=32).value
        assert abs(a - b) <= 1e-8

    def test_single_party_rejected(self):
        with pytest.raises(ValueError):
            max_product_overlap(random_density(4, 4, 0).op)

    def test_grid_needs_qubit_first_party(self):
        with pytest.raises(ValueError):
            product_overlap_grid(random_density(9, 9, 0, dims=(3, 3)).op)

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -3}, {"max_iters": 0}])
    def test_empty_search_rejected(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            max_product_overlap(random_density(4, 4, 0, dims=(2, 2)).op, **kwargs)


def _xi_of(family, p=AlphaZ(1.5, 1.2)):
    return xi(build(family), ansatz_optimizer(family, p), p).xi


BATCH_CASES = {
    "bell-diagonal": lambda: _xi_of(BellDiagonal((0.55, 0.25, 0.15, 0.05))),
    "dicke-3-21": lambda: _xi_of(Dicke(3, (2, 1))),
    "ghz-3-3": lambda: _xi_of(GHZ(3, 3)),
    "isotropic": lambda: _xi_of(Isotropic(0.6, 3)),
    "antisym-3": lambda: _xi_of(AntisymPair(3)),
    "random-3x3": lambda: random_density(9, 9, seed=31, dims=(3, 3)).op,
    "random-2x2x2": lambda: random_density(8, 8, seed=32, dims=(2, 2, 2)).op,
}


class TestBatchedAscent:
    """The lockstep ascent against the one-restart-at-a-time reference."""

    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_matches_serial_reference(self, case):
        op = BATCH_CASES[case]()
        res = max_product_overlap(op, restarts=32, seed=5)
        values, _, _ = product_overlap_serial(op, restarts=32, seed=5)
        assert len(res.restart_values) == len(values)
        for got, want in zip(res.restart_values, values):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert res.value == max(res.restart_values)
        assert abs(product_overlap_value(op, res.witness) - res.value) <= 1e-12

    @pytest.mark.parametrize("case", ["bell-diagonal", "ghz-3-3", "random-3x3", "random-2x2x2"])
    def test_one_eigh_per_party_per_sweep(self, case, monkeypatch):
        op = BATCH_CASES[case]()
        _, sweeps, _ = product_overlap_serial(op, restarts=16)
        calls = []
        original = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        max_product_overlap(op, restarts=16)
        assert len(calls) <= len(op.dims) * max(sweeps)


class TestCertify:
    def test_bell_diagonal_relative_entropy_point(self):
        fam = BellDiagonal((0.75, 0.25, 0.0, 0.0))
        rho = build(fam)
        p = AlphaZ(1.0, 1.0)
        report = certify_optimizer(rho, ansatz_optimizer(fam, p), p, restarts=16)
        assert report.verdict == "certified-optimal"
        assert abs(report.value - 0.18872187554) <= 1e-9

    def test_separable_state_certifies_itself(self):
        fam = Werner(0.7, 3)
        rho = build(fam)
        p = AlphaZ(2.0, 2.0)
        report = certify_optimizer(rho, rho, p, restarts=16)
        assert report.verdict == "certified-optimal"
        assert abs(report.value) <= 1e-9

    def test_maximally_mixed_refuted_for_antisymmetric(self):
        rho = build(Werner(0.0, 3))
        tau = density(np.eye(9) / 9, (3, 3))
        report = certify_optimizer(rho, tau, p=AlphaZ(2.0, 2.0), restarts=16)
        assert report.verdict == "refuted"
        assert report.margin < 0

    @pytest.mark.parametrize(
        "fam",
        [Werner(0.2, 3), BellDiagonal((0.75, 0.25, 0.0, 0.0)), MCBD((0.5, 0.3, 0.2))],
        ids=["werner", "bell-diagonal", "mcbd"],
    )
    def test_perturbed_ansatz_loses_margin(self, fam):
        rho = build(fam)
        p = AlphaZ(2.0, 2.0)
        tau = ansatz_optimizer(fam, p)
        good = certify_optimizer(rho, tau, p, restarts=16)
        d = rho.dim
        # rank-preserving: mix with a state supported inside supp(tau)
        proj = support_projector(tau).entries
        bump = proj @ random_density(d, d, seed=24, dims=rho.dims).entries @ proj
        bump /= np.trace(bump).real
        perturbed = density(0.99 * tau.entries + 0.01 * bump, rho.dims)
        bad = certify_optimizer(rho, perturbed, p, restarts=16)
        assert good.verdict == "certified-optimal"
        assert bad.verdict == "refuted" or bad.margin < good.margin

    def test_incoherent_free_set(self):
        plus = pure_density(np.array([1.0, 1.0]) / np.sqrt(2), (2,))
        tau = density(np.eye(2) / 2, (2,))
        report = certify_optimizer(plus, tau, AlphaZ(1.0, 1.0), free_set="incoherent")
        assert report.verdict == "certified-optimal"
        assert abs(report.value - 1.0) <= 1e-9

    def test_outside_region_rejected(self):
        rho = build(Werner(0.2, 3))
        with pytest.raises(ValueError):
            certify_optimizer(rho, rho, AlphaZ(3.0, 1.0))

    def test_support_violation_with_infinite_q(self):
        rho = full_rank_state(4, 27, dims=(2, 2))
        tau = random_density(4, 1, seed=28, dims=(2, 2))
        report = certify_optimizer(rho, tau, AlphaZ(2.0, 2.0), restarts=8)
        assert not report.support_ok
        assert report.verdict == "refuted"
        assert report.q_value == math.inf
        clone = report_from_json(report_to_json(report))
        assert clone.q_value == math.inf

    def test_report_json_round_trip(self):
        fam = BellDiagonal((0.75, 0.25, 0.0, 0.0))
        rho = build(fam)
        p = AlphaZ(2.0, 2.0)
        report = certify_optimizer(rho, ansatz_optimizer(fam, p), p, restarts=8)
        clone = report_from_json(report_to_json(report))
        assert clone.verdict == report.verdict
        assert abs(clone.lambda_sq - report.lambda_sq) <= 1e-15
        assert all(np.allclose(a, b) for a, b in zip(clone.witness, report.witness))

    def test_ansatz_commutes_for_commuting_families(self):
        p = AlphaZ(2.0, 2.0)
        for fam in (BellDiagonal((0.75, 0.25, 0.0, 0.0)), Werner(0.2, 3), MCBD((0.5, 0.3, 0.2))):
            rho = build(fam)
            tau = ansatz_optimizer(fam, p)
            assert commutator_maxnorm(rho, tau) <= 1e-10


class TestMarginalConditionMC:
    def test_bell_state_uniform_tau(self):
        rho = pure_density(PHI_PLUS, (2, 2))
        tau = density(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
        report = marginal_condition_mc(rho, tau.op, AlphaZ(0.5, 0.5))
        assert report.verdict == "certified-optimal"
        assert abs(report.value - 1.0) <= 1e-9

    def test_schmidt_weighted_tau_certifies(self):
        from renyi_ent import PureBipartite, beta_dual, closed_form_value

        fam = PureBipartite((0.9, 0.1))
        rho = build(fam)
        p = AlphaZ(2.0, 2.0)
        tau = ansatz_optimizer(fam, p)
        report = marginal_condition_mc(rho, tau.op, p)
        assert report.verdict == "certified-optimal"
        assert abs(report.value - closed_form_value(fam, p)) <= 1e-9
        assert abs(beta_dual(p) - 2.0 / 3.0) <= 1e-12

    def test_wrong_diagonal_is_refuted(self):
        from renyi_ent import PureBipartite

        rho = build(PureBipartite((0.9, 0.1)))
        uniform = density(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
        report = marginal_condition_mc(rho, uniform.op, AlphaZ(2.0, 2.0))
        assert report.verdict == "refuted"

    def test_rejects_non_diagonal_tau(self):
        rho = pure_density(PHI_PLUS, (2, 2))
        with pytest.raises(ValueError):
            marginal_condition_mc(rho, rho.op, AlphaZ(2.0, 2.0))

    def test_rejects_non_mc_rho(self):
        rho = random_density(4, 4, seed=25, dims=(2, 2))
        tau = density(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
        with pytest.raises(ValueError):
            marginal_condition_mc(rho, tau.op, AlphaZ(2.0, 2.0))


@pytest.fixture
def decompositions(monkeypatch):
    """Shapes of every np.linalg.eigh / eigvalsh call made while the test runs."""
    shapes = []

    def counted(original):
        def wrapper(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    return shapes


class TestSpectralCache:
    def test_certify_decomposition_budget(self, decompositions):
        family, p = AntisymPair(3), AlphaZ(2.0, 2.0)
        rho, tau = build(family), ansatz_optimizer(family, p)
        full = (rho.dim, rho.dim)
        decompositions.clear()
        report = certify_optimizer(rho, tau, p, restarts=4)
        assert report.verdict == "certified-optimal"
        # rho, tau, the Q core and Xi
        assert decompositions.count(full) <= 4

        decompositions.clear()
        eig_hermitian(rho)
        support_projector(tau)
        support_rank(rho)
        is_dominated(rho, tau)
        is_orthogonal(rho, tau)
        in_support_set(rho, tau, p)
        d_umegaki(rho, tau)
        assert decompositions == []

        # a repeated certification decomposes only its new products
        certify_optimizer(rho, tau, p, restarts=4)
        assert decompositions.count(full) <= 2

    @pytest.mark.parametrize("family", [AntisymPair(2), PureBipartite((0.9, 0.1))])
    @pytest.mark.parametrize("alpha,z", [(0.7, 0.7), (1.0, 1.0), (1.5, 1.2), (2.0, 2.0)])
    def test_report_equals_fresh_evaluation(self, family, alpha, z):
        p = AlphaZ(alpha, z)
        report = certify_optimizer(build(family), ansatz_optimizer(family, p), p, restarts=8)
        assert report.verdict == "certified-optimal"
        rho, tau = build(family), ansatz_optimizer(family, p)
        assert report.value == d_alpha_z(rho, tau, p)
        assert report.q_value == (1.0 if p.on_umegaki_line else q_alpha_z(rho, tau, p))

    @pytest.mark.parametrize(
        "fn",
        [is_orthogonal, is_dominated, in_support_set, q_alpha_z, d_alpha_z, certify_optimizer, support_rank, xi],
    )
    @pytest.mark.parametrize("rel_cut", [0.0, 1.0, -0.5, 2.0])
    def test_rel_cut_outside_unit_interval_rejected(self, fn, rel_cut):
        rho = random_density(4, 4, seed=11, dims=(2, 2))
        tau = random_density(4, 3, seed=12, dims=(2, 2))
        if fn is support_rank:
            args = (rho,)
        elif fn in (is_orthogonal, is_dominated):
            args = (rho, tau)
        else:
            # xi at alpha = 1 takes the divided-difference route, which needs no _power
            args = (rho, tau, AlphaZ(1.0, 1.0) if fn is xi else AlphaZ(1.5, 1.2))
        with pytest.raises(ValueError, match="rel_cut"):
            fn(*args, rel_cut=rel_cut)

