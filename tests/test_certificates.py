import dataclasses
import json
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from renyi_ent import (
    GHZ,
    DensityMatrix,
    HermitianOperator,
    MaximallyCorrelated,
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
    closed_form_value,
    d_alpha_z,
    d_umegaki,
    density,
    eig_hermitian,
    in_support_set,
    max_product_overlap,
    minimize_incoherent,
    minimize_mc,
    pure_density,
    random_density,
    xi,
)
from renyi_ent import certificates
from renyi_ent.certificates import (
    ASCENT_MAX_SWEEPS,
    CertificateReport,
    _alternating_ascent,
    _initial_vectors,
    _local_matrices,
    _phi_divided_difference,
    _xi_divided_difference,
    is_maximally_correlated,
    report_to_dict,
)
from renyi_ent.divergences import LINE_ATOL, is_dominated, is_orthogonal
from renyi_ent.cli import DEFAULT_GRID, DEFAULT_TABLE1_FAMILIES
from renyi_ent.linalg import _joint_spectrum
from oracles import (
    _local_matrix_subscripts,
    as_xi,
    chi,
    commutator_maxnorm,
    factor_matrix,
    full_rank_state,
    initial_vectors_serial,
    lambda_sq_closed_form,
    matrix_power,
    mc_score_lambda,
    phi_reference,
    product_overlap_grid,
    product_overlap_serial,
    product_overlap_value,
    q_alpha_z,
    qubit_top_eigenvalue,
    report_from_json,
    report_to_json,
    support_projector,
    support_rank,
    wrap,
    xi_matrix,
    xi_quadrature,
)

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)


def shared_basis_pair(w_rho, w_tau, seed: int = 3):
    """rho and tau (a HermitianOperator) built from eigenpairs on one random unitary basis of C^n."""
    rng = np.random.default_rng(seed)
    n = len(w_rho)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return DensityMatrix.from_eigenpairs(w_rho, u, (n,)), HermitianOperator.from_eigenpairs(w_tau, u, (n,))


class TestChi:
    def test_pure_state_collapses_to_scalar(self):
        p = AlphaZ(2.0, 2.0)
        psi = np.array([0.8, 0.0, 0.0, 0.6])
        rho = pure_density(psi, (2, 2))
        tau = full_rank_state(4, 1, dims=(2, 2))
        out = chi(rho, tau, p)
        tpow = matrix_power(tau, (1.0 - p.alpha) / p.z).entries
        scalar = (psi @ tpow @ psi).real ** (p.z - 1.0)
        assert np.max(np.abs(out.entries - scalar * rho.entries)) <= 1e-10

    def test_z_one_gives_rho_power(self):
        p = AlphaZ(1.7, 1.0)
        rho = random_density(3, 3, seed=2)
        tau = full_rank_state(3, 3)
        out = chi(rho, tau, p)
        assert np.max(np.abs(out.entries - matrix_power(rho, 1.7).entries)) <= 1e-9

    def test_commuting_trace_identity(self):
        # Tr(chi tau^((1-a)/z)) must equal Q for any pair
        p = AlphaZ(1.5, 1.2)
        rho = density(np.diag([0.6, 0.3, 0.1]), (3,))
        tau = density(np.diag([0.2, 0.5, 0.3]), (3,))
        val = np.trace(chi(rho, tau, p).entries @ matrix_power(tau, p.beta).entries).real
        assert abs(val - q_alpha_z(rho, tau, p)) <= 1e-12

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            chi(random_density(2, 2, 0), random_density(2, 2, 1), AlphaZ(1.0, 1.0))


class TestXi:
    def test_commuting_bell_diagonal(self):
        rho = build(BellDiagonal((0.75, 0.25, 0.0, 0.0)))
        tau = ansatz_optimizer(BellDiagonal((0.75, 0.25, 0.0, 0.0)), AlphaZ(2.0, 2.0))
        ev = xi(rho, tau, AlphaZ(2.0, 1.5))
        assert ev.route == "commuting"
        # in the Bell basis (Phi+, Phi-, Psi+, Psi-): diag(.75^2/.5^2, .25^2/.5^2, 0, 0)
        basis = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]]) / np.sqrt(2)
        diag = np.real(np.diag(basis.conj().T @ xi_matrix(ev).entries @ basis))
        assert np.allclose(diag, [2.25, 0.25, 0.0, 0.0], atol=1e-10)

    def test_small_alpha_z_one_approaches_support_projector(self):
        rho = random_density(3, 2, seed=4)
        tau = full_rank_state(3, 5)
        ev = xi(rho, tau, AlphaZ(1e-6, 1.0))
        assert np.max(np.abs(xi_matrix(ev).entries - support_projector(rho).entries)) <= 1e-3

    def test_route_flags(self):
        rho, tau = full_rank_state(3, 6), full_rank_state(3, 7)
        assert xi(rho, tau, AlphaZ(0.4, 0.6)).route == "boundary-line"
        assert xi(rho, tau, AlphaZ(3.0, 2.0)).route == "boundary-line"
        assert xi(rho, tau, AlphaZ(2.0, 2.0)).route == "divided-difference"
        # a commuting pair counts as one only when built on one basis
        assert xi(rho, rho, AlphaZ(2.0, 2.0)).route == "divided-difference"
        shared, _ = shared_basis_pair([0.5, 0.3, 0.2], [0.4, 0.35, 0.25])
        assert xi(shared, shared, AlphaZ(2.0, 2.0)).route == "commuting"
        assert xi(shared, shared, AlphaZ(3.0, 2.0)).route == "boundary-line"
        assert _xi_divided_difference(shared, shared, AlphaZ(2.0, 2.0)).route == "divided-difference"

    def test_commuting_fast_path_matches_general(self):
        # random pair built on one common (non-computational) eigenbasis
        rho, tau = shared_basis_pair([0.5, 0.3, 0.2], [0.4, 0.35, 0.25])
        for a, z in [(0.5, 1.0), (2.0, 2.0), (1.0, 1.0), (0.9, 0.9)]:
            p = AlphaZ(a, z)
            fast = xi(rho, tau, p)
            slow = _xi_divided_difference(rho, tau, p)
            assert fast.route == "commuting" and slow.route == "divided-difference"
            assert np.max(np.abs(xi_matrix(fast).entries - xi_matrix(slow).entries)) <= 1e-8

    def test_umegaki_route_within_line_tolerance(self):
        # both the sandwich and the kernel follow AlphaZ's Umegaki flag
        rho, tau = random_density(4, 4, 8), random_density(4, 4, 9)
        on_line = xi(rho, tau, AlphaZ(1.0, 1.0))
        near = xi(rho, tau, AlphaZ(1.0 + 5e-13, 1.0))
        assert near.route == on_line.route == "divided-difference"
        assert np.max(np.abs(xi_matrix(near).entries - xi_matrix(on_line).entries)) <= 1e-12

    @pytest.mark.parametrize("c", [1e-9, 1e-11])
    def test_scaled_tau_keeps_its_route(self, c):
        # Xi(rho, c tau) = c^-alpha Xi(rho, tau); a small tau does not make the pair commute
        rho, tau = random_density(4, 4, 8), random_density(4, 4, 9)
        for p in (AlphaZ(2.0, 1.5), AlphaZ(0.7, 0.8), AlphaZ(1.0, 1.0)):
            ref = xi(rho, tau, p)
            scaled = xi(rho, HermitianOperator(c * tau.entries, (4,)), p)
            assert scaled.route == ref.route == "divided-difference"
            err = np.max(np.abs(c**p.alpha * xi_matrix(scaled).entries - xi_matrix(ref).entries))
            assert err <= 1e-12 * np.max(np.abs(xi_matrix(ref).entries))

    def test_commuting_test_is_relative(self):
        w = np.array([0.5, 0.3, 0.2])
        for c in (1e-12, 1.0, 1e8):
            rho, tau = shared_basis_pair(w, c * w)
            assert xi(rho, tau, AlphaZ(2.0, 2.0)).route == "commuting"

    @pytest.mark.parametrize("a,z", [(0.3, 0.8), (1.0, 1.0), (2.0, 2.0)])
    def test_trace_against_tau_gives_q(self, a, z):
        p = AlphaZ(a, z)
        rho, tau = full_rank_state(4, 8), full_rank_state(4, 9)
        ev = xi(rho, tau, p)
        val = float(np.trace(xi_matrix(ev).entries @ tau.entries).real)
        expect = 1.0 if p.on_umegaki_line else q_alpha_z(rho, tau, p)
        assert abs(val - expect) <= 1e-8
        # same saturation on a commuting pair
        rho_c = density(np.diag([0.5, 0.25, 0.15, 0.1]), (4,))
        tau_c = density(np.diag([0.3, 0.3, 0.2, 0.2]), (4,))
        ev_c = xi(rho_c, tau_c, p)
        val_c = float(np.trace(xi_matrix(ev_c).entries @ tau_c.entries).real)
        expect_c = 1.0 if p.on_umegaki_line else q_alpha_z(rho_c, tau_c, p)
        assert abs(val_c - expect_c) <= 1e-8

    def test_boundary_continuity(self):
        alpha = 0.4
        rho, tau = full_rank_state(3, 10), full_rank_state(3, 11)
        line = xi_matrix(xi(rho, tau, AlphaZ(alpha, 1.0 - alpha))).entries
        for eps in (1e-6, -1e-6):
            near = xi(rho, tau, AlphaZ(alpha, (1.0 - alpha) * (1.0 + eps)))
            assert near.route == "divided-difference"
            assert np.max(np.abs(xi_matrix(near).entries - line)) <= 1e-4

    @pytest.mark.parametrize(
        "gap,a,z",
        [(None, 1.5, 1.2)] + [(g, a, z) for g in (2e-12, 1e-11, 1e-9) for a, z in ((2.0, 1.5), (1.0, 1.0), (0.5, 0.8))],
    )
    def test_quadrature_spot_check(self, gap, a, z):
        # with a gap, tau's two largest eigenvalues are moved that far apart, relative to their mean
        p = AlphaZ(a, z)
        rho = full_rank_state(4, 12, dims=(2, 2))
        tau = full_rank_state(4, 13, dims=(2, 2))
        if gap is not None:
            w, v = np.linalg.eigh(tau.entries)
            w[-2:] = w[-2:].mean() * np.array([1.0 - gap / 2, 1.0 + gap / 2])
            tau = density((v * w) @ v.conj().T, (2, 2))
        ev = xi(rho, tau, p)
        oracle = xi_quadrature(rho, tau, p)
        assert np.max(np.abs(xi_matrix(ev).entries - oracle)) <= 1e-8

    @pytest.mark.parametrize("beta", [-1.0, -2.0 / 3.0, 0.0, 0.625, 1.0])
    @pytest.mark.parametrize("gap", [0.0, 2e-12, 1e-11, 1e-9, 1e-7, 1e-3, 0.5])
    def test_kernel_against_a_40_digit_reference(self, gap, beta):
        # one pair at the gap, generic pairs up to a ratio near the support cut, and a kernel eigenvalue
        t = np.array([0.41, 0.41 * (1.0 - gap), 0.13, 3e-9, 0.0])
        phi, ref = _phi_divided_difference(t, beta), phi_reference(t, beta)
        assert np.array_equal(phi, phi.T)
        assert np.array_equal(phi == 0, ref == 0)
        assert np.max(np.abs(phi - ref)[ref > 0] / ref[ref > 0]) <= 1e-14

    def test_psd_within_tolerance(self):
        for a, z in [(0.5, 1.0), (1.0, 1.0), (2.0, 2.0), (0.5, 0.5)]:
            rho, tau = full_rank_state(3, 14), full_rank_state(3, 15)
            ev = xi(rho, tau, AlphaZ(a, z))
            w = np.linalg.eigvalsh(xi_matrix(ev).entries)
            assert w[0] >= -1e-10 * max(w[-1], 1.0)

    def test_non_finite_divided_difference_rejected(self, monkeypatch):
        monkeypatch.setattr(certificates, "_phi_divided_difference", lambda t, p: np.full((t.size, t.size), np.nan))
        rho, tau = full_rank_state(4, 44, dims=(2, 2)), full_rank_state(4, 45, dims=(2, 2))
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            xi(rho, tau, AlphaZ(2.0, 2.0))

    def test_divided_difference_is_a_read_only_hermitian_array(self):
        rho, tau = full_rank_state(4, 44, dims=(2, 2)), full_rank_state(4, 45, dims=(2, 2))
        ev = xi(rho, tau, AlphaZ(2.0, 2.0))
        assert ev.route == "divided-difference" and type(ev.dense) is np.ndarray
        assert ev.dense.dtype == complex and not ev.dense.flags.writeable
        assert np.array_equal(ev.dense, ev.dense.conj().T)

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
            assert in_support_set(rho, tau, AlphaZ(a, z))

    def test_reverse_line_allows_small_tau(self):
        rho = pure_density(PHI_PLUS, (2, 2))
        tau = density(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
        assert in_support_set(rho, tau, AlphaZ(0.5, 0.5))

    def test_rank_deficient_tau_fails_off_line(self):
        rho = full_rank_state(3, 18)
        tau = random_density(3, 1, seed=19)
        assert not in_support_set(rho, tau, AlphaZ(2.0, 2.0))


class TestMaxProductOverlap:
    def test_bell_diagonal_closed_form(self):
        rho = build(BellDiagonal((0.55, 0.25, 0.15, 0.05)))
        res = max_product_overlap(as_xi(rho), restarts=16)
        assert abs(res.value - (0.55 + 0.25) / 2) <= 1e-9

    def test_mcbd_value(self):
        rho = build(MCBD((0.6, 0.3, 0.1)))
        res = max_product_overlap(as_xi(rho), restarts=16)
        assert abs(res.value - 1.0 / 3.0) <= 1e-9

    def test_witness_reproduces_value(self):
        op = full_rank_state(4, 20, dims=(2, 2))
        res = max_product_overlap(as_xi(op), restarts=16)
        assert abs(product_overlap_value(op, res.witness) - res.value) <= 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_agrees_with_grid_oracle(self, seed):
        op = random_density(4, 4, seed=1000 + seed, dims=(2, 2))
        res = max_product_overlap(as_xi(op), restarts=64)
        grid = product_overlap_grid(op, steps=400)
        assert abs(res.value - grid.value) <= 1e-5

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_grid_oracle_qubit_top_matches_eigvalsh(self, scale):
        rng = np.random.default_rng(17)
        m = scale * (rng.standard_normal((4096, 2, 2)) + 1j * rng.standard_normal((4096, 2, 2)))
        m[:8, 1, 0] = 0.0  # diagonal rows
        m[8:16] = m[8:16, :1, :1] * np.eye(2)  # multiples of the identity
        np.einsum("kii->ki", m).imag = 0.0  # a real diagonal; the upper triangle stays as drawn, read by neither
        w = np.linalg.eigvalsh(m)
        radius = np.max(np.abs(w), axis=1)
        assert np.all(np.abs(qubit_top_eigenvalue(m) - w[:, -1]) <= 4 * np.finfo(float).eps * radius)

    def test_monotone_under_restarts(self):
        op = full_rank_state(8, 21, dims=(2, 2, 2))
        running = -math.inf
        for r in (1, 4, 16):
            val = max_product_overlap(as_xi(op), restarts=r).value
            assert val >= running - 1e-12
            running = max(running, val)

    def test_local_unitary_invariance(self):
        op = full_rank_state(4, 22, dims=(2, 2))
        rng = np.random.default_rng(23)
        locals_ = []
        for _ in range(2):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, _ = np.linalg.qr(g)
            locals_.append(q)
        u = np.kron(locals_[0], locals_[1])
        rotated = wrap(u @ op.entries @ u.conj().T, (2, 2))
        a = max_product_overlap(as_xi(op), restarts=32).value
        b = max_product_overlap(as_xi(rotated), restarts=32).value
        assert abs(a - b) <= 1e-8

    def test_single_party_rejected(self):
        with pytest.raises(ValueError):
            max_product_overlap(as_xi(random_density(4, 4, 0)))

    def test_grid_needs_qubit_first_party(self):
        with pytest.raises(ValueError):
            product_overlap_grid(random_density(9, 9, 0, dims=(3, 3)))

    @pytest.mark.parametrize("family", [AntisymPair(3), Dicke(3, (2, 1)), GHZ(3, 3), MCBD((0.5, 0.3, 0.2))], ids=repr)
    @pytest.mark.parametrize("restarts", [1, 2, 64])
    def test_batched_start_draws_match_party_by_party_draws(self, family, restarts):
        p = AlphaZ(2.0, 2.0)
        ev = xi(build(family), ansatz_optimizer(family, p), p)
        for seed in (0, 7):
            got, want = _initial_vectors(ev, restarts, seed), initial_vectors_serial(ev, restarts, seed)
            for g, w in zip(got, want):
                assert g.shape == w.shape == (restarts, w.shape[1])
                for part in ("real", "imag"):  # within 1 ulp, component by component
                    a, b = getattr(g, part), getattr(w, part)
                    assert np.all(np.abs(a - b) <= np.spacing(np.abs(b)))
            # --restarts R starts as the first R rows of any larger run, bit for bit
            full = _initial_vectors(ev, 64, seed)
            assert all(np.array_equal(g, f[:restarts]) for g, f in zip(got, full))

    def test_witness_is_the_lowest_restart_tied_at_rounding_level(self, monkeypatch):
        op = as_xi(random_density(4, 4, seed=5, dims=(2, 2)))
        top = 0.75
        # restart 2 is the maximum; restarts 1 and 3 lie a few ulps below it, restart 0 well below
        values = np.array([top - 1e-9, top - 3 * np.spacing(top), top, top - np.spacing(top)])
        sweeps = np.arange(1, 5)

        def ascent(local, vecs):
            return values.copy(), sweeps.copy()

        monkeypatch.setattr(certificates, "_alternating_ascent", ascent)
        start = _initial_vectors(op, 4, 0)
        res = max_product_overlap(op, restarts=4)
        assert res.value == top  # lambda_sq stays the maximum
        assert all(np.array_equal(w, v[1]) for w, v in zip(res.witness, start))
        values[1] = top - 1e-9  # out of the band: restart 2 (the maximum) before restart 3
        res = max_product_overlap(op, restarts=4)
        assert all(np.array_equal(w, v[2]) for w, v in zip(res.witness, start))

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -3}])
    def test_empty_search_rejected(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            max_product_overlap(as_xi(random_density(4, 4, 0, dims=(2, 2))), **kwargs)

    def test_restart_0_ignores_a_cached_spectrum(self):
        given = build(AntisymPair(3))  # from its spectrum
        fresh, decomposed = (HermitianOperator(given.entries, given.dims) for _ in range(2))
        eig_hermitian(decomposed)
        want = lambda_sq_closed_form(AntisymPair(3))
        values = {max_product_overlap(as_xi(op), restarts=1).value for op in (given, fresh, decomposed)}
        assert len(values) == 1 and abs(values.pop() - want) <= 1e-12 * want

    @pytest.mark.parametrize("a,z", DEFAULT_GRID)
    @pytest.mark.parametrize("family", [Dicke(3, (2, 1)), Dicke(4, (2, 1, 1)), Dicke(6, (3, 3))], ids=repr)
    def test_one_restart_reaches_the_maximum_on_dicke_states(self, family, a, z):
        # Xi's top eigenvector is the entangled Dicke vector: a start aligned with it would stop 25-84 % low
        p = AlphaZ(a, z)
        ev = xi(build(family), ansatz_optimizer(family, p), p)
        want = max_product_overlap(ev).value
        assert abs(max_product_overlap(ev, restarts=1).value - want) <= 1e-7 * want


def _xi_of(family, p=AlphaZ(1.5, 1.2)):
    return xi_matrix(xi(build(family), ansatz_optimizer(family, p), p))


BATCH_CASES = {
    "bell-diagonal": lambda: _xi_of(BellDiagonal((0.55, 0.25, 0.15, 0.05))),
    "dicke-3-21": lambda: _xi_of(Dicke(3, (2, 1))),
    "ghz-3-3": lambda: _xi_of(GHZ(3, 3)),
    "isotropic": lambda: _xi_of(Isotropic(0.6, 3)),
    "antisym-3": lambda: _xi_of(AntisymPair(3)),
    "random-3x3": lambda: random_density(9, 9, seed=31, dims=(3, 3)),
    "random-2x2x2": lambda: random_density(8, 8, seed=32, dims=(2, 2, 2)),
}


class TestBatchedAscent:
    """The lockstep ascent against the one-restart-at-a-time reference."""

    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_matches_serial_reference(self, case):
        op = BATCH_CASES[case]()
        res = max_product_overlap(as_xi(op), restarts=32, seed=5)
        values, sweeps, _ = product_overlap_serial(op, restarts=32, seed=5)
        assert len(res.restart_values) == len(values)
        assert res.restart_sweeps == tuple(sweeps)
        for got, want in zip(res.restart_values, values):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert res.value == max(res.restart_values)
        assert abs(product_overlap_value(op, res.witness) - res.value) <= 1e-12

    @pytest.mark.parametrize("case", ["bell-diagonal", "ghz-3-3", "random-3x3", "random-2x2x2"])
    def test_eigensolver_calls_per_sweep(self, case, monkeypatch):
        op = BATCH_CASES[case]()
        _, sweeps, _ = product_overlap_serial(op, restarts=16)
        ev = as_xi(op)
        calls = {"eigh": [], "eigvalsh": []}
        for name, shapes in calls.items():
            def counted(a, *args, _original=getattr(np.linalg, name), _shapes=shapes, **kwargs):
                _shapes.append(np.shape(a))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        max_product_overlap(ev, restarts=16)
        assert calls["eigh"] == []
        assert len(calls["eigvalsh"]) <= sum(d >= 3 for d in op.dims) * max(sweeps)


class TestTopEigenpairs:
    """The party update: a closed form for a qubit, else eigvalsh and one shifted solve, with an eigh fallback."""

    @staticmethod
    def eigh_top(m):
        w, u = np.linalg.eigh(m)
        return w[:, -1], u[:, :, -1]

    @staticmethod
    def phase_free_gap(x, u):
        """1 - |<x_i|u_i>| per row: 0 for the same unit vector up to phase."""
        return 1.0 - np.abs(np.einsum("ij,ij->i", x.conj(), u))

    def test_orthogonal_start_takes_the_fallback(self, monkeypatch):
        # row 0 starts orthogonal to the top eigenvector e_0, so its solve never leaves e_0's complement;
        # row 1 has a component on e_0 and keeps its solve
        m = np.array([np.diag([3.0, 2.0, 1.0])] * 2, dtype=complex)
        v = np.array([[0.0, 0.6, 0.8], [0.6, 0.0, 0.8]], dtype=complex)
        want_w, want_u = self.eigh_top(m)
        rows, original = [], np.linalg.eigh

        def spy(a, *args, **kwargs):
            rows.append(len(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        lam, x = certificates._top_eigenpairs(m.copy(), v)
        assert rows == [1]
        assert np.array_equal(lam, want_w)
        assert np.all(self.phase_free_gap(x, want_u) <= 1e-15)

    def test_singular_batch_solve_falls_back(self, monkeypatch):
        m = random_density(4, 4, seed=11, dims=(4,)).entries[None].repeat(3, axis=0)
        v = np.ones((3, 4), dtype=complex) / 2
        want_w, want_u = self.eigh_top(m)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        lam, x = certificates._top_eigenpairs(m.copy(), v)
        assert np.array_equal(lam, np.linalg.eigvalsh(m)[:, -1])
        assert np.all(self.phase_free_gap(x, want_u) <= 1e-14)

    def test_near_tie_matches_eigh(self):
        # relative gap 1e-10: any unit vector of the top pair's span is a top eigenvector to that accuracy,
        # and eigh's own column moves by ~eps / gap = 1e-6 under rounding, so the vector is compared by
        # its residual and by its weight outside that span
        rng = np.random.default_rng(7)
        q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        m = ((q * [0.2, 0.5, 1.0 - 1e-10, 1.0]) @ q.conj().T)[None]
        v = (rng.standard_normal(4) + 1j * rng.standard_normal(4))[None]
        w, u = np.linalg.eigh(m[0])
        lam, x = certificates._top_eigenpairs(m.copy(), v / np.linalg.norm(v))
        assert abs(lam[0] - w[-1]) <= 1e-15
        assert abs(np.linalg.norm(x[0]) - 1.0) <= 1e-15
        assert np.linalg.norm(m[0] @ x[0] - w[-1] * x[0]) <= 1e-12
        assert np.linalg.norm(u[:, :2].conj().T @ x[0]) <= 1e-12

    @pytest.mark.parametrize("case", ["random", "diagonal", "a<d,b=0", "imaginary-b"])
    def test_qubit_closed_form_matches_eigh(self, case, monkeypatch):
        g = np.random.default_rng(3).standard_normal((50, 2, 2, 2)) @ [1.0, 1j]
        m = {
            "random": g + g.conj().swapaxes(1, 2),
            "diagonal": np.array([np.diag([2.0, -1.0]), np.diag([0.5, 0.25])], dtype=complex),
            "a<d,b=0": np.array([np.diag([-1.0, 2.0]), np.diag([0.25, 0.5])], dtype=complex),
            "imaginary-b": np.array([[[1.0, 2j], [-2j, 1.0]], [[3.0, -0.5j], [0.5j, -1.0]]]),
        }[case]
        want_w, want_u = self.eigh_top(m)
        v = np.ones((len(m), 2), dtype=complex) / np.sqrt(2)
        for name in ("eigh", "eigvalsh", "solve"):
            monkeypatch.setattr(np.linalg, name, None)  # no LAPACK call
        lam, x = certificates._top_eigenpairs(m.copy(), v)
        assert np.all(np.abs(lam - want_w) <= 4e-15 * np.abs(m).max(axis=(1, 2)))
        assert np.all(self.phase_free_gap(x, want_u) <= 1e-15)

    def test_qubit_multiple_of_the_identity_keeps_the_start(self):
        m = np.array([2.5 * np.eye(2), np.zeros((2, 2))], dtype=complex)
        v = np.array([[0.6, 0.8j], [1.0, 0.0]])
        lam, x = certificates._top_eigenpairs(m.copy(), v)
        assert np.array_equal(lam, [2.5, 0.0]) and np.array_equal(x, v)


class TestLocalMatrices:
    """``_local_matrices``, the one dense contraction, against the einsum oracle for every party: a dense Xi,
    and a dense factor F of Xi = F F† with r < n and with r = n, equal party dims or not."""

    @pytest.mark.parametrize("dims", [(3, 3), (2, 3, 4), (4, 3, 2), (2, 2, 2, 2)], ids=str)
    @pytest.mark.parametrize("operand", ["xi", "factor r < n", "factor r = n"])
    def test_every_party_matches_einsum(self, monkeypatch, dims, operand):
        monkeypatch.setattr(certificates, "_CHUNK_BYTES", 1 << 10)  # at most 5 restarts a chunk here
        n, rows = math.prod(dims), 64
        rng = np.random.default_rng(7)
        shape = (n, n // 2 if operand == "factor r < n" else n)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m = a + a.conj().T if operand == "xi" else a
        tensor = (m if operand == "xi" else a @ a.conj().T).reshape(dims + dims)
        vecs = [rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d)) for d in dims]
        subs = _local_matrix_subscripts(len(dims))
        for k in range(len(dims)):
            got = _local_matrices(m, dims, k, vecs, factor=operand != "xi")
            others = [[x for j, v in enumerate(vecs) if j != k for x in (v[r].conj(), v[r])] for r in range(rows)]
            want = np.array([np.einsum(subs[k], tensor, *ops) for ops in others])
            scale = np.max(np.abs(want), axis=(1, 2))
            assert np.all(np.max(np.abs(got - want), axis=(1, 2)) <= 1e-13 * scale)


TABLE1_SHARED = [f for f in DEFAULT_TABLE1_FAMILIES if not isinstance(f, PureBipartite)]


class TestFactoredXi:
    """The product routes hand over Xi as its factor F, Xi = F F†, and the ascent contracts F."""

    @staticmethod
    def assert_matches_dense(ev, seed=2):
        """Both ascents run from one set of start vectors."""
        assert ev.factor is not None and ev.factor.shape[1] <= ev.factor.shape[0]
        start = _initial_vectors(ev, 64, seed)
        fast = _alternating_ascent(ev.local_matrices, [v.copy() for v in start])
        dense = _alternating_ascent(partial(_local_matrices, xi_matrix(ev).entries, ev.dims), [v.copy() for v in start])
        assert np.all(np.abs(fast[0] - dense[0]) <= 1e-13 * np.abs(dense[0]))
        assert np.array_equal(fast[1], dense[1])

    @pytest.mark.parametrize("family", TABLE1_SHARED + [AntisymPair(3), AntisymPair(4)], ids=repr)
    def test_shared_basis_ascent_matches_dense(self, family):
        grid = [(2.0, 2.0)] if isinstance(family, AntisymPair) else DEFAULT_GRID
        for a, z in grid:
            p = AlphaZ(a, z)
            ev = xi(build(family), ansatz_optimizer(family, p), p)
            assert ev.route in ("commuting", "boundary-line")
            self.assert_matches_dense(ev)

    @pytest.mark.parametrize("alpha,z", [(0.4, 0.6), (3.0, 2.0)])
    def test_general_boundary_line_ascent_matches_dense(self, alpha, z):
        rho, tau = full_rank_state(9, 40, dims=(3, 3)), full_rank_state(9, 41, dims=(3, 3))
        ev = xi(rho, tau, AlphaZ(alpha, z))
        assert ev.route == "boundary-line"
        self.assert_matches_dense(ev)

    def test_divided_difference_route_stays_dense(self):
        rho, tau = full_rank_state(4, 42, dims=(2, 2)), full_rank_state(4, 43, dims=(2, 2))
        ev = xi(rho, tau, AlphaZ(2.0, 2.0))
        assert ev.route == "divided-difference" and ev.factor is None
        dense = max_product_overlap(as_xi(xi_matrix(ev)), restarts=8)
        assert max_product_overlap(ev, restarts=8).restart_values == dense.restart_values

    def test_the_ascent_keeps_no_copy_of_a_dense_factor(self):
        # a full-rank 625 x 625 F of 6 MiB: every party's contraction reads F's own buffer
        rho, tau = (random_density(625, 625, seed, dims=(25, 25)) for seed in (11, 12))
        ev = xi(rho, tau, AlphaZ(0.5, 0.5))
        f = ev.factor
        assert ev.route == "boundary-line" and isinstance(f, np.ndarray) and f.shape == (625, 625)
        tracemalloc.start()
        try:
            max_product_overlap(ev, restarts=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = [a for v in vars(ev).values() for a in (v if isinstance(v, list) else [v])
                if isinstance(a, np.ndarray) and not np.shares_memory(a, f)]
        assert sum(a.nbytes for a in held) < f.nbytes
        assert peak < f.nbytes

    @pytest.mark.parametrize("alpha,z", [(2.0, 2.0), (0.5, 0.5)])
    @pytest.mark.parametrize("shared", ["dense", "sparse", None], ids=["shared-basis", "shared-sparse-basis", "general"])
    def test_disjoint_supports_give_an_empty_factor(self, alpha, z, shared):
        # Xi = 0: a factor with no columns, searched like any other
        w_rho, w_tau = [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]
        if shared == "dense":
            rho, tau = (DensityMatrix.from_eigenpairs(w, np.eye(4), (2, 2)) for w in (w_rho, w_tau))
        elif shared == "sparse":  # the singlet against the symmetric subspace, on one catalog basis
            rho, tau = build(Werner(0.0, 2)), build(Werner(1.0, 2))
        else:
            rho, tau = (density(np.diag(w), (2, 2)) for w in (w_rho, w_tau))
        p = AlphaZ(alpha, z)
        ev = xi(rho, tau, p)
        if ev.factor is not None:
            assert ev.factor.shape == (4, 0)
        report = certify_optimizer(rho, tau, p, restarts=4)
        assert report.verdict == "refuted" and report.lambda_sq == 0.0 and report.restart_hits == 4

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_every_restart_hits_on_antisym_pairs(self, d):
        family, p = AntisymPair(d), AlphaZ(2.0, 2.0)
        rho, tau = build(family), ansatz_optimizer(family, p)
        top = np.linalg.svd(factor_matrix(xi(rho, tau, p)), compute_uv=False)[:2] ** 2
        assert top[1] >= (1.0 - 1e-12) * top[0]  # Xi's top eigenspace is degenerate
        for seed in range(3):
            report = certify_optimizer(rho, tau, p, seed=seed)
            assert report.verdict == "certified-optimal" and report.restart_hits == 64

    def test_no_dense_xi_in_a_shared_basis_certification(self, monkeypatch, dense_shapes):
        family, p = AntisymPair(4), AlphaZ(2.0, 2.0)
        dense_xi = []  # the one route that forms Xi as an n x n array
        monkeypatch.setattr(certificates, "_xi_divided_difference", lambda *args: dense_xi.append(args))
        report = certify_optimizer(build(family), ansatz_optimizer(family, p), p)
        assert report.route == "commuting" and report.verdict == "certified-optimal"
        assert (256, 256) not in dense_shapes and dense_xi == []

    def test_no_eigh_of_party_matrices_in_the_antisym_5_pair(self, monkeypatch):
        family, p = AntisymPair(5), AlphaZ(2.0, 2.0)
        rho, tau = build(family), ansatz_optimizer(family, p)
        shapes, original = [], np.linalg.eigh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        report = certify_optimizer(rho, tau, p)
        assert report.verdict == "certified-optimal" and report.restart_hits == 64
        assert [s for s in shapes if s[1:] == (25, 25)] == []


class TestRestartHits:
    @pytest.mark.parametrize("family", [AntisymPair(3), Isotropic(0.6, 3)], ids=["antisym-3", "isotropic"])
    def test_counts_restarts_in_the_band(self, family):
        p = AlphaZ(2.0, 2.0)
        report = certify_optimizer(build(family), ansatz_optimizer(family, p), p)
        assert report.verdict == "certified-optimal"
        band = 1e-7 * max(1.0, abs(report.lambda_sq))
        want = sum(1 for v in report.restart_values if v >= report.lambda_sq - band)
        assert report.restart_hits == want
        # the certificate does not rest on restart 0 alone
        assert report.restart_hits >= 2
        assert report_from_json(report_to_json(report)).restart_hits == want

    def test_sweeps_per_restart(self):
        family, p = AntisymPair(3), AlphaZ(2.0, 2.0)
        report = certify_optimizer(build(family), ansatz_optimizer(family, p), p)
        assert len(report.restart_sweeps) == 64
        assert all(1 <= n <= ASCENT_MAX_SWEEPS for n in report.restart_sweeps)
        assert report_from_json(report_to_json(report)).restart_sweeps == report.restart_sweeps

    def test_zero_without_a_search(self):
        p = AlphaZ(2.0, 2.0)
        fam = MCBD((0.5, 0.3, 0.2))
        mc = certify_optimizer(build(fam), ansatz_optimizer(fam, p), p, free_set="mc-diagonal")
        rho = random_density(3, 3, seed=4)
        inc = certify_optimizer(rho, density(np.diag(np.real(np.diag(rho.entries))), (3,)), p, free_set="incoherent")
        assert mc.restart_hits == 0 and inc.restart_hits == 0
        assert mc.restart_sweeps == () and inc.restart_sweeps == ()


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
        with pytest.raises(ValueError, match="unknown free set 'ppt'"):
            certify_optimizer(rho, rho, AlphaZ(2.0, 2.0), free_set="ppt")

    def test_inconclusive_between_the_bands(self):
        # move weight eps between two entries of the certified incoherent optimum and
        # bisect eps until the margin lies between -10 and -1 times tol_cert
        p = AlphaZ(2.0, 2.0)
        rho = random_density(3, 3, seed=7)
        w = minimize_incoherent(rho, p).weights

        def report(eps):
            v = w.copy()
            v[0] -= eps
            v[1] += eps
            return certify_optimizer(rho, density(np.diag(v), (3,)), p, free_set="incoherent")

        lo, hi = 0.0, w[0] / 2
        assert report(lo).verdict == "certified-optimal" and report(hi).verdict == "refuted"
        for _ in range(100):
            r = report((lo + hi) / 2)
            ratio = r.margin / r.tol_cert
            if -10.0 < ratio < -1.0:
                break
            lo, hi = ((lo + hi) / 2, hi) if ratio >= -1.0 else (lo, (lo + hi) / 2)
        assert -10.0 < ratio < -1.0
        assert r.verdict == "inconclusive" and r.value is None

    @pytest.mark.parametrize("free_set", ["sep", "incoherent"])
    def test_partition_mismatch_names_both(self, free_set):
        rho = random_density(4, 4, seed=40, dims=(2, 2))
        tau = random_density(4, 4, seed=41)
        with pytest.raises(ValueError, match=r"partition \(2, 2\) but tau has partition \(4,\)"):
            certify_optimizer(rho, tau, AlphaZ(2.0, 2.0), free_set=free_set, restarts=4)

    @pytest.mark.parametrize("point", [(1.0, 1.0), (2.0, 2.0)])
    def test_incoherent_set_refuses_a_tau_that_is_not_incoherent(self, point):
        # rho is not incoherent, so certifying it against itself would certify a state outside the set
        rho = random_density(3, 3, 7)
        with pytest.raises(ValueError, match="not diagonal"):
            certify_optimizer(rho, rho, AlphaZ(*point), free_set="incoherent")

    def test_mc_partition_mismatch_names_both(self):
        rho = build(MCBD((0.5, 0.3, 0.2)))
        tau = density(np.diag(np.linspace(1.0, 2.0, 9)) / 13.5, (9,))
        with pytest.raises(ValueError, match=r"partition \(3, 3\) but tau has partition \(9,\)"):
            certify_optimizer(rho, tau, AlphaZ(2.0, 2.0), free_set="mc-diagonal")

    def test_support_violation_with_infinite_q(self):
        rho = full_rank_state(4, 27, dims=(2, 2))
        tau = random_density(4, 1, seed=28, dims=(2, 2))
        report = certify_optimizer(rho, tau, AlphaZ(2.0, 2.0), restarts=8)
        assert not report.support_ok
        assert report.verdict == "refuted"
        assert report.q_value == report.margin == math.inf
        # strict JSON (inf travels as text), and every field comes back as it was
        clone = report_from_json(json.dumps(report_to_dict(report), allow_nan=False))
        for f in dataclasses.fields(CertificateReport):
            a, b = getattr(clone, f.name), getattr(report, f.name)
            if f.name == "witness":
                assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
            else:
                assert a == b and type(a) is type(b), f.name

    def test_report_json_round_trip(self):
        fam = BellDiagonal((0.75, 0.25, 0.0, 0.0))
        rho = build(fam)
        p = AlphaZ(2.0, 2.0)
        report = certify_optimizer(rho, ansatz_optimizer(fam, p), p, restarts=8)
        assert list(report_to_dict(report)) == [f.name for f in dataclasses.fields(CertificateReport)]
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


class TestSupportRule:
    @pytest.mark.parametrize("theta", [0.0, 1e-9, 1e-7, 1e-6, 1e-3])
    def test_support_set_agrees_with_finite_q(self, theta):
        """Off the line, tau is in S_{alpha,z}(rho) exactly when Q(rho || tau) is finite."""
        tau = density(np.diag([0.25] * 4 + [0.0] * 5), (3, 3))
        psi = np.zeros(9)
        psi[0], psi[8] = math.cos(theta), math.sin(theta)
        rho = pure_density(psi, (3, 3))
        p = AlphaZ(2.0, 2.0)
        assert in_support_set(rho, tau, p) == math.isfinite(q_alpha_z(rho, tau, p))
        assert in_support_set(rho, tau, p) == (theta < 1e-5)


class TestLineOwnership:
    def test_table1_families_near_each_line(self):
        # (alpha, z) within LINE_ATOL / 2 of a line counts as on it, for the
        # closed form and for Xi alike
        from renyi_ent.cli import DEFAULT_TABLE1_FAMILIES

        h = LINE_ATOL / 2
        cases = [((1.0, 1.0), (1.0 + h, 1.0)), ((1.0, 1.0), (1.0 - h, 1.0))]
        for a, z in ((0.4, 0.6), (3.0, 2.0)):
            cases += [((a, z), (a, z + h)), ((a, z), (a, z - h))]
        for fam in DEFAULT_TABLE1_FAMILIES:
            rho = build(fam)
            for line, near in cases:
                p0, p1 = AlphaZ(*line), AlphaZ(*near)
                assert abs(closed_form_value(fam, p1) - closed_form_value(fam, p0)) <= 1e-12, (fam, near)
                tau = ansatz_optimizer(fam, p0)
                x0, x1 = xi_matrix(xi(rho, tau, p0)).entries, xi_matrix(xi(rho, tau, p1)).entries
                assert np.max(np.abs(x1 - x0)) <= 1e-12 * max(1.0, np.max(np.abs(x0))), (fam, near)

    def test_lines_meet_only_on_the_umegaki_line(self):
        p = AlphaZ(1.0, 1e-13)
        assert p.on_umegaki_line and not p.on_reverse_line and not p.on_lower_line
        rho, tau = full_rank_state(3, 6), full_rank_state(3, 7)
        assert xi(rho, tau, p).route == "divided-difference"
        assert in_support_set(rho, tau, p)


class TestMarginalConditionMC:
    MC_POINTS = [
        (0.3, 0.8), (0.4, 0.6), (0.5, 0.5), (0.7, 0.7), (0.9, 0.95),
        (1.0, 1.0), (1.0, 2.5), (1.5, 1.2), (2.0, 2.0), (3.0, 2.0),
    ]

    def test_lambda_matches_score_table(self):
        # d in {2, 3, 4} x 6 seeds x 10 points, both boundary lines and alpha = 1
        # included: Xi's diagonal on |ll> against the scalar score table, at the
        # solver's tau and at a tilted one
        def verdict(report, lam):
            margin = report.q_value - lam
            if not report.support_ok or margin < -10.0 * report.tol_cert:
                return "refuted"
            return "certified-optimal" if margin >= -report.tol_cert else "inconclusive"

        for d in (2, 3, 4):
            idx = np.arange(d) * (d + 1)
            tilt = np.zeros((d * d, d * d))
            tilt[idx, idx] = np.linspace(1.0, 2.0, d)
            for seed in range(6):
                coeff = random_density(d, d, 700 + seed).entries
                rho = build(MaximallyCorrelated(tuple(map(tuple, coeff))))
                for a, z in self.MC_POINTS:
                    p = AlphaZ(a, z)
                    sol = minimize_mc(rho, p)
                    assert sol.certificate.verdict == "certified-optimal", (d, seed, a, z)
                    tilted = tilt @ sol.sigma.entries
                    for tau in (sol.sigma, density(tilted / np.trace(tilted), (d, d))):
                        report = certify_optimizer(rho, tau, p, free_set="mc-diagonal")
                        lam = mc_score_lambda(rho, tau, p)
                        assert abs(report.lambda_sq - lam) <= 1e-12 * abs(lam), (d, seed, a, z)
                        assert report.verdict == verdict(report, lam)

    def test_route_names_the_xi_route(self):
        rho = build(MCBD((0.5, 0.3, 0.2)))
        tau = ansatz_optimizer(MCBD((0.5, 0.3, 0.2)), AlphaZ(2.0, 2.0))
        assert certify_optimizer(rho, tau, AlphaZ(2.0, 2.0), free_set="mc-diagonal").route == "commuting"
        assert certify_optimizer(rho, tau, AlphaZ(3.0, 2.0), free_set="mc-diagonal").route == "boundary-line"

    def test_bell_state_uniform_tau(self):
        rho = pure_density(PHI_PLUS, (2, 2))
        tau = density(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
        report = certify_optimizer(rho, tau, AlphaZ(0.5, 0.5), free_set="mc-diagonal")
        assert report.verdict == "certified-optimal"
        assert abs(report.value - 1.0) <= 1e-9

    def test_schmidt_weighted_tau_certifies(self):
        from renyi_ent import PureBipartite, beta_dual, closed_form_value

        fam = PureBipartite((0.9, 0.1))
        rho = build(fam)
        p = AlphaZ(2.0, 2.0)
        tau = ansatz_optimizer(fam, p)
        report = certify_optimizer(rho, tau, p, free_set="mc-diagonal")
        assert report.verdict == "certified-optimal"
        assert abs(report.value - closed_form_value(fam, p)) <= 1e-9
        assert abs(beta_dual(p) - 2.0 / 3.0) <= 1e-12

    def test_wrong_diagonal_is_refuted(self):
        from renyi_ent import PureBipartite

        rho = build(PureBipartite((0.9, 0.1)))
        uniform = density(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
        report = certify_optimizer(rho, uniform, AlphaZ(2.0, 2.0), free_set="mc-diagonal")
        assert report.verdict == "refuted"

    def test_rejects_non_diagonal_tau(self):
        rho = pure_density(PHI_PLUS, (2, 2))
        with pytest.raises(ValueError):
            certify_optimizer(rho, rho, AlphaZ(2.0, 2.0), free_set="mc-diagonal")

    @pytest.mark.parametrize("free_set", ["mc-diagonal", "incoherent"])
    @pytest.mark.parametrize("scale", [1.0, 1e-9, 1e-11])
    def test_non_diagonal_tau_rejected_at_any_scale(self, scale, free_set):
        # the diagonal test is relative to max|tau|, so rescaling tau never makes it diagonal
        rho = build(MCBD((0.7, 0.3)))
        x = random_density(4, 4, seed=3, dims=(2, 2))
        with pytest.raises(ValueError, match="not diagonal"):
            certify_optimizer(rho, HermitianOperator(scale * x.entries, (2, 2)), AlphaZ(2.0, 2.0), free_set=free_set)

    def test_rejects_non_mc_rho(self):
        rho = random_density(4, 4, seed=25, dims=(2, 2))
        tau = density(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
        with pytest.raises(ValueError):
            certify_optimizer(rho, tau, AlphaZ(2.0, 2.0), free_set="mc-diagonal")
        # a (2, 3) partition has no |ii> basis
        rect = density(np.diag([0.5, 0.0, 0.0, 0.0, 0.5, 0.0]), (2, 3))
        assert not is_maximally_correlated(rect)
        with pytest.raises(ValueError, match="not maximally correlated"):
            certify_optimizer(rect, rect, AlphaZ(2.0, 2.0), free_set="mc-diagonal")


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

    def test_construction_to_certification_budget(self, decompositions):
        # the pair state and its ansatz assemble their spectra from the
        # single-copy Werner states: the Q core is the one full-size decomposition
        family, p = AntisymPair(3), AlphaZ(2.0, 2.0)
        rho, tau = build(family), ansatz_optimizer(family, p)
        report = certify_optimizer(rho, tau, p, restarts=8)
        assert report.verdict == "certified-optimal"
        assert decompositions.count((rho.dim, rho.dim)) <= 1

    @pytest.mark.parametrize("alpha,z", [(2.0, 2.0), (0.7, 0.9)])
    def test_general_route_reads_q_from_chi(self, decompositions, alpha, z):
        # on the divided-difference route log2 Q comes from the eigh of the
        # core that chi decomposes: that eigh is the only full-size decomposition
        p = AlphaZ(alpha, z)
        rho, tau = (random_density(16, 16, seed, dims=(4, 4)) for seed in (1, 2))
        decompositions.clear()
        report = certify_optimizer(rho, tau, p, restarts=8)
        assert report.route == "divided-difference"
        assert decompositions.count((16, 16)) == 1
        assert abs(report.q_value - q_alpha_z(rho, tau, p)) <= 1e-13 * report.q_value

    @pytest.mark.parametrize("alpha,z", [(2.0, 2.0), (0.7, 0.7), (0.4, 0.6)])
    def test_support_tests_build_no_projector(self, monkeypatch, alpha, z):
        import renyi_ent.certificates as certificates
        import renyi_ent.divergences as divergences

        exponents = []
        original = certificates._power

        def recorded(m, p, *rest):
            exponents.append(p)
            return original(m, p, *rest)

        for module in (certificates, divergences):
            monkeypatch.setattr(module, "_power", recorded)
        family, p = AntisymPair(3), AlphaZ(alpha, z)
        rho, tau = build(family), ansatz_optimizer(family, p)
        # built on one basis the pair needs no power at all; rebuilt from its
        # entries it takes the general routes, whose powers must all be nonzero
        assert certify_optimizer(rho, tau, p, restarts=4).support_ok and not exponents
        report = certify_optimizer(*(type(x)(x.entries, x.dims) for x in (rho, tau)), p, restarts=4)
        assert report.support_ok and exponents
        assert 0.0 not in exponents

    def test_reverse_line_reads_q_from_chi(self, monkeypatch):
        # on z = 1 - alpha chi's core is Q's core: a general pair reads log2 Q off the eigh
        # that builds chi, one eigvalsh fewer than with that value dropped
        p = AlphaZ(0.3, 0.7)
        rho, tau = (random_density(16, 16, seed, dims=(4, 4)) for seed in (3, 4))
        calls, original = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *r, **k: calls.append(np.shape(a)) or original(a, *r, **k))
        report = certify_optimizer(rho, tau, p, restarts=8)
        kept, kept_full = len(calls), calls.count((16, 16))
        assert report.route == "boundary-line"
        assert abs(report.q_value - q_alpha_z(rho, tau, p)) <= 1e-12 * report.q_value
        xi_of = certificates.xi
        monkeypatch.setattr(certificates, "xi", lambda *args: dataclasses.replace(xi_of(*args), log2q=None))
        calls.clear()
        dropped = certify_optimizer(rho, tau, p, restarts=8)
        assert len(calls) == kept + 1 and calls.count((16, 16)) == kept_full + 1
        assert dropped.lambda_sq == report.lambda_sq and dropped.verdict == report.verdict

    def test_shared_basis_budget(self, decompositions, monkeypatch):
        # built on one basis, the pair certifies by eigenvalue arithmetic:
        # no full-size decomposition and no matrix power
        import renyi_ent.certificates as certificates
        import renyi_ent.divergences as divergences

        calls = []
        for module, name in ((certificates, "_power"), (divergences, "_power")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        family, p = AntisymPair(3), AlphaZ(2.0, 2.0)
        rho = build(family)
        report = certify_optimizer(rho, ansatz_optimizer(family, p), p)
        assert report.verdict == "certified-optimal" and report.route == "commuting"
        assert (81, 81) not in decompositions
        assert calls == []

        # rebuilt from their entries the operators carry no construction basis,
        # so the pair takes the general route and its matrix powers
        rebuilt = [type(x)(x.entries, x.dims) for x in (rho, ansatz_optimizer(family, p))]
        assert certify_optimizer(*rebuilt, p, restarts=4).route == "divided-difference"
        assert "_power" in calls

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
        [is_orthogonal, is_dominated, in_support_set, q_alpha_z, d_alpha_z, certify_optimizer, xi],
    )
    @pytest.mark.parametrize("rel_cut", [0.0, 1.0, -0.5, 2.0])
    def test_rel_cut_outside_unit_interval_rejected(self, fn, rel_cut):
        """The support cut is a constant: no entry point takes one, not even those that never call _power."""
        rho = random_density(4, 4, seed=11, dims=(2, 2))
        tau = random_density(4, 3, seed=12, dims=(2, 2))
        if fn in (is_orthogonal, is_dominated):
            args = (rho, tau)
        else:
            # xi at alpha = 1 takes the divided-difference route, which needs no _power
            args = (rho, tau, AlphaZ(1.0, 1.0) if fn is xi else AlphaZ(1.5, 1.2))
        with pytest.raises(TypeError, match="rel_cut"):
            fn(*args, rel_cut=rel_cut)



SHARED_BASIS_FAMILIES = [
    AntisymPair(2),
    AntisymPair(3),
    *(Werner(p, d) for p in (0.0, 0.2) for d in (2, 3)),
    BellDiagonal((0.75, 0.25, 0.0, 0.0)),
    BellDiagonal((0.7, 0.15, 0.1, 0.05)),
    Isotropic(0.8, 3),
    MCBD((0.5, 0.3, 0.2)),
    GHZ(3, 3),
    GHZ(2, 3),
    Dicke(3, (2, 1)),
]


class TestSharedBasis:
    """A pair built on one basis against the same pair on the general routes."""

    @pytest.mark.parametrize("family", SHARED_BASIS_FAMILIES, ids=repr)
    @pytest.mark.parametrize("alpha,z", [(2.0, 2.0), (1.5, 1.2), (0.7, 0.7), (1.0, 1.0), (0.5, 0.5), (3.0, 2.0)])
    def test_matches_general_path(self, family, alpha, z):
        p = AlphaZ(alpha, z)
        rho, tau = build(family), ansatz_optimizer(family, p)
        assert _joint_spectrum(rho, tau) is not None
        # rebuilt from their entries the operators carry no construction basis
        general = [type(x)(x.entries, x.dims) for x in (rho, tau)]
        assert _joint_spectrum(*general) is None
        fast = certify_optimizer(rho, tau, p, restarts=16, seed=3)
        slow = certify_optimizer(*general, p, restarts=16, seed=3)
        assert (fast.support_ok, fast.verdict) == (slow.support_ok, slow.verdict)
        # off the lines the rebuilt pair takes the divided-difference route
        assert fast.route == ("boundary-line" if p.on_reverse_line or p.on_lower_line else "commuting")
        assert slow.route == ("boundary-line" if p.on_reverse_line or p.on_lower_line else "divided-difference")
        for name in ("q_value", "lambda_sq", "value"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), name

    def test_table1_pairs_share_their_basis(self):
        from renyi_ent.cli import DEFAULT_GRID, DEFAULT_TABLE1_FAMILIES

        for family in DEFAULT_TABLE1_FAMILIES:
            if isinstance(family, PureBipartite):
                continue
            for a, z in DEFAULT_GRID:
                assert _joint_spectrum(build(family), ansatz_optimizer(family, AlphaZ(a, z))) is not None, (family, a, z)

    @pytest.mark.parametrize(
        "family", [Werner(0.2, 3), BellDiagonal((0.7, 0.15, 0.1, 0.05)), Isotropic(0.8, 3), MCBD((0.5, 0.3, 0.2))], ids=repr
    )
    @pytest.mark.parametrize("alpha,z", [(3.0, 2.0), (0.5, 0.5), (0.3, 0.7)])
    def test_one_xi_formula_on_and_off_the_lines(self, family, alpha, z):
        # on a shared basis Xi = (r/t)^alpha at every z, so a line point and a
        # point just off it give the same bits and differ only in the route
        on, off = AlphaZ(alpha, z), AlphaZ(alpha, z + 1e-6)
        assert on.on_reverse_line or on.on_lower_line
        assert not (off.on_reverse_line or off.on_lower_line)
        rho, tau = build(family), ansatz_optimizer(family, on)
        a, b = xi(rho, tau, on), xi(rho, tau, off)
        assert (a.route, b.route) == ("boundary-line", "commuting")
        assert np.array_equal(factor_matrix(a), factor_matrix(b))
        assert np.array_equal(xi_matrix(a).entries, xi_matrix(b).entries)

    def test_bases_differing_in_one_bit_are_not_shared(self):
        family = Werner(0.2, 3)
        rho, tau = build(family), ansatz_optimizer(family, AlphaZ(2.0, 2.0))
        dec = eig_hermitian(tau)
        v = dec.vectors.copy()
        v[0, -1] = np.nextafter(v[0, -1].real, 1.0)
        nudged = HermitianOperator.from_eigenpairs(dec.eigenvalues, v, tau.dims)
        assert _joint_spectrum(rho, tau) is not None
        assert _joint_spectrum(rho, nudged) is None

    def test_no_decomposition_to_find_no_shared_basis(self, decompositions):
        a, b = (HermitianOperator(np.diag([1.0, 2.0, 3.0]), (3,)) for _ in range(2))
        assert _joint_spectrum(a, b) is None
        assert decompositions == []
