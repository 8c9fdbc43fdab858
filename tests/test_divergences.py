import math

import numpy as np
import pytest

from renyi_ent import (
    AlphaZ,
    d_alpha_z,
    d_max,
    d_min,
    d_umegaki,
    density,
    pure_density,
    random_density,
    tensor_product,
)
from oracles import full_rank_state, partial_trace, q_alpha_z

GRID = [(0.3, 0.8), (0.5, 0.5), (0.5, 1.0), (0.9, 0.9), (1.0, 1.0), (1.5, 1.0), (2.0, 2.0), (3.0, 2.5)]


def qubit(p0):
    return density(np.diag([p0, 1.0 - p0]), (2,))


class TestAlphaZ:
    def test_region_membership_examples(self):
        assert AlphaZ(0.5, 0.5).in_dpi_region
        assert not AlphaZ(3.0, 1.0).in_dpi_region
        assert AlphaZ(1.0, 7.0).in_dpi_region

    @pytest.mark.parametrize("a,z", GRID)
    def test_default_grid_inside_region(self, a, z):
        assert AlphaZ(a, z).in_dpi_region

    def test_line_flags(self):
        p = AlphaZ(0.3, 0.7)
        assert p.on_reverse_line and not p.on_lower_line and not p.on_umegaki_line
        q = AlphaZ(3.0, 2.0)
        assert q.on_lower_line and not q.on_reverse_line
        assert AlphaZ(1.0, 2.5).on_umegaki_line

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            AlphaZ(0.0, 1.0)
        with pytest.raises(ValueError):
            AlphaZ(1.0, -2.0)


class TestQ:
    def test_equal_states_give_one(self):
        rho = random_density(3, 3, seed=0)
        for a, z in [(0.5, 0.5), (2.0, 2.0), (0.3, 0.8)]:
            assert abs(q_alpha_z(rho, rho, AlphaZ(a, z)) - 1.0) <= 1e-10

    def test_orthogonal_pure_states(self):
        rho = pure_density(np.array([1.0, 0.0]), (2,))
        sigma = pure_density(np.array([0.0, 1.0]), (2,))
        assert q_alpha_z(rho, sigma, AlphaZ(0.5, 1.0)) == 0.0

    def test_commuting_scalar_formula(self):
        val = q_alpha_z(qubit(0.7), qubit(0.5), AlphaZ(2.0, 1.0))
        assert abs(val - 1.16) <= 1e-12

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            q_alpha_z(qubit(0.7), qubit(0.5), AlphaZ(1.0, 1.0))

    def test_undominated_is_infinite_for_large_alpha(self):
        rho = random_density(3, 3, seed=1)
        sigma = random_density(3, 1, seed=2)
        assert q_alpha_z(rho, sigma, AlphaZ(2.0, 2.0)) == math.inf


class TestD:
    def test_self_divergence_zero(self):
        rho = random_density(4, 4, seed=5)
        for a, z in GRID:
            assert abs(d_alpha_z(rho, rho, AlphaZ(a, z))) <= 1e-9

    def test_bell_state_against_its_optimizer(self):
        rho = pure_density(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
        tau = density(np.diag([0.5, 0, 0, 0.5]), (2, 2))
        assert abs(d_alpha_z(rho, tau, AlphaZ(2.0, 2.0)) - 1.0) <= 1e-12

    def test_infinite_branches(self):
        rho = pure_density(np.array([1.0, 0.0]), (2,))
        perp = pure_density(np.array([0.0, 1.0]), (2,))
        assert d_alpha_z(rho, perp, AlphaZ(0.5, 1.0)) == math.inf
        full = random_density(2, 2, seed=3)
        assert d_alpha_z(full, perp, AlphaZ(2.0, 2.0)) == math.inf

    @pytest.mark.parametrize("a,z", [(0.5, 1.0), (2.0, 2.0), (0.9, 0.9)])
    def test_tensor_additivity(self, a, z):
        p = AlphaZ(a, z)
        r1, s1 = full_rank_state(2, 10), full_rank_state(2, 11)
        r2, s2 = full_rank_state(3, 12), full_rank_state(3, 13)
        joint = d_alpha_z(
            density(tensor_product(r1, r2).entries, (2, 3)),
            tensor_product(s1, s2),
            p,
        )
        parts = d_alpha_z(r1, s1, p) + d_alpha_z(r2, s2, p)
        assert abs(joint - parts) <= 1e-8


class TestNamedLimits:
    def test_d_min_examples(self):
        rho = pure_density(np.array([1.0, 0.0]), (2,))
        assert abs(d_min(rho, rho)) <= 1e-12
        full = full_rank_state(3, 1)
        sigma = full_rank_state(3, 2)
        assert abs(d_min(full, sigma)) <= 1e-12  # Pi(rho) = I, Tr sigma = 1
        assert d_min(rho, pure_density(np.array([0.0, 1.0]), (2,))) == math.inf  # orthogonal states

    def test_d_min_is_small_alpha_limit(self):
        rho, sigma = random_density(3, 2, seed=4), full_rank_state(3, 5)
        lim = d_alpha_z(rho, sigma, AlphaZ(1e-5, 1.0))
        assert abs(lim - d_min(rho, sigma)) <= 1e-3

    def test_umegaki_examples(self):
        rho = random_density(3, 3, seed=6)
        assert abs(d_umegaki(rho, rho)) <= 1e-10
        assert abs(d_umegaki(qubit(1.0), qubit(0.5)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_klein_inequality(self, seed):
        rho, sigma = full_rank_state(3, 300 + seed), full_rank_state(3, 400 + seed)
        assert d_umegaki(rho, sigma) >= -1e-12

    def test_umegaki_is_alpha_one_limit(self):
        rho, sigma = full_rank_state(3, 7), full_rank_state(3, 8)
        du = d_umegaki(rho, sigma)
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            assert abs(d_alpha_z(rho, sigma, AlphaZ(a, a)) - du) <= 1e-3

    def test_d_max_examples(self):
        rho = random_density(3, 3, seed=9)
        assert abs(d_max(rho, rho)) <= 1e-10
        assert abs(d_max(qubit(0.9), qubit(0.5)) - math.log2(1.8)) <= 1e-12

    def test_d_max_is_large_alpha_limit(self):
        rho, sigma = full_rank_state(3, 14), full_rank_state(3, 15)
        lim = d_alpha_z(rho, sigma, AlphaZ(1e3, 1e3))
        assert abs(lim - d_max(rho, sigma)) <= 1e-2

    def test_d_max_undominated_infinite(self):
        rho = random_density(3, 3, seed=16)
        sigma = random_density(3, 1, seed=17)
        assert d_max(rho, sigma) == math.inf


class TestProperties:
    @pytest.mark.parametrize("a,z", GRID)
    def test_data_processing_partial_trace(self, a, z):
        p = AlphaZ(a, z)
        rho = random_density(4, 4, seed=20, dims=(2, 2))
        sigma = random_density(4, 4, seed=21, dims=(2, 2))
        big = d_alpha_z(rho, sigma, p)
        small = d_alpha_z(
            density(partial_trace(rho, [0]).entries, (2,)), partial_trace(sigma, [0]), p
        )
        assert big >= small - 1e-8

    @pytest.mark.parametrize("a,z", GRID)
    def test_unitary_invariance(self, a, z):
        p = AlphaZ(a, z)
        rho, sigma = full_rank_state(3, 22), full_rank_state(3, 23)
        rng = np.random.default_rng(24)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        rho_u = density(u @ rho.entries @ u.conj().T, (3,))
        sigma_u = density(u @ sigma.entries @ u.conj().T, (3,))
        assert abs(d_alpha_z(rho, sigma, p) - d_alpha_z(rho_u, sigma_u, p)) <= 1e-8

    @pytest.mark.parametrize("a,z", GRID)
    def test_monotone_in_second_argument(self, a, z):
        from renyi_ent.linalg import wrap

        p = AlphaZ(a, z)
        rho, sigma = full_rank_state(3, 25), full_rank_state(3, 26)
        bump = random_density(3, 3, seed=27)
        bigger = wrap(sigma.entries + 0.05 * bump.entries, (3,))
        assert d_alpha_z(rho, bigger, p) <= d_alpha_z(rho, sigma, p) + 1e-8

    @pytest.mark.parametrize("a,z", GRID)
    def test_epsilon_regularization_supremum(self, a, z):
        from renyi_ent.linalg import wrap

        p = AlphaZ(a, z)
        rho = random_density(3, 2, seed=28)
        sigma = random_density(3, 2, seed=29)
        values = [
            d_alpha_z(rho, wrap(sigma.entries + eps * np.eye(3), (3,)), p)
            for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-9

    @pytest.mark.parametrize("a,z", [(0.3, 0.8), (0.5, 1.0), (1.5, 1.0), (2.0, 2.0)])
    def test_q_on_the_right_side_of_one(self, a, z):
        p = AlphaZ(a, z)
        rho, sigma = full_rank_state(3, 30), full_rank_state(3, 31)
        q = q_alpha_z(rho, sigma, p)
        if a < 1:
            assert q <= 1.0 + 1e-10
        else:
            assert q >= 1.0 - 1e-10
