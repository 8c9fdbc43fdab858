import math

import numpy as np
import pytest

from renyi_ent import (
    AlphaZ,
    AntisymPair,
    BellDiagonal,
    Dicke,
    GHZ,
    Isotropic,
    MCBD,
    MaximallyCorrelated,
    PureBipartite,
    Werner,
    ansatz_optimizer,
    beta_dual,
    build,
    certify_optimizer,
    closed_form_value,
    eig_hermitian,
    family_label,
    is_separable_regime,
    parse_family,
    renyi_entropy,
)
from oracles import (
    antisymmetric_projector,
    assert_cached_spectrum_is_exact,
    commutator_maxnorm,
    family_reference,
    lambda_sq_closed_form,
    symmetric_projector,
)
from renyi_ent.certificates import is_maximally_correlated
from renyi_ent.cli import DEFAULT_GRID


class TestRenyiEntropy:
    def test_point_mass_is_zero(self):
        assert renyi_entropy((1.0, 0.0), 0.7) == 0.0
        assert renyi_entropy((1.0, 0.0), 1.0) == 0.0

    def test_uniform_is_log_d(self):
        assert abs(renyi_entropy([0.25] * 4, 2.0) - 2.0) <= 1e-12
        assert abs(renyi_entropy([0.25] * 4, 1.0) - 2.0) <= 1e-12

    def test_min_entropy(self):
        assert abs(renyi_entropy((0.9, 0.1), math.inf) + math.log2(0.9)) <= 1e-12

    def test_shannon_value(self):
        h = renyi_entropy((0.75, 0.25), 1.0)
        assert abs(h - (-(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)))) <= 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            renyi_entropy((-0.1, 1.1), 2.0)
        with pytest.raises(ValueError, match="positive entry"):
            renyi_entropy((0.0, 0.0), 2.0)
        with pytest.raises(ValueError, match="normalized"):
            renyi_entropy((0.5, 0.4), 1.0)

    @pytest.mark.parametrize("order", [0.3, 1.0, 2.0, 50.0, math.inf])
    @pytest.mark.parametrize(
        "values,counts",
        [((0.5, 0.25, 0.0), (1, 2, 5)), ((0.1, 0.0, 0.05, 0.3), (3, 7, 2, 2))],
        ids=["zero-last", "zero-inside"],
    )
    def test_counts_repeat_values(self, values, counts, order):
        # value i counts counts[i] times; a zero value is dropped with its nonzero count
        expanded = renyi_entropy(np.repeat(values, counts), order)
        assert abs(renyi_entropy(values, order, counts) - expanded) <= 1e-14


class TestBuild:
    def test_werner_symmetric_weight(self):
        for p_val, d in [(0.2, 3), (0.8, 4)]:
            rho = build(Werner(p_val, d))
            weight = float(np.trace(rho.entries @ symmetric_projector(d)).real)
            assert abs(weight - p_val) <= 1e-12

    def test_isotropic_uniform_point(self):
        rho = build(Isotropic(1.0 / 9.0, 3))
        assert np.allclose(rho.entries, np.eye(9) / 9, atol=1e-12)

    def test_dicke_two_one_one(self):
        rho = build(Dicke(2, (1, 1)))
        v = np.zeros(4)
        v[1] = v[2] = 1 / math.sqrt(2)
        assert np.allclose(rho.entries, np.outer(v, v), atol=1e-12)

    def test_mcbd_is_maximally_correlated(self):
        rho = build(MCBD((0.5, 0.3, 0.2)))
        assert is_maximally_correlated(rho)
        assert abs(rho.trace() - 1.0) <= 1e-12

    def test_ghz_partition_and_weights(self):
        rho = build(GHZ(3, 3))
        assert rho.dims == (3, 3, 3)
        assert abs(rho.entries[0, 0].real - 1.0 / 3.0) <= 1e-12

    def test_antisym_pair_partition(self):
        rho = build(AntisymPair(3))
        assert rho.dims == (9, 9)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BellDiagonal((0.9, 0.3, 0.0, 0.0))
        with pytest.raises(ValueError):
            Werner(1.3, 3)
        with pytest.raises(ValueError):
            Dicke(3, (1, 1))
        with pytest.raises(ValueError):
            MCBD((0.5, 0.4))
        for F, d in ((1.2, 3), (-0.1, 3), (0.5, 1)):
            with pytest.raises(ValueError, match="isotropic"):
                Isotropic(F, d)
        with pytest.raises(ValueError, match="nonnegative"):
            Dicke(3, (4, -1))
        # a Dicke state has at least two parties, as a GHZ state does
        for N, k in ((0, ()), (0, (0,)), (1, (1,)), (1, (0, 1))):
            with pytest.raises(ValueError, match="at least two parties"):
                Dicke(N, k)
        for d, M in ((0, 3), (2, 1)):
            with pytest.raises(ValueError, match="GHZ"):
                GHZ(d, M)
        with pytest.raises(TypeError, match="unknown family"):
            build("werner:p=0.2,d=3")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_mc_rejects_non_finite_coefficients(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            MaximallyCorrelated(((bad, 0), (0, 1)))
        with pytest.raises(ValueError, match="non-finite"):
            MaximallyCorrelated(((0.5, bad), (bad, 0.5)))

    @pytest.mark.parametrize(
        "coeff",
        [((0.6, 0), (0, -0.4)), ((0.5, 0), (0, 0.4)), ((0.5, 0.1), (0.2, 0.5)), ((1.0, 0.0),), ()],
        ids=["indefinite", "trace", "non-hermitian", "non-square", "empty"],
    )
    def test_mc_rejects_invalid_coefficient_matrix(self, coeff):
        with pytest.raises(ValueError):
            MaximallyCorrelated(coeff)


class TestClosedFormValue:
    def test_bell_state_is_one_everywhere(self):
        fam = BellDiagonal((1.0, 0.0, 0.0, 0.0))
        for a, z in [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)]:
            assert abs(closed_form_value(fam, AlphaZ(a, z)) - 1.0) <= 1e-12

    def test_ghz_value(self):
        assert abs(closed_form_value(GHZ(4, 3), AlphaZ(1.0, 1.0)) - 2.0) <= 1e-12
        assert abs(closed_form_value(GHZ(3, 3), AlphaZ(2.0, 2.0)) - math.log2(3)) <= 1e-12

    def test_dicke_value(self):
        val = closed_form_value(Dicke(3, (2, 1)), AlphaZ(1.0, 1.0))
        assert abs(val - math.log2(9.0 / 4.0)) <= 1e-12

    @pytest.mark.parametrize("alpha,z", [(0.3, 0.8), (1.0, 1.0), (1.5, 1.0), (2.0, 2.0)])
    def test_dicke_with_an_empty_level(self, alpha, z):
        # a type that fills the empty level is impossible: the ansatz gives it weight exp(-inf) = 0
        fam, p = Dicke(3, (2, 1, 0)), AlphaZ(alpha, z)
        report = certify_optimizer(build(fam), ansatz_optimizer(fam, p), p)
        closed = closed_form_value(fam, p)
        assert report.verdict == "certified-optimal"
        assert abs(closed - 1.16992500144231) <= 1e-13
        assert abs(report.value - closed) <= 1e-12

    def test_uniform_mcbd_is_zero(self):
        fam = MCBD((1 / 3, 1 / 3, 1 / 3))
        assert abs(closed_form_value(fam, AlphaZ(2.0, 2.0))) <= 1e-12

    def test_isotropic_extreme_point(self):
        assert abs(closed_form_value(Isotropic(1.0, 3), AlphaZ(0.5, 1.0)) - math.log2(3)) <= 1e-12
        assert abs(closed_form_value(Isotropic(1.0, 3), AlphaZ(1.0, 1.0)) - math.log2(3)) <= 1e-12

    @pytest.mark.parametrize("F", [0.3, 0.6, 0.8, 0.99, 1.0])
    def test_isotropic_matches_its_expanded_spectrum(self, F):
        # the closed form counts (1-F)/(d-1) d-1 times; the reference spells the d entries out
        for d in range(2, 51):
            if is_separable_regime(Isotropic(F, d)):
                continue
            spectrum = np.r_[F, np.full(d - 1, (1.0 - F) / (d - 1))]
            for a, z in DEFAULT_GRID:
                expect = math.log2(d) - renyi_entropy(spectrum, a)
                assert abs(closed_form_value(Isotropic(F, d), AlphaZ(a, z)) - expect) <= 1e-14

    def test_separable_regimes_give_zero(self):
        p = AlphaZ(2.0, 2.0)
        assert closed_form_value(Werner(0.8, 3), p) == 0.0
        assert closed_form_value(Isotropic(0.2, 3), p) == 0.0
        assert closed_form_value(BellDiagonal((0.5, 0.5, 0.0, 0.0)), p) == 0.0

    @pytest.mark.parametrize(
        "family",
        [
            BellDiagonal((0.5, 0.5, 0.0, 0.0)),
            Werner(0.5, 3),
            Isotropic(1.0 / 3.0, 3),
            PureBipartite((1.0, 0.0)),
            GHZ(1, 3),
            Dicke(3, (3,)),
            Dicke(3, (0, 3)),
            MCBD((1 / 3, 1 / 3, 1 / 3)),
        ],
    )
    @pytest.mark.parametrize("alpha,z", [(0.5, 0.5), (1.0, 1.0), (1.5, 1.2), (2.0, 2.0)])
    def test_trivially_free_families_give_positive_zero(self, family, alpha, z):
        assert is_separable_regime(family)
        value = closed_form_value(family, AlphaZ(alpha, z))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_outside_region_rejected(self):
        with pytest.raises(ValueError):
            closed_form_value(Werner(0.2, 3), AlphaZ(3.0, 1.0))

    def test_pure_state_beta_duality(self):
        # beta = z / (z - 1 + alpha) is constant on these pairs (beta = 2)
        fam = PureBipartite((0.7, 0.2, 0.1))
        pairs = [(0.3, 1.4), (0.5, 1.0), (0.6, 0.8)]
        values = []
        for a, z in pairs:
            p = AlphaZ(a, z)
            assert abs(beta_dual(p) - 2.0) <= 1e-12
            values.append(closed_form_value(fam, p))
        assert max(values) - min(values) <= 1e-12

    def test_beta_dual_is_the_quotient_and_past_the_float_range_too(self):
        # z - 1 + alpha overflows at (1e308, 1e308), yet beta = 1/2; where it is finite nothing moves
        assert beta_dual(AlphaZ(1e308, 1e308)) == 0.5
        assert beta_dual(AlphaZ(1.0, 1e-17)) == 1.0  # z - 1 + alpha rounds to 0; on the line alpha = 1, beta = 1
        for a, z in [*DEFAULT_GRID, (1e-300, 2.0), (3.0, 1e-300), (1e300, 1e300), (8e307, 8e307)]:
            p = AlphaZ(a, z)
            if not p.on_reverse_line:
                assert beta_dual(p) == p.z / (p.z - 1.0 + p.alpha)

    def test_pure_state_reverse_line_min_entropy(self):
        fam = PureBipartite((0.9, 0.1))
        val = closed_form_value(fam, AlphaZ(0.5, 0.5))
        assert abs(val + math.log2(0.9)) <= 1e-12


class TestAnsatz:
    def test_werner_ansatz_is_half_point(self):
        tau = ansatz_optimizer(Werner(0.2, 3), AlphaZ(1.0, 1.0))
        expect = build(Werner(0.5, 3))
        assert np.allclose(tau.entries, expect.entries, atol=1e-12)

    def test_isotropic_ansatz_is_boundary_point(self):
        tau = ansatz_optimizer(Isotropic(0.9, 3), AlphaZ(1.0, 1.0))
        expect = build(Isotropic(1.0 / 3.0, 3))
        assert np.allclose(tau.entries, expect.entries, atol=1e-12)

    def test_uniform_pure_state_gives_uniform_pairs(self):
        tau = ansatz_optimizer(PureBipartite((0.5, 0.5)), AlphaZ(2.0, 2.0))
        assert np.allclose(tau.entries, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)

    @pytest.mark.parametrize("p", [(0.9, 0.1), (0.6, 0.4), (0.5, 0.3, 0.2), (0.7, 0.2, 0.1), (0.99, 0.01)], ids=str)
    def test_pure_ansatz_weights_p_to_the_beta(self, p):
        # the weights are normalized by the largest p first; that moves them by rounding only
        pv = np.asarray(p)
        for alpha, z in list(DEFAULT_GRID) + [(0.5, 0.6), (0.7, 0.4)]:
            beta = beta_dual(AlphaZ(alpha, z))
            if math.isinf(beta):
                continue
            want = pv**beta / np.sum(pv**beta)
            got = np.diag(ansatz_optimizer(PureBipartite(p), AlphaZ(alpha, z)).entries).real[:: len(p) + 1]
            assert np.max(np.abs(got - want) / want) <= 1e-15

    def test_pure_ansatz_at_a_huge_beta(self):
        # beta = z / (z - 1 + alpha) = 5001: 0.6^beta underflows to 0, yet the weights are (1, 0)
        tau = ansatz_optimizer(PureBipartite((0.6, 0.4)), AlphaZ(0.5, 0.5001))
        assert np.array_equal(np.diag(tau.entries).real, [1.0, 0.0, 0.0, 0.0])

    def test_separable_regime_returns_state_itself(self):
        fam = Werner(0.7, 3)
        tau = ansatz_optimizer(fam, AlphaZ(1.0, 1.0))
        assert np.allclose(tau.entries, build(fam).entries, atol=1e-12)

    def test_bell_state_limit(self):
        tau = ansatz_optimizer(BellDiagonal((1.0, 0.0, 0.0, 0.0)), AlphaZ(1.0, 1.0))
        assert np.allclose(tau.entries, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)

    def test_dicke_ansatz_commutes_and_has_right_weight(self):
        fam = Dicke(3, (2, 1))
        rho = build(fam)
        tau = ansatz_optimizer(fam, AlphaZ(1.0, 1.0))
        assert commutator_maxnorm(rho, tau) <= 1e-10
        # tau puts multinomial weight w_k = 3 (2/3)^2 (1/3) = 4/9 on the input type class
        weight = float(np.trace(rho.entries @ tau.entries).real)
        assert abs(weight - 4.0 / 9.0) <= 1e-12
        assert abs(tau.trace() - 1.0) <= 1e-12

    def test_commuting_hypothesis_across_families(self):
        p = AlphaZ(1.5, 1.0)
        for fam in (
            BellDiagonal((0.75, 0.25, 0.0, 0.0)),
            Werner(0.2, 3),
            Isotropic(0.8, 3),
            Dicke(3, (2, 1)),
            MCBD((0.5, 0.3, 0.2)),
            AntisymPair(3),
        ):
            assert commutator_maxnorm(build(fam), ansatz_optimizer(fam, p)) <= 1e-10

    @pytest.mark.parametrize(
        "family",
        [Isotropic(0.8, 3), Isotropic(0.9, 2), MCBD((0.5, 0.3, 0.2)), MCBD((0.6, 0.4)), GHZ(3, 3), GHZ(2, 3),
         Dicke(3, (2, 1)), Dicke(4, (2, 1, 1))],
        ids=repr,
    )
    def test_eigenbasis_builds_match_the_defining_formulas(self, family):
        p = AlphaZ(2.0, 2.0)
        for op, ref in ((build(family), family_reference(family)),
                        (ansatz_optimizer(family, p), family_reference(family, ansatz=True))):
            assert np.max(np.abs(op.entries - ref)) <= 1e-15 * np.max(np.abs(ref))
            assert_cached_spectrum_is_exact(op)

    @pytest.mark.parametrize("family", [BellDiagonal((0.7, 0.15, 0.1, 0.05)), Werner(0.2, 3), Werner(0.0, 5)], ids=repr)
    def test_bell_and_werner_bases_are_real(self, family):
        # a real basis keeps the products of the pair states (and of their tensor powers) real
        for op in (build(family), ansatz_optimizer(family, AlphaZ(2.0, 2.0))):
            assert eig_hermitian(op).vectors.dtype == np.float64


class TestAntisymPairSpectra:
    """The pair state and its ansatz carry a spectrum assembled at the single-copy size."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ansatz_and_state(self, d):
        p = AlphaZ(2.0, 2.0)
        tau = ansatz_optimizer(AntisymPair(d), p)
        assert_cached_spectrum_is_exact(tau)
        assert_cached_spectrum_is_exact(build(AntisymPair(d)))
        # the defining mixture of the merged tensor squares
        sym = symmetric_projector(d) / (d * (d + 1) / 2)
        anti = antisymmetric_projector(d) / (d * (d - 1) / 2)
        merge = lambda m: m.reshape((d,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(d**4, d**4)  # noqa: E731
        want = (d + 1) / (2 * d) * merge(np.kron(sym, sym)) + (d - 1) / (2 * d) * merge(np.kron(anti, anti))
        assert np.max(np.abs(tau.entries - want)) <= 1e-15


class TestLambdaSq:
    def test_values(self):
        assert abs(lambda_sq_closed_form(BellDiagonal((0.75, 0.25, 0.0, 0.0))) - 0.5) <= 1e-15
        assert abs(lambda_sq_closed_form(MCBD((0.2,) * 5)) - 0.2) <= 1e-15
        assert abs(lambda_sq_closed_form(AntisymPair(3)) - 1.0 / 27.0) <= 1e-15
        assert abs(lambda_sq_closed_form(Dicke(3, (2, 1))) - 4.0 / 9.0) <= 1e-15
        assert abs(lambda_sq_closed_form(Werner(0.2, 3)) - 0.15) <= 1e-15
        assert abs(lambda_sq_closed_form(Isotropic(0.8, 3)) - (0.8 * 3 + 1) / 12.0) <= 1e-15

    def test_validity_ranges(self):
        with pytest.raises(ValueError):
            lambda_sq_closed_form(Werner(0.9, 3))
        with pytest.raises(ValueError):
            lambda_sq_closed_form(Isotropic(0.05, 3))
        general, p = MaximallyCorrelated(((0.5, 0.25), (0.25, 0.5))), AlphaZ(2.0, 2.0)
        with pytest.raises(ValueError, match="no closed form"):
            closed_form_value(general, p)
        with pytest.raises(ValueError, match="no closed-form ansatz"):
            ansatz_optimizer(general, p)
        with pytest.raises(TypeError, match="no closed-form Lambda"):
            lambda_sq_closed_form(general)
        for fn in (closed_form_value, ansatz_optimizer):
            with pytest.raises(TypeError, match="unknown family"):
                fn("werner:p=0.2,d=3", p)


class TestSeparableRegime:
    def test_examples(self):
        assert is_separable_regime(Werner(0.7, 3))
        assert is_separable_regime(Isotropic(0.5, 2))  # boundary counts separable
        assert not is_separable_regime(BellDiagonal((0.75, 0.25, 0.0, 0.0)))
        assert not is_separable_regime(PureBipartite((0.9, 0.1)))
        assert is_separable_regime(PureBipartite((1.0, 0.0)))
        assert is_separable_regime(MCBD((0.5, 0.5)))
        assert not is_separable_regime(MCBD((0.6, 0.4)))

    def test_near_uniform_mcbd_is_entangled(self):
        # 2e-6 from uniform is far outside PROB_ATOL = 1e-12, so the state is
        # entangled; its value at (1, 1) is only ~1.3e-11
        fam = MCBD((1 / 3 + 2e-6, 1 / 3 - 1e-6, 1 / 3 - 1e-6))
        assert not is_separable_regime(fam)
        for a, z in ((1.0, 1.0), (2.0, 2.0)):
            p = AlphaZ(a, z)
            closed = closed_form_value(fam, p)
            assert closed > 0.0
            tau = ansatz_optimizer(fam, p)
            assert np.max(np.abs(tau.entries - family_reference(fam, ansatz=True))) <= 1e-15
            report = certify_optimizer(build(fam), tau, p, restarts=8)
            assert report.verdict == "certified-optimal"
            # log2 Q of Q = 1 + ~1e-11 carries ~1e-16 absolute error
            assert abs(report.value - closed) <= 1e-12


class TestDescriptors:
    @pytest.mark.parametrize(
        "text",
        [
            "werner:p=0.2,d=3",
            "isotropic:F=0.8,d=3",
            "dicke:N=3,k=2|1",
            "mcbd:p=0.5|0.3|0.2",
            "bell:lam=0.75|0.25|0|0",
            "pure:p=0.9|0.1",
            "ghz:d=3,M=3",
            "antisym:d=3",
        ],
    )
    def test_round_trip(self, text):
        fam = parse_family(text)
        again = parse_family(family_label(fam))
        assert again == fam

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_family("werner:p=0.2")
        with pytest.raises(ValueError):
            parse_family("nosuch:x=1")
        with pytest.raises(ValueError):
            parse_family("werner:p")
        with pytest.raises(TypeError, match="no label"):
            family_label(MaximallyCorrelated(((1.0, 0.0), (0.0, 0.0))))
