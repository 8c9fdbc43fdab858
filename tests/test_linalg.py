import tracemalloc
import warnings

import numpy as np
import pytest

from renyi_ent import (
    DensityMatrix,
    HermitianOperator,
    density,
    eig_hermitian,
    load_operator_json,
    partial_transpose,
    pure_density,
    random_density,
    save_operator_json,
    tensor_product,
    tensor_product_merged,
)
from renyi_ent.linalg import ColumnSparse, _joint_spectrum, hermitian_part
from oracles import (
    assert_cached_spectrum_is_exact,
    matrix_power,
    partial_trace,
    permute_factors,
    support_projector,
)

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)


def herm(matrix, dims):
    return HermitianOperator(np.asarray(matrix, dtype=complex), dims)


class TestTypes:
    def test_partition_validation(self):
        with pytest.raises(ValueError, match="at least one factor"):
            herm(np.eye(1), ())
        with pytest.raises(ValueError, match=r"must be >= 1, got \(2, 0\)"):
            herm(np.eye(2), (2, 0))
        op = herm(np.eye(6), np.array([2, 3]))
        assert op.dims == (2, 3) and all(type(d) is int for d in op.dims)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            herm([[0, 1], [0, 0]], (2,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(2, dtype=complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            herm(m, (2,))

    def test_hermiticity_tolerance_scales_with_entries(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        base = 5e6 * (g + g.conj().T) / 2
        skew = np.zeros((3, 3), dtype=complex)
        skew[0, 1] = 1.0
        herm(base + 1e-9 * skew, (3,))
        with pytest.raises(ValueError, match="not Hermitian"):
            herm(base + 1e-3 * np.max(np.abs(base)) * skew, (3,))

    def test_unit_scale_hermiticity_tolerance_is_absolute(self):
        herm([[1.0, 5e-13], [0.0, 0.5]], (2,))
        with pytest.raises(ValueError, match="not Hermitian"):
            herm([[1.0, 2e-12], [0.0, 0.5]], (2,))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            herm(np.eye(3), (2,))

    def test_density_rejects_negative(self):
        with pytest.raises(ValueError):
            density(np.diag([1.5, -0.5]), (2,))

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            density(np.diag([0.6, 0.6]), (2,))

    def test_entries_immutable(self):
        op = herm(np.eye(2), (2,))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0


class TestEig:
    def test_identity(self):
        dec = eig_hermitian(herm(np.eye(2), (2,)))
        assert np.allclose(dec.eigenvalues, [1, 1])
        assert np.allclose(np.abs(dec.vectors), np.eye(2))

    def test_diagonal_sorted_ascending(self):
        dec = eig_hermitian(herm(np.diag([3.0, 1.0]), (2,)))
        assert np.allclose(dec.eigenvalues, [1, 3])

    def test_pauli_x(self):
        dec = eig_hermitian(herm([[0, 1], [1, 0]], (2,)))
        assert np.allclose(dec.eigenvalues, [-1, 1])

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_and_unitarity(self, seed):
        rho = random_density(6, 6, seed)
        dec = eig_hermitian(rho)
        rebuilt = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
        scale = 1.0 + np.max(np.abs(rho.entries))
        assert np.max(np.abs(rebuilt - rho.entries)) <= 1e-10 * scale
        gram = dec.vectors.conj().T @ dec.vectors
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-10


class TestSpectralCache:
    def test_cached_arrays_are_read_only(self):
        rho = random_density(4, 3, seed=5)
        dec = eig_hermitian(rho)
        assert eig_hermitian(rho) is dec
        for arr in (dec.eigenvalues, dec.vectors):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("p", [-0.9, -0.5, 0.0, 0.35, 1.0, 2.0])
    def test_power_of_cached_operator_matches_fresh_bit_for_bit(self, p):
        rho = random_density(6, 4, seed=7, dims=(2, 3))
        eig_hermitian(rho)
        support_projector(rho)
        cached = matrix_power(rho, p).entries
        fresh = matrix_power(HermitianOperator(rho.entries.copy(), rho.dims), p).entries
        assert cached.tobytes() == fresh.tobytes()

    def test_cache_belongs_to_the_operator(self):
        a = random_density(3, 3, seed=8)
        b = HermitianOperator(a.entries.copy(), a.dims)
        assert eig_hermitian(a) is not eig_hermitian(b)

    def test_operators_compare_and_hash_by_identity(self):
        a, b = random_density(2, 2, seed=1), random_density(2, 2, seed=1)
        for x, y in ((a, b), (HermitianOperator(a.entries, a.dims), HermitianOperator(b.entries, b.dims))):
            assert x == x and x != y
            assert len({x, y}) == 2 and hash(x) == hash(x)
        assert eig_hermitian(a) is not eig_hermitian(b)


def random_hermitian(d, seed, dims=None):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator((g + g.conj().T) / 2, (d,) if dims is None else dims)


def degenerate_state(d, seed, values):
    """A state with the given (repeated) eigenvalues in a random basis, spectrum not cached."""
    u = np.linalg.qr(random_hermitian(d, seed).entries)[0]
    m = (u * np.asarray(values, dtype=float)) @ u.conj().T
    return density(m / np.trace(m).real, (d,))


# factors for the assembled spectra: full rank, rank-deficient, degenerate
# (repeated eigenvalues and a projector) and indefinite
FACTORS = {
    "full-rank": lambda: random_density(3, 3, seed=11),
    "rank-2": lambda: random_density(3, 2, seed=12),
    "degenerate": lambda: degenerate_state(3, 13, [1.0, 1.0, 2.0]),
    "projector": lambda: degenerate_state(2, 14, [1.0, 1.0]),
    "indefinite": lambda: random_hermitian(2, 15),
}


class TestKnownSpectra:
    """Operators that assemble their spectrum instead of decomposing it."""

    @pytest.mark.parametrize("first", sorted(FACTORS))
    @pytest.mark.parametrize("second", sorted(FACTORS))
    def test_two_party_tensor_product(self, first, second):
        assert_cached_spectrum_is_exact(tensor_product(FACTORS[first](), FACTORS[second]()))

    @pytest.mark.parametrize("names", [("full-rank", "rank-2", "degenerate"), ("projector", "indefinite", "rank-2")])
    def test_three_party_product_and_permutation(self, names):
        a, b, c = (FACTORS[n]() for n in names)
        prod = tensor_product(tensor_product(a, b), c)
        assert_cached_spectrum_is_exact(prod)
        for perm in [(2, 0, 1), (1, 2, 0), (0, 2, 1)]:
            assert_cached_spectrum_is_exact(permute_factors(tensor_product(tensor_product(a, b), c), perm))

    @pytest.mark.parametrize("names", [("full-rank", "rank-2"), ("degenerate", "projector"), ("indefinite", "degenerate")])
    def test_merged_product(self, names):
        pairs = [tensor_product(FACTORS[n](), FACTORS[m]()) for n, m in (names, names[::-1])]
        merged = tensor_product_merged(*pairs)
        assert merged.dims == tuple(x * y for x, y in zip(pairs[0].dims, pairs[1].dims))
        assert_cached_spectrum_is_exact(merged)

    def test_product_spectrum_is_factor_sized(self, monkeypatch):
        a = HermitianOperator(random_density(3, 3, seed=21).entries.copy(), (3,))
        b = HermitianOperator(random_density(4, 2, seed=22).entries.copy(), (4,))
        shapes = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda m, *r, _f=original, **k: shapes.append(np.shape(m)) or _f(m, *r, **k))
        merged = tensor_product_merged(tensor_product(a, b), tensor_product(b, a))
        assert merged.entries.shape == (144, 144)
        eig_hermitian(merged)
        assert sorted(shapes) == [(3, 3), (4, 4)]

    def test_from_eigenpairs(self):
        rng = np.random.default_rng(3)
        v = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))[0]
        w = np.array([0.5, -1.0, 2.0, 0.5, 0.0])
        op = HermitianOperator.from_eigenpairs(w, v, (5,))
        dec = eig_hermitian(op)
        assert np.array_equal(dec.eigenvalues, [0.5, -1.0, 2.0, 0.5, 0.0]) and dec.vectors is v  # kept as given
        assert_cached_spectrum_is_exact(op)

    def test_density_reads_the_cached_spectrum(self, monkeypatch):
        rho = random_density(4, 4, seed=5)
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(a))
        density(rho.entries, (4,))
        assert calls == []


class TestSpectrumBuilt:
    """An operator built from its spectrum checks the spectrum and forms its entries only when they are read."""

    W = np.array([0.5, 0.3, 0.2])

    @staticmethod
    def basis(n, real=False):
        q = np.linalg.qr(random_hermitian(n, seed=4).entries)[0]
        return np.linalg.qr(q.real)[0] if real else q

    @pytest.mark.parametrize("cls", [HermitianOperator, DensityMatrix])
    @pytest.mark.parametrize("where", ["w", "V"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_refuses_non_finite_eigenpairs(self, cls, where, value):
        w, v = self.W.copy(), self.basis(3).copy()
        (w if where == "w" else v).flat[1] = value
        with pytest.raises(ValueError, match="non-finite entries"):
            cls.from_eigenpairs(w, v, (3,))

    @pytest.mark.parametrize("w,shape,dims", [([0.5, 0.5], (3, 3), (3,)), ([0.4, 0.3, 0.3], (3, 2), (3,)),
                                              ([0.4, 0.3, 0.3], (3, 3), (2,)), ([0.4, 0.3, 0.3], (3, 3), (2, 2))])
    def test_refuses_eigenpairs_that_do_not_match_dims(self, w, shape, dims):
        v = self.basis(3)[: shape[0], : shape[1]]
        with pytest.raises(ValueError, match="do not match partition"):
            DensityMatrix.from_eigenpairs(w, v, dims)

    def test_construction_takes_the_arrays_over(self):
        v = self.basis(3)
        op = HermitianOperator.from_eigenpairs(self.W, v, (3,))
        assert np.shares_memory(eig_hermitian(op).vectors, v) and not v.flags.writeable
        # a column-sparse basis: its three arrays become the spectrum's, read-only, uncopied
        rows, cols, vals = np.array([0, 1, 2]), np.array([0, 1, 2]), np.ones(3)
        op = HermitianOperator.from_eigenpairs(self.W, ColumnSparse(rows, cols, vals, (3, 3)), (3,))
        basis = eig_hermitian(op).basis
        for given, kept in ((rows, basis.rows), (cols, basis.cols), (vals, basis.vals)):
            assert np.shares_memory(kept, given) and not given.flags.writeable
        assert "vectors" not in vars(eig_hermitian(op))

    def test_building_holds_one_basis(self):
        from renyi_ent import Werner, build

        tracemalloc.start()
        try:
            rho = build(Werner(0.2, 30))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dec = eig_hermitian(rho)
        basis = dec.basis
        assert isinstance(basis, ColumnSparse) and "vectors" not in vars(dec)  # no dense basis was formed
        # the spectrum the state keeps (its sparse basis and eigenvalues), a quarter more, plus the trace
        # check's one float per nonzero: a second copy of the basis would not fit
        spectrum = basis.rows.nbytes + basis.cols.nbytes + basis.vals.nbytes + dec.eigenvalues.nbytes
        assert peak <= 1.25 * spectrum + 8 * basis.vals.size

    def test_a_dense_merged_product_holds_one_array(self):
        # two dense 40-dim states: n = 1600, and one n x n complex array is 41 MB
        a, b = (random_density(40, 40, seed=s, dims=(5, 8)) for s in (1, 2))
        eig_hermitian(a), eig_hermitian(b)  # the factors' spectra are live before the product is built
        array = 1600 * 1600 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            op = tensor_product_merged(a, b)
            built, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            op.entries
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(eig_hermitian(op).basis, np.ndarray) and op.dims == (25, 64)
        # building holds the basis, reading the entries adds them: a quarter more each, so a second n x n
        # copy of either (a Kronecker product before its permute, the trace check's conjugate) would not fit
        assert build_peak <= 1.25 * array and read_peak - built <= 1.25 * array

    def test_badly_normalized_basis_fails_the_trace_check(self):
        v = self.basis(3).copy()
        v[:, 1] *= 1.1
        with pytest.raises(ValueError, match="trace is 1.063"):
            DensityMatrix.from_eigenpairs(self.W, v, (3,))

    def test_spectral_reads_form_no_entries(self):
        a, b = DensityMatrix.from_eigenpairs(self.W, self.basis(3), (3,)), random_density(2, 2, seed=3)
        ops = [a, tensor_product(a, b), tensor_product_merged(a, b), tensor_product_merged(a, a)]
        for op, dim in zip(ops, (3, 6, 6, 9)):
            assert op.dim == dim and abs(op.trace() - 1.0) <= 1e-12
            assert "_form" in vars(op)  # the spectrum was given at construction
        assert _joint_spectrum(ops[3], tensor_product_merged(a, a)) is not None
        assert all("entries" not in vars(op) for op in ops)

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_entries_formed_on_read_are_the_eager_formula(self, real):
        w, v = np.array([0.5, -1.0, 2.0, 0.5, 0.0]), self.basis(5, real)
        a = tensor_product(random_density(3, 2, seed=1), random_density(2, 2, seed=2))
        b = HermitianOperator.from_eigenpairs(w[:4] ** 2, self.basis(4, real), (2, 2))
        merged = np.kron(a.entries, b.entries).reshape((3, 2, 2, 2) * 2).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(24, 24)
        cases = [
            (HermitianOperator.from_eigenpairs(w, v, (5,)), hermitian_part((v * w) @ v.conj().T)),
            (tensor_product(a, b), np.kron(a.entries, b.entries)),
            (tensor_product_merged(a, b), merged),
        ]
        for op, eager in cases:
            assert "entries" not in vars(op)
            assert np.array_equal(op.entries, eager) and op.entries.dtype == complex and op.entries is op.entries
            with pytest.raises(ValueError):
                op.entries[0, 0] = 5.0
            with pytest.raises(AttributeError, match="immutable"):
                op.entries = eager


class TestTypeRules:
    """A state is an operator; products and permutations of states are states."""

    def test_density_matrix_is_an_operator(self):
        assert issubclass(DensityMatrix, HermitianOperator)

    def test_merged_product_of_cached_states_is_a_state_without_full_eigh(self, monkeypatch):
        from renyi_ent import Werner, build

        minus = build(Werner(0.0, 3))
        shapes = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m, *r, **k: shapes.append(np.shape(m)) or original(m, *r, **k))
        pair = tensor_product_merged(minus, minus)
        assert type(pair) is DensityMatrix and pair.dims == (9, 9)
        assert shapes == []
        assert_cached_spectrum_is_exact(pair)

    def test_product_with_an_operator_stays_an_operator(self):
        rho, h = random_density(2, 2, seed=1), random_hermitian(3, seed=2)
        for op in (tensor_product(h, rho), tensor_product(rho, h), tensor_product_merged(h, rho)):
            assert type(op) is HermitianOperator
        assert type(tensor_product(rho, rho)) is DensityMatrix
        assert type(permute_factors(tensor_product(rho, rho), (1, 0))) is DensityMatrix
        assert type(permute_factors(tensor_product(h, rho), (1, 0))) is HermitianOperator

    def test_state_from_eigenpairs(self):
        v = np.linalg.qr(random_hermitian(3, seed=4).entries)[0]
        rho = DensityMatrix.from_eigenpairs([0.5, 0.3, 0.2], v, (3,))
        assert type(rho) is DensityMatrix
        assert_cached_spectrum_is_exact(rho)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            DensityMatrix.from_eigenpairs([0.6, 0.6, -0.2], v, (3,))


class TestMatrixPower:
    def test_generalized_inverse_ignores_kernel(self):
        out = matrix_power(herm(np.diag([4.0, 0.0]), (2,)), -1.0)
        assert np.allclose(out.entries, np.diag([0.25, 0.0]))

    def test_square_root_diagonal(self):
        out = matrix_power(herm(np.diag([4.0, 1.0]), (2,)), 0.5)
        assert np.allclose(out.entries, np.diag([2.0, 1.0]))

    def test_zeroth_power_is_support_projector(self):
        rho = random_density(5, 3, seed=1)
        p0 = matrix_power(rho, 0.0)
        proj = support_projector(rho)
        assert np.allclose(p0.entries, proj.entries, atol=1e-12)

    def test_overflow_names_the_exponent(self):
        rho = density(np.diag([1e-3, 1.0 - 1e-3]), (2,))
        with pytest.raises(ValueError, match="exponent -1000"):
            matrix_power(rho, -1000.0)

    def test_all_zero_with_negative_power(self):
        out = matrix_power(herm(np.zeros((3, 3)), (3,)), -1.0)
        assert np.allclose(out.entries, 0.0)

    def test_invalid_rel_cut(self):
        # the support cut is a constant: no caller can pass one, valid or not
        with pytest.raises(TypeError, match="rel_cut"):
            matrix_power(herm(np.eye(2), (2,)), 1.0, rel_cut=0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_power_addition_on_support(self, seed):
        rho = random_density(5, 3, seed=seed)
        a = matrix_power(rho, 0.7).entries @ matrix_power(rho, 0.6).entries
        b = matrix_power(rho, 1.3).entries
        assert np.max(np.abs(a - b)) <= 1e-8

    @pytest.mark.parametrize("seed", range(8))
    def test_inverse_times_power_is_projector(self, seed):
        rho = random_density(5, 3, seed=seed)
        prod = matrix_power(rho, -0.9).entries @ matrix_power(rho, 0.9).entries
        assert np.max(np.abs(prod - support_projector(rho).entries)) <= 1e-8


class TestSupportProjector:
    def test_diagonal(self):
        assert np.allclose(
            support_projector(herm(np.diag([1.0, 0.0]), (2,))).entries, np.diag([1.0, 0.0])
        )

    def test_full_rank_is_identity(self):
        rho = random_density(4, 4, seed=3)
        assert np.allclose(support_projector(rho).entries, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_rank_matches(self, rank):
        rho = random_density(4, rank, seed=9)
        proj = support_projector(rho)
        assert round(proj.trace()) == rank


class TestTensorOps:
    def test_identity_kron(self):
        out = tensor_product(herm(np.eye(2), (2,)), herm(np.eye(2), (2,)))
        assert out.dims == (2, 2)
        assert np.allclose(out.entries, np.eye(4))

    def test_rank_one_placement(self):
        zero = herm(np.diag([1.0, 0.0]), (2,))
        one = herm(np.diag([0.0, 1.0]), (2,))
        out = tensor_product(zero, one)
        expect = np.zeros((4, 4))
        expect[1, 1] = 1.0
        assert np.allclose(out.entries, expect)

    def test_merged_interleaves_factors(self):
        # (A B) (x) (A' B') merged to (AA' : BB') must physically permute B and A'
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        ha = herm((a + a.conj().T) / 2, (2, 2))
        hb = herm((b + b.conj().T) / 2, (2, 2))
        merged = tensor_product_merged(ha, hb)
        assert merged.dims == (4, 4)
        manual = np.kron(ha.entries, hb.entries).reshape([2] * 8)
        manual = manual.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
        assert np.allclose(merged.entries, manual)

    def test_merged_rejects_party_mismatch(self):
        with pytest.raises(ValueError):
            tensor_product_merged(herm(np.eye(2), (2,)), herm(np.eye(4), (2, 2)))

    def test_permute_factors_roundtrip(self):
        rho = random_density(8, 8, seed=5, dims=(2, 2, 2))
        perm = permute_factors(rho, (2, 0, 1))
        back = permute_factors(perm, (1, 2, 0))
        assert np.allclose(back.entries, rho.entries)

    def test_permute_rejects_bad_perm(self):
        with pytest.raises(ValueError):
            permute_factors(random_density(4, 4, 0, dims=(2, 2)), (0, 0))


class TestPartialTrace:
    def test_maximally_entangled_marginal(self):
        rho = pure_density(PHI_PLUS, (2, 2))
        out = partial_trace(rho, [0])
        assert np.allclose(out.entries, np.eye(2) / 2)

    def test_product_split(self):
        a = random_density(2, 2, seed=11)
        b = random_density(3, 3, seed=12)
        joint = tensor_product(a, b)
        assert np.allclose(partial_trace(joint, [0]).entries, a.entries, atol=1e-12)
        assert np.allclose(partial_trace(joint, [1]).entries, b.entries, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_preserved(self, seed):
        rho = random_density(12, 12, seed=seed, dims=(2, 2, 3))
        out = partial_trace(rho, [1])
        assert abs(out.trace() - 1.0) <= 1e-12

    def test_composition(self):
        rho = random_density(12, 12, seed=7, dims=(2, 2, 3))
        two_step = partial_trace(partial_trace(rho, [0, 1]), [0])
        one_step = partial_trace(rho, [0])
        assert np.allclose(two_step.entries, one_step.entries)

    def test_recovers_factor_scaled(self):
        a = herm(np.diag([2.0, 1.0]), (2,))  # trace 3
        b = herm(np.diag([0.5, 0.5]), (2,))  # trace 1
        joint = tensor_product(a, b)
        assert np.allclose(partial_trace(joint, [1]).entries, 3.0 * b.entries)

    def test_empty_keep_rejected(self):
        rho = random_density(4, 4, 0, dims=(2, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, [])
        for index in (2, -1):
            with pytest.raises(ValueError, match=r"keep indices must lie in 0\.\.1"):
                partial_trace(rho, [0, index])
            with pytest.raises(ValueError, match=r"flip indices must lie in 0\.\.1"):
                partial_transpose(rho, [index])


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        a = random_density(2, 2, seed=21)
        b = random_density(2, 2, seed=22)
        joint = tensor_product(a, b)
        flipped = partial_transpose(joint, [1])
        assert np.linalg.eigvalsh(flipped.entries)[0] >= -1e-12
        assert np.allclose(flipped.entries, np.kron(a.entries, b.entries.T))

    def test_bell_state_negative_eigenvalue(self):
        rho = pure_density(PHI_PLUS, (2, 2))
        flipped = partial_transpose(rho, [1])
        assert abs(np.linalg.eigvalsh(flipped.entries)[0] - (-0.5)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_involution(self, seed):
        rho = random_density(6, 6, seed=seed, dims=(2, 3))
        twice = partial_transpose(partial_transpose(rho, [0]), [0])
        assert np.allclose(twice.entries, rho.entries)


class TestRandomDensity:
    def test_deterministic(self):
        a = random_density(4, 2, seed=42)
        b = random_density(4, 2, seed=42)
        assert np.array_equal(a.entries, b.entries)

    def test_valid_state(self):
        rho = random_density(5, 5, seed=1)
        assert abs(rho.trace() - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-12

    def test_full_rank(self):
        rho = random_density(5, 5, seed=2)
        assert np.linalg.matrix_rank(rho.entries) == 5

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            random_density(3, 4, seed=0)


class TestMatrixFiles:
    def test_round_trip(self, tmp_path):
        rho = random_density(4, 4, seed=8, dims=(2, 2))
        path = str(tmp_path / "rho.json")
        save_operator_json(rho, path)
        loaded = load_operator_json(path)
        assert loaded.dims == (2, 2)
        assert np.allclose(loaded.entries, rho.entries)

    def test_rejects_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2], "re": [[1, 0], [0, 1]]}')
        with pytest.raises(ValueError):
            load_operator_json(str(path))

    def test_rejects_non_hermitian_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2], "re": [[0, 1], [0, 0]], "im": [[0, 0], [0, 0]]}')
        with pytest.raises(ValueError):
            load_operator_json(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            "5",
            '[[1, 0], [0, 1]]',
            '{"dims": 5, "re": [[1]], "im": [[0]]}',
            '{"dims": [[2]], "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
            '{"dims": [1], "re": [[{}]], "im": [[0]]}',
            '{"dims": [1], "re": [[NaN]], "im": [[0]]}',
        ],
    )
    def test_rejects_wrong_json_shape(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_operator_json(str(path))

    @pytest.mark.parametrize("re,im", [("1", "Infinity"), ("Infinity", "0"), ("1", "-Infinity"), ("1", "NaN")])
    def test_rejects_non_finite_parts_without_warning(self, tmp_path, re, im):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"dims": [1], "re": [[{re}]], "im": [[{im}]]}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                load_operator_json(str(path))
