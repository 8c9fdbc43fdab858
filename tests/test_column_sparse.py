"""Column-sparse catalog bases and the sparse contraction of their Xi factors.

The catalog stores each eigenbasis by its nonzeros (``linalg.ColumnSparse``); products, the merged row
order and Xi's shared-basis factor stay in that form, and ``XiEvaluation.local_matrices`` contracts a
sparse factor by index arithmetic where that is the cheaper contraction. These tests hold the stored
bases to the dense construction, the routes to what they were, the two contractions to each other, and
every certified Lambda^2 to its witness's overlap recomputed on a dense factor.
"""

import math

import numpy as np
import pytest

from renyi_ent import (
    GHZ,
    MCBD,
    AlphaZ,
    AntisymPair,
    BellDiagonal,
    DensityMatrix,
    Dicke,
    HermitianOperator,
    Isotropic,
    Werner,
    ansatz_optimizer,
    build,
    certify_optimizer,
    eig_hermitian,
    max_product_overlap,
    tensor_product,
    tensor_product_merged,
    xi,
)
from renyi_ent.cli import DEFAULT_GRID, DEFAULT_TABLE1_FAMILIES
from renyi_ent.certificates import _ENTRY_FLOPS, XiEvaluation, _entry_plan
from renyi_ent.linalg import ColumnSparse, _joint_spectrum, hermitian_part
from oracles import _permute_rows, entry_plan_reference, factor_matrix, reference_basis, witness_overlap

CATALOG = [
    BellDiagonal((0.7, 0.15, 0.1, 0.05)),
    Werner(0.2, 3),
    Werner(0.0, 5),
    Isotropic(0.8, 4),
    Isotropic(0.8, 30),  # one column with T = d = 30 nonzeros
    Dicke(3, (2, 1)),
    Dicke(3, (1, 1, 1)),  # a group of 6: complex DFT columns
    Dicke(4, (2, 1, 1)),
    MCBD((0.5, 0.3, 0.2)),
    GHZ(3, 3),
    AntisymPair(3),
    AntisymPair(4),
]
LARGE_GROUP_DICKE = Dicke(8, (4, 4))  # rank-1 rho on a column of 70 nonzeros: 3,675 entries a party against r (n + d^2) = 260


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes, a zero's sign aside (x + 0.0 maps -0.0 to 0.0 and keeps every other bit)."""
    return a.dtype == b.dtype and a.shape == b.shape and (a + 0.0).tobytes() == (b + 0.0).tobytes()


def unitary(n: int, seed: int, real: bool) -> np.ndarray:
    """A seeded orthogonal (``real``) or unitary n x n matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    return np.linalg.qr(g if real else g + 1j * rng.standard_normal((n, n)))[0]


def dense_operand(kind: str, dims: tuple[int, ...], seed: int) -> HermitianOperator:
    """An operand with a dense basis: a state or an operator on a given real or complex basis, or
    (``"entries"``) an operator given by its entries, whose basis is one ``eigh``'s."""
    n = math.prod(dims)
    w = np.random.default_rng(seed).random(n) + 0.1
    if kind == "entries":
        u = unitary(n, seed, False)
        return HermitianOperator(hermitian_part((u * (w - 0.5)) @ u.conj().T), dims)
    u = unitary(n, seed, kind.startswith("real"))
    if kind.endswith("state"):
        return DensityMatrix.from_eigenpairs(w / w.sum(), u, dims)
    return HermitianOperator.from_eigenpairs(w - 0.5, u, dims)


def kron_reference(a, b, va: np.ndarray, vb: np.ndarray, merge: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.kron of the eigenvalues, of the bases va, vb and of the entries; with ``merge``, the basis's rows and
    the entries' rows and columns moved by ``_permute_rows`` into the merged order (a1, b1, a2, b2, ...)."""
    w = np.kron(eig_hermitian(a).eigenvalues, eig_hermitian(b).eigenvalues)
    v, m = np.kron(va, vb), np.kron(a.entries, b.entries)
    if merge:
        dims, n = a.dims + b.dims, len(a.dims)
        perm = tuple(x for j in range(n) for x in (j, n + j))
        v, m = _permute_rows(v, dims, perm), _permute_rows(_permute_rows(m, dims, perm).T, dims, perm).T
    return w, v, m


def assert_products_are_the_reference(a, b, va: np.ndarray, vb: np.ndarray, basis_type: type) -> None:
    """Both products of a and b (dense bases va, vb) hold kron_reference's eigenvalues, basis and entries bit
    for bit, store their basis as a ``basis_type``, and are states exactly when both operands are."""
    state = isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix)
    for merge, product in ((False, tensor_product), (True, tensor_product_merged)):
        op = product(a, b)
        dec, (w, v, m) = eig_hermitian(op), kron_reference(a, b, va, vb, merge)
        assert "entries" not in vars(op) and type(op) is (DensityMatrix if state else HermitianOperator)
        assert type(dec.basis) is basis_type
        assert same_bits(dec.eigenvalues, w) and same_bits(dec.vectors, v) and same_bits(op.entries, m)


class TestStoredBases:
    @pytest.mark.parametrize("family", CATALOG + [LARGE_GROUP_DICKE], ids=repr)
    def test_vectors_formed_on_read_are_the_dense_construction(self, family):
        rho, tau = build(family), ansatz_optimizer(family, AlphaZ(2.0, 2.0))
        dec = eig_hermitian(rho)
        assert isinstance(dec.basis, ColumnSparse) and "vectors" not in vars(dec)
        ref = reference_basis(family)
        assert same_bits(dec.vectors, ref) and not dec.vectors.flags.writeable
        assert same_bits(eig_hermitian(tau).vectors, ref)
        # the nonzeros are exactly the DFT blocks' entries: every column holds its group's T_j
        assert dec.basis.vals.size == np.count_nonzero(ref) and np.all(np.diff(dec.basis.cols) >= 0)

    @pytest.mark.parametrize("pair", [(Werner(0.2, 3), Isotropic(0.8, 3)), (Dicke(3, (1, 1, 1)), GHZ(2, 3)),
                                      (BellDiagonal((0.7, 0.15, 0.1, 0.05)), MCBD((0.6, 0.4)))], ids=repr)
    def test_products_are_np_kron_and_the_row_permute(self, pair):
        a, b = (build(f) for f in pair)
        assert_products_are_the_reference(a, b, *(reference_basis(f) for f in pair), ColumnSparse)

    def test_an_operator_on_a_sparse_basis_makes_a_sparse_product(self):
        a, dec = build(Werner(0.2, 3)), eig_hermitian(build(Isotropic(0.8, 3)))
        b = HermitianOperator.from_eigenpairs(dec.eigenvalues - 0.2, dec.basis, (3, 3))
        va, vb = reference_basis(Werner(0.2, 3)), reference_basis(Isotropic(0.8, 3))
        assert_products_are_the_reference(a, b, va, vb, ColumnSparse)
        assert_products_are_the_reference(b, a, vb, va, ColumnSparse)

    @pytest.mark.parametrize("kinds", [("real state", "real state"), ("complex state", "complex state"),
                                       ("real state", "complex operator"), ("real operator", "entries")], ids=str)
    @pytest.mark.parametrize("dims", [((2, 2), (3, 2)), ((2, 1, 2), (2, 2, 3))], ids=["2 parties", "3 parties"])
    def test_dense_factors_make_a_dense_product(self, kinds, dims):
        a, b = (dense_operand(kind, d, seed) for kind, d, seed in zip(kinds, dims, (1, 2)))
        assert_products_are_the_reference(a, b, eig_hermitian(a).vectors, eig_hermitian(b).vectors, np.ndarray)
        assert eig_hermitian(tensor_product(a, b)).vectors.dtype == (float if kinds[0] == kinds[1] == "real state" else complex)

    @pytest.mark.parametrize("family,dense", [(Werner(0.2, 3), HermitianOperator(np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))),
                                              (Dicke(3, (1, 1, 1)), dense_operand("real state", (2, 1, 2), 3))], ids=repr)
    def test_a_dense_factor_makes_a_dense_product(self, family, dense):
        a, va, vb = build(family), reference_basis(family), eig_hermitian(dense).vectors
        assert_products_are_the_reference(a, dense, va, vb, np.ndarray)
        assert_products_are_the_reference(dense, a, vb, va, np.ndarray)

    def test_columns_out_of_order_rejected(self):
        rows, vals = np.array([0, 1]), np.array([1.0, 1.0])
        with pytest.raises(ValueError, match="ascending"):
            ColumnSparse(rows, np.array([1, 0]), vals, (2, 2))
        b = ColumnSparse(rows, np.array([0, 0]), vals, (2, 2))
        assert np.array_equal(XiEvaluation("commuting", (2,), b).diagonal(np.arange(2)), [1.0, 1.0])  # the row sums
        i, i2, x = b.gram  # both rows share column 0: all four entries of A A†, each 1
        assert np.array_equal(i, [0, 0, 1, 1]) and np.array_equal(i2, [0, 1, 0, 1]) and np.array_equal(x, [1.0] * 4)

    def test_reading_vectors_is_a_dense_formation(self, dense_shapes):
        rho = build(Werner(0.2, 4))
        assert dense_shapes == []
        eig_hermitian(rho).vectors
        assert dense_shapes == [(16, 16)]


class TestRoutes:
    @pytest.mark.parametrize("family", CATALOG, ids=repr)
    def test_shared_basis_pairs_keep_their_routes(self, family):
        rho = build(family)
        for a, z in DEFAULT_GRID if not isinstance(family, AntisymPair) else [(2.0, 2.0), (0.5, 0.5)]:
            p = AlphaZ(a, z)
            ev = xi(rho, ansatz_optimizer(family, p), p)
            assert ev.route == ("boundary-line" if p.on_reverse_line or p.on_lower_line else "commuting")
            assert isinstance(ev.factor, ColumnSparse)

    def test_a_dense_basis_never_matches_a_sparse_one(self):
        family = Werner(0.2, 3)
        rho, tau = build(family), ansatz_optimizer(family, AlphaZ(2.0, 2.0))
        dec = eig_hermitian(tau)
        dense = HermitianOperator.from_eigenpairs(dec.eigenvalues, np.array(dec.vectors), tau.dims)
        assert _joint_spectrum(rho, tau) is not None
        assert _joint_spectrum(rho, dense) is None and _joint_spectrum(dense, rho) is None
        assert _joint_spectrum(dense, HermitianOperator.from_eigenpairs(dec.eigenvalues, np.array(dec.vectors), tau.dims))

    def test_a_shared_dense_basis_merged_with_a_catalog_pair_stays_commuting(self):
        # a separable pair, both on one given product basis u: its optimum is its own state, so the
        # merged pair's optimum is the catalog ansatz with it merged in; both merged bases are dense
        u = np.kron(unitary(2, 1, False), unitary(2, 2, False))
        w = np.array([0.4, 0.3, 0.2, 0.1])
        first = (DensityMatrix.from_eigenpairs(w, u, (2, 2)), DensityMatrix.from_eigenpairs(w.copy(), u, (2, 2)))
        family, p = Werner(0.2, 3), AlphaZ(2.0, 2.0)
        rho, tau = tensor_product_merged(first[0], build(family)), tensor_product_merged(first[1], ansatz_optimizer(family, p))
        assert isinstance(eig_hermitian(rho).basis, np.ndarray) and _joint_spectrum(rho, tau) is not None
        report = certify_optimizer(rho, tau, p)
        assert report.route == "commuting" and report.verdict == "certified-optimal"

    def test_sparse_bases_differing_in_one_value_are_not_shared(self):
        family = Werner(0.2, 3)
        rho, tau = build(family), ansatz_optimizer(family, AlphaZ(2.0, 2.0))
        b = eig_hermitian(tau).basis
        vals = b.vals.copy()
        vals[-1] = np.nextafter(vals[-1], 1.0)
        nudged = HermitianOperator.from_eigenpairs(eig_hermitian(tau).eigenvalues, ColumnSparse(b.rows, b.cols, vals, b.shape), tau.dims)
        assert _joint_spectrum(rho, nudged) is None


def lower_entry_counts(ev) -> list[int]:
    """Per party k, the nonzeros with a_i >= a_i' of a dense F F† (a the party-k index), formed here
    from |F| so that no sum cancels to a rounding-level zero, which a plain F F† product does not rule out."""
    f = np.abs(factor_matrix(ev))
    stored = (f @ f.T) != 0
    return [int(np.count_nonzero(stored & (a[:, None] >= a[None, :]))) for a in np.unravel_index(np.arange(f.shape[0]), ev.dims)]


def forced_plan(ev, k: int) -> tuple:
    """Party k's entry plan with no budget: the sparse path, whatever the cost rule picks."""
    return _entry_plan(ev.factor.gram, ev.dims, k, math.inf)


def random_restarts(dims, rows=16, seed=5):
    rng = np.random.default_rng(seed)
    vecs = [rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d)) for d in dims]
    return [v / np.linalg.norm(v, axis=1, keepdims=True) for v in vecs]


class TestSparseContraction:
    @pytest.mark.parametrize("family", CATALOG + [LARGE_GROUP_DICKE], ids=repr)
    @pytest.mark.parametrize("alpha,z", [(2.0, 2.0), (0.5, 0.5)])
    def test_sparse_and_dense_factor_local_matrices_agree(self, family, alpha, z):
        p = AlphaZ(alpha, z)
        ev = xi(build(family), ansatz_optimizer(family, p), p)
        vecs = random_restarts(ev.dims)
        for k in range(len(ev.dims)):
            sparse, dense = ev._sparse_local(k, vecs, forced_plan(ev, k)), ev._factor_local(k, vecs)
            scale = np.max(np.abs(dense), axis=(1, 2))
            assert np.all(np.max(np.abs(sparse - dense), axis=(1, 2)) <= 1e-13 * scale)
        f = factor_matrix(ev)
        idx = np.arange(f.shape[0])
        assert np.allclose(ev.diagonal(idx), (f * f.conj()).real.sum(1), rtol=1e-14, atol=0.0)

    # each pick is the faster path as timed at 64 restarts, BLAS 1 thread: sparse 2x faster for
    # MCBD((0.1,) * 10), 5-50x for the others; dense-factor 1.3x faster for Dicke(3, (1, 1, 1)), 2.4x for
    # Dicke(4, (2, 1, 1)), 20x for Dicke(8, (4, 4)); GHZ(3, 3), a tie, keeps its former dense-factor path
    @pytest.mark.parametrize("family,sparse", [(Isotropic(0.8, 30), True), (AntisymPair(5), True),
                                               (Werner(0.2, 10), True), (Isotropic(0.8, 10), True),
                                               (MCBD((0.1,) * 10), True), (GHZ(3, 3), False),
                                               (Dicke(3, (1, 1, 1)), False), (Dicke(4, (2, 1, 1)), False),
                                               (LARGE_GROUP_DICKE, False)], ids=repr)
    def test_the_cost_rule_picks_the_path(self, monkeypatch, family, sparse):
        p = AlphaZ(2.0, 2.0)
        ev = xi(build(family), ansatz_optimizer(family, p), p)
        f, calls = ev.factor, []
        for name in ("_sparse_local", "_factor_local"):
            original = getattr(type(ev), name)
            monkeypatch.setattr(type(ev), name, lambda self, *a, _n=name, _o=original: calls.append(_n) or _o(self, *a))
        ev.local_matrices(0, random_restarts(ev.dims, rows=2))
        rule = [_ENTRY_FLOPS * e < f.shape[1] * (f.shape[0] + d * d) for e, d in zip(lower_entry_counts(ev), ev.dims)]
        assert [p is not None for p in ev._plans] == [sparse] * len(ev.dims) == rule
        assert calls == ["_sparse_local" if sparse else "_factor_local"]

    def test_a_large_group_dicke_forms_no_pair_plan(self):
        p = AlphaZ(2.0, 2.0)
        ev = xi(build(LARGE_GROUP_DICKE), ansatz_optimizer(LARGE_GROUP_DICKE, p), p)
        max_product_overlap(ev, restarts=8)
        assert ev._plans == [None] * 8 and "_layouts" in vars(ev)


class TestEntryContraction:
    """The sparse contraction reads Xi's entries on or below party k's diagonal and mirrors the rest;
    every party of every catalog family, with the sparse path forced (``_sparse_local`` called directly on
    a plan made with no budget)."""

    @staticmethod
    def evaluation(family):
        p = AlphaZ(2.0, 2.0)
        return xi(build(family), ansatz_optimizer(family, p), p)

    @pytest.mark.parametrize("family", CATALOG + [LARGE_GROUP_DICKE], ids=repr)
    def test_local_matrices_are_exactly_hermitian(self, family):
        ev = self.evaluation(family)
        vecs = random_restarts(ev.dims)
        for k, d in enumerate(ev.dims):
            m = ev._sparse_local(k, vecs, forced_plan(ev, k))
            a, b = np.tril_indices(d, -1)
            assert np.ascontiguousarray(m[:, b, a]).tobytes() == np.ascontiguousarray(m[:, a, b].conj()).tobytes()
            assert np.all(np.einsum("kii->ki", m).imag == 0.0)

    @pytest.mark.parametrize("family", CATALOG + [LARGE_GROUP_DICKE], ids=repr)
    def test_entry_count_is_the_dense_lower_triangle(self, family):
        ev = self.evaluation(family)
        for k, lower in enumerate(lower_entry_counts(ev)):
            plan = forced_plan(ev, k)
            assert plan[0].size == plan[1].size == plan[2].size == sum(plan[3]) == lower

    def test_antisym_pair_5_reads_1000_entries_per_party(self):
        ev = self.evaluation(AntisymPair(5))
        for k in range(2):
            ev.local_matrices(k, random_restarts(ev.dims, rows=2))
        assert [p is not None for p in ev._plans] == [True, True]
        assert [p[2].size for p in ev._plans] == [1000, 1000]  # 1,600 pair products before


PRODUCTS = [(Werner(0.2, 3), Isotropic(0.8, 4)), (Werner(0.0, 3), GHZ(2, 3)),
            (MCBD((0.5, 0.3, 0.2)), Werner(0.2, 5)), (Dicke(3, (2, 1)), GHZ(3, 3))]  # unequal party dims


class TestEntryPlan:
    """The entry plan reads party indices by strides; the reference reads them by ``np.unravel_index`` and
    ``np.ravel_multi_index``. Bit for bit the same plan, for every party, equal party dims or not."""

    @staticmethod
    def assert_reference_plan(ev):
        assert isinstance(ev.factor, ColumnSparse)
        for k in range(len(ev.dims)):
            plan, ref = forced_plan(ev, k), entry_plan_reference(ev.factor.gram, ev.dims, k)
            assert len(plan) == len(ref) == 7
            for got, want in zip(plan, ref):
                if isinstance(want, list):
                    assert type(got) is list and got == want
                else:
                    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", CATALOG + [LARGE_GROUP_DICKE], ids=repr)
    def test_catalog_plans_are_the_unravel_plans(self, family):
        self.assert_reference_plan(TestEntryContraction.evaluation(family))

    @pytest.mark.parametrize("pair", PRODUCTS, ids=repr)
    def test_product_plans_are_the_unravel_plans(self, pair):
        p = AlphaZ(2.0, 2.0)
        ev = xi(tensor_product(*(build(f) for f in pair)), tensor_product(*(ansatz_optimizer(f, p) for f in pair)), p)
        assert ev.dims == tuple(d for f in pair for d in build(f).dims)
        self.assert_reference_plan(ev)

    @pytest.mark.parametrize("family", [LARGE_GROUP_DICKE, AntisymPair(5)], ids=repr)
    def test_local_matrices_need_no_unravel(self, monkeypatch, family):
        ev = TestEntryContraction.evaluation(family)
        vecs = random_restarts(ev.dims, rows=2)

        def refuse(*args, **kwargs):
            raise AssertionError("a party index was unravelled")

        for name in ("unravel_index", "ravel_multi_index"):
            monkeypatch.setattr(np, name, refuse)
        for k in range(len(ev.dims)):
            assert ev.local_matrices(k, vecs).shape == (2, ev.dims[k], ev.dims[k])


TABLE1_POINTS = [AlphaZ(a, z) for a, z in DEFAULT_GRID if AlphaZ(a, z).in_dpi_region]


class TestWitnessGuard:
    """Every certified Lambda^2 equals its witness's overlap ||F† (w_1 (x) ... (x) w_N)||^2 on a dense F
    formed in the oracle, within 1e-12 relative."""

    @staticmethod
    def check(family, p):
        rho, tau = build(family), ansatz_optimizer(family, p)
        report = certify_optimizer(rho, tau, p)
        overlap = witness_overlap(rho, tau, p, report.witness)
        assert abs(overlap - report.lambda_sq) <= 1e-12 * abs(report.lambda_sq), (family, p)

    @pytest.mark.parametrize("family", DEFAULT_TABLE1_FAMILIES, ids=repr)
    def test_table1_families_on_the_default_grid(self, family):
        for p in TABLE1_POINTS:
            self.check(family, p)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_antisym_pairs(self, d):
        self.check(AntisymPair(d), AlphaZ(2.0, 2.0))
