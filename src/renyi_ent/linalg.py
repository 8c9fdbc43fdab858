"""Complex Hermitian linear algebra with tensor-partition bookkeeping.

A general route reads explicit n x n matrices; an operator built from its
spectrum forms its entries only when they are read, so a catalog pair of a
few thousand dimensions is handled without them. An operator's support is
the span of its eigenvectors with eigenvalue above
``SUPPORT_CUT * lambda_max``; this one cut is used everywhere. Negative and
fractional matrix powers are taken in the generalized-inverse sense: the
eigenvalues below the cut map to zero regardless of the exponent, so
``H ** 0`` is the support projector. Support containment and orthogonality
are decided from the weight an operator puts on the other one's cached
support or kernel eigenvectors, never from d x d projectors; on a shared
basis those weights are its own eigenvalues. A basis given at construction
may be column-sparse (:class:`ColumnSparse`): the catalog bases and their
tensor products are kept as their nonzeros, and a dense basis is formed only
when a general route reads it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

# The one tolerance table, one row each: value  # relative to what: why. No other module defines a tolerance.
HERMITICITY_RTOL = 1e-12  # of max|entry|, per entry: M - M† at rounding level is a Hermitian input, at any scale
TRACE_ATOL = 1e-10  # absolute: a state's trace (or a spectrum's sum, in renyi_entropy) is 1 by definition
PROB_ATOL = 1e-12  # absolute: probabilities, their sums and the family parameters have scale 1 by definition
LINE_ATOL = 1e-12  # absolute, on alpha and z: the lines alpha = 1, z = |1 - alpha| are fixed; a hit picks a route
SUPPORT_CUT = 1e-10  # of lambda_max: support, powers, PSD (a negative eigenvalue inside it is 0); of max|entry|: MC
ASCENT_TOL = 1e-12  # of max(1, |value|): a Lambda^2 restart stops once a sweep gains at most this
RAYLEIGH_RTOL = ASCENT_TOL / 10  # of lambda's spectral radius: a solved vector's quotient, below the ascent's gain
DEGENERACY_RTOL = 1e-12  # of the larger eigenvalue: closer ones take phi's diagonal limit; their quotient is noise
TOL_CERT_REL = 1e-7  # of q for the verdict (tol_cert), of max(1, |lambda_sq|) for restart_hits: margin resolution
STATIONARY_TOL = 1e-12  # of Q, as max_j r_j - 1 on the support: a simplex run stops; its margin is then ~ -1e-12 Q
NOISE_REL = 1e-13  # of max(1, |f|): a simplex step may raise f by this float noise if it lowers the stationarity gap
TABLE1_TOL = 1e-6  # absolute, in bits: a table1 row's certified value against its closed form, both O(1) bits


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """Return (M + M†)/2, matrix by matrix over any leading batch axes."""
    return (matrix + matrix.conj().swapaxes(-1, -2)) / 2


@dataclass(frozen=True, eq=False)
class ColumnSparse:
    """An (n, m) array by its nonzeros: row indices, column indices in ascending order, and values.

    The arrays become the instance's, read-only, uncopied. A catalog basis is a DFT block per small
    index group, so its tensor products, row permutations and column selections run on the nonzeros
    alone; :meth:`toarray` forms the dense array, and only it. It knows no tensor partition: storage,
    column selection and the stored entries of A A† (:attr:`gram`) are all it does.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        if np.any(self.cols[1:] < self.cols[:-1]):
            raise ValueError("column indices must be in ascending order")
        for a in (self.rows, self.cols, self.vals):
            a.flags.writeable = False

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out

    def columns(self, keep: np.ndarray, scale: np.ndarray) -> ColumnSparse:
        """The columns where ``keep`` holds, renumbered in order, column j times ``scale[j]``."""
        sel = keep[self.cols]
        cols = self.cols[sel]
        return ColumnSparse(self.rows[sel], (np.cumsum(keep) - 1)[cols], self.vals[sel] * scale[cols],
                            (self.shape[0], int(np.count_nonzero(keep))))

    @cached_property
    def gram(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored entries of A A†: rows i, columns i' and values sum_j A_ij conj(A_i'j), one for each
        pair of rows with nonzeros in a common column, in order of (i, i'). Each is summed once, here, over
        the pairs of nonzeros (t, u) that share a column, in column order; a sum that cancels is kept."""
        counts = np.bincount(self.cols, minlength=self.shape[1])
        # T of each nonzero's column, and that column's first nonzero
        reps, first = counts[self.cols], (np.cumsum(counts) - counts)[self.cols]
        t = np.repeat(np.arange(self.cols.size), reps)  # pairs with every nonzero of its column, itself included
        u = np.arange(t.size) - np.repeat(np.cumsum(reps) - reps - first, reps)  # first, first + 1, ... within t's run
        key = self.rows[t] * self.shape[0] + self.rows[u]
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        i, i2 = np.divmod(key[starts], self.shape[0])
        out = (i, i2, np.add.reduceat(self.vals[t[order]] * self.vals[u[order]].conj(), starts))
        for a in out:
            a.flags.writeable = False  # cached and shared, as the arrays it is formed from
        return out


@dataclass(frozen=True)
class EigenDecomposition:
    """Real eigenvalues and a unitary of column eigenvectors: ascending after an ``eigh``, and in the
    order given for a spectrum given at construction, so read an extreme by value, never by position.
    ``basis`` is the eigenvectors as given, dense or column-sparse; ``vectors`` is the dense array."""

    eigenvalues: np.ndarray
    basis: np.ndarray | ColumnSparse

    @cached_property
    def vectors(self) -> np.ndarray:
        """The basis itself when dense, else formed from it on first read, read-only."""
        if isinstance(self.basis, np.ndarray):
            return self.basis
        v = self.basis.toarray()
        v.flags.writeable = False
        return v


class HermitianOperator:
    """A d x d complex Hermitian matrix tagged with the local dimensions ``dims`` of its tensor factors.

    ``HermitianOperator(entries, dims)`` validates ``dims`` (at least one factor, each >= 1), that every
    entry is finite, hermiticity (per-entry tolerance HERMITICITY_RTOL * max|entry|) and that the matrix
    dimension is the product n of ``dims``; its spectrum is one ``eigh`` on first use.
    ``HermitianOperator(form, dims, (w, V))`` is built from a known spectrum (:meth:`from_eigenpairs`, the
    tensor products) and Hermitian by construction: it validates ``dims`` and that w is (n,) and V (n, n),
    dense or :class:`ColumnSparse`, both finite, and keeps the spectrum as given: the arrays become the
    operator's, read-only, uncopied. Its
    ``entries`` are ``form(op)``, formed on first read; ``dim``, ``trace`` and every spectral query
    (powers, support, dominance, Xi) read the spectrum. ``entries`` is read-only; instances are immutable
    and compare and hash by identity.
    """

    def __init__(self, entries, dims: Iterable[int], spectrum: tuple[np.ndarray, np.ndarray] | None = None):
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("partition must have at least one factor")
        if any(d < 1 for d in dims):
            raise ValueError(f"local dimensions must be >= 1, got {dims}")
        n = math.prod(dims)
        if spectrum is None:
            m = np.array(entries, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"expected a square matrix, got shape {m.shape}")
            if m.shape[0] != n:
                raise ValueError(f"matrix dimension {m.shape[0]} does not match partition {dims}")
            scale = float(np.max(np.abs(m)))
            if not math.isfinite(scale):
                raise ValueError("matrix has non-finite entries")
            with np.errstate(over="ignore"):  # a difference past the float range is past the bound too
                asym = np.max(np.abs(m - m.conj().T))
            if asym > HERMITICITY_RTOL * scale:
                raise ValueError(f"matrix is not Hermitian within {HERMITICITY_RTOL:g} * max|entry|")
            m.flags.writeable = False
            self.__dict__["entries"] = m
        else:
            w, v = spectrum
            if w.shape != (n,) or v.shape != (n, n):
                raise ValueError(f"eigenpairs of shapes {w.shape} and {v.shape} do not match partition {dims}")
            values = v.vals if isinstance(v, ColumnSparse) else v  # a sparse basis's indices are read-only already
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(values))):
                raise ValueError("matrix has non-finite entries")
            w.flags.writeable = values.flags.writeable = False
            self.__dict__.update(_form=entries, _eig=EigenDecomposition(eigenvalues=w, basis=v))
        self.__dict__["dims"] = dims

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    @cached_property
    def entries(self) -> np.ndarray:
        """Formed on first read for an operator built from its spectrum."""
        m = np.asarray(self._form(self), dtype=complex)
        m.flags.writeable = False
        return m

    @classmethod
    def from_eigenpairs(cls, w: np.ndarray, vectors: np.ndarray | ColumnSparse, dims: Iterable[int]) -> HermitianOperator:
        """Hermitian part of V diag(w) V† (orthonormal V); the arrays become its spectrum, read-only, uncopied."""
        if not isinstance(vectors, ColumnSparse):
            vectors = np.asarray(vectors)
            vectors = vectors.astype(np.result_type(vectors, float), copy=False)  # a real V stays real
        return cls(_eigenpair_entries, dims, (np.asarray(w, dtype=float), vectors))

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def trace(self) -> float:
        """tr of the matrix; from a spectrum (w, V) given at construction, sum_j w_j ||v_j||^2, the squared
        column norms summed over V's nonzeros, or over a dense V's real and imaginary parts (views, so no
        second n x n array)."""
        if "_form" not in self.__dict__:
            return float(np.trace(self.entries).real)
        w, v = self._eig.eigenvalues, self._eig.basis
        if isinstance(v, ColumnSparse):
            return float(np.einsum("t,t,t->", w[v.cols], v.vals.conj(), v.vals).real)
        parts = (v.real, v.imag) if np.iscomplexobj(v) else (v,)
        return float(w @ sum(np.einsum("ij,ij->j", x, x) for x in parts))

    @cached_property
    def _eig(self) -> EigenDecomposition:
        """One ``eigh``, for an operator built without its spectrum."""
        w, v = np.linalg.eigh(self.entries)
        w.flags.writeable = v.flags.writeable = False
        return EigenDecomposition(eigenvalues=w, basis=v)


class DensityMatrix(HermitianOperator):
    """A positive semidefinite, unit-trace HermitianOperator (compared by identity).

    The PSD check reads the spectrum and the trace check :meth:`~HermitianOperator.trace`, so a state
    built with a known ``spectrum`` is checked without a decomposition of its own or its entries.
    """

    def __init__(self, entries, dims, spectrum=None):
        super().__init__(entries, dims, spectrum)
        require_psd(eig_hermitian(self).eigenvalues)
        if abs(self.trace() - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace is {self.trace():.12f}, expected 1")


def _eigenpair_entries(op: HermitianOperator) -> np.ndarray:
    """hermitian_part((V * w) @ V†) of the spectrum given at construction."""
    v = op._eig.vectors
    return hermitian_part((v * op._eig.eigenvalues) @ v.conj().T)


def require_psd(eigenvalues: np.ndarray) -> None:
    """Reject a spectrum, in any order, whose least eigenvalue is below -SUPPORT_CUT * max(lambda_max, tiny)."""
    low, top = float(np.min(eigenvalues)), max(float(np.max(eigenvalues)), 0.0)
    if low < -SUPPORT_CUT * max(top, np.finfo(float).tiny):
        raise ValueError(f"not positive semidefinite: min eigenvalue {low:.3e}")


def _ii_indices(d: int) -> np.ndarray:
    """Flat indices of the product states |ii>, i = 0..d-1, of C^d (x) C^d."""
    return np.arange(d) * (d + 1)


def density(matrix: np.ndarray, dims: Iterable[int]) -> DensityMatrix:
    """Symmetrize a numerically-Hermitian matrix and validate it as a state."""
    return DensityMatrix(hermitian_part(np.asarray(matrix, dtype=complex)), dims)


def pure_density(vector: np.ndarray, dims: Iterable[int]) -> DensityMatrix:
    v = np.asarray(vector, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), dims)


def eig_hermitian(op: HermitianOperator) -> EigenDecomposition:
    """The operator's cached spectrum; both arrays are read-only."""
    return op._eig


def _support_mask(w: np.ndarray) -> np.ndarray:
    """Eigenvalues above ``SUPPORT_CUT * lambda_max``, row by row over any leading axes (none if lambda_max <= 0)."""
    return w > SUPPORT_CUT * np.maximum(np.max(w, axis=-1, keepdims=True), 0.0)


def _power_values(w: np.ndarray, p: float, keep: np.ndarray | None = None) -> np.ndarray:
    """The generalized power of eigenvalues: w^p on ``keep`` (default: above the support cut), 0 elsewhere.

    A value outside the float range raises ValueError naming the exponent.
    """
    keep = _support_mask(w) if keep is None else keep
    pw = np.zeros_like(w)
    with np.errstate(over="ignore"):
        pw[keep] = w[keep] ** p
    if not np.all(np.isfinite(pw)):
        raise ValueError(f"matrix power with exponent {p:.6g} overflows the float range")
    return pw


def _power(m: HermitianOperator, p: float) -> np.ndarray:
    """The raw generalized power (v * w^p) @ v† of an operator's cached spectrum, not symmetrized.

    A power outside the float range raises ValueError naming the exponent; the
    entries of the product are bounded by the largest power.
    """
    dec = eig_hermitian(m)
    v = dec.vectors
    return (v * _power_values(dec.eigenvalues, p)) @ v.conj().T


def _same_basis(x: np.ndarray | ColumnSparse, y: np.ndarray | ColumnSparse) -> bool:
    """Both dense and equal, or both column-sparse with equal shapes, indices and values."""
    if isinstance(x, ColumnSparse) and isinstance(y, ColumnSparse):
        return x.shape == y.shape and all(map(np.array_equal, (x.rows, x.cols, x.vals), (y.rows, y.cols, y.vals)))
    return isinstance(x, np.ndarray) and isinstance(y, np.ndarray) and np.array_equal(x, y)


def _joint_spectrum(a: HermitianOperator, b: HermitianOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray | ColumnSparse] | None:
    """(wa, wb, V) with a = V diag(wa) V† and b = V diag(wb) V† (the spectra given at construction), or None.

    Two operators share a basis when both spectra were given at construction and
    their bases, kept as given, are bitwise equal (:func:`_same_basis`; a dense
    basis never matches a column-sparse one). No tolerance decides this: a miss
    only sends the caller down its general route. V is the basis as given.
    """
    # read only spectra given at construction: never decompose just to find no shared basis
    if "_form" not in a.__dict__ or "_form" not in b.__dict__ or not _same_basis(a._eig.basis, b._eig.basis):
        return None
    return a._eig.eigenvalues, b._eig.eigenvalues, a._eig.basis


def _stored_entries(op: HermitianOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, i', op_ii'), broadcastable: the gram of V sqrt(w) for a column-sparse spectrum with w >= 0, else op.entries."""
    dec = op.__dict__.get("_eig")  # only a spectrum given at construction is column-sparse: never decompose here
    if dec is not None and isinstance(dec.basis, ColumnSparse) and np.all(dec.eigenvalues >= 0):
        return dec.basis.columns(dec.eigenvalues > 0, np.sqrt(dec.eigenvalues)).gram
    return np.arange(op.dim)[:, None], np.arange(op.dim)[None, :], op.entries


def _split_weights(op: HermitianOperator, other: HermitianOperator, support: bool) -> tuple[np.ndarray, np.ndarray]:
    """other's eigenvalues on its support (or kernel) and op's weights <u_j| op |u_j> on their eigenvectors u_j.

    On a shared basis those weights are op's own eigenvalues.
    """
    joint = _joint_spectrum(op, other)
    if joint is None:
        dec = eig_hermitian(other)
        keep = _support_mask(dec.eigenvalues) == support
        return dec.eigenvalues[keep], _weights_on(op, dec.vectors[:, keep])
    keep = _support_mask(joint[1]) == support
    return joint[1][keep], joint[0][keep]


def _weights_on(op: HermitianOperator, columns: np.ndarray) -> np.ndarray:
    """<b_j| op |b_j> for each orthonormal column b_j of ``columns``."""
    m = op.entries
    if columns.shape[0] != m.shape[0]:
        raise ValueError(f"operators of dimension {m.shape[0]} and {columns.shape[0]} do not act on one space")
    return np.einsum("ij,ij->j", columns.conj(), m @ columns).real


def _negligible_on(op: HermitianOperator, other: HermitianOperator, support: bool) -> bool:
    """Whether op's weight on other's support (or kernel) is at most SUPPORT_CUT * lambda_max(op)."""
    top = max(float(np.max(eig_hermitian(op).eigenvalues)), 0.0)
    return float(np.sum(_split_weights(op, other, support)[1])) <= SUPPORT_CUT * top


def _product(a: HermitianOperator, b: HermitianOperator, merge: bool) -> HermitianOperator:
    """a (x) b, its factors in the order (a1, ..., b1, ...), or with ``merge`` (a1, b1, a2, b2, ...), factor j
    of both operands making party j; a DensityMatrix when both operands are states.

    Each operand's factor axes, with 1s at the other operand's axes, give one layout. Read through it, one
    broadcast product forms a dense basis (rows in the product's order, columns (ja, jb) as np.kron's) and,
    on first read, the entries; a column-sparse basis, when both factors have one, pairs their nonzeros,
    each pair's row the sum of its two rows' places in the same layout (the operands' axes are disjoint)
    and its column (ja, jb), columns sorted stably. The eigenvalues are the products wa_ja wb_jb.
    """
    ones_a, ones_b = (1,) * len(a.dims), (1,) * len(b.dims)
    if not merge:
        sa, sb, dims = a.dims + ones_b, ones_a + b.dims, a.dims + b.dims
    elif len(a.dims) == len(b.dims):
        sa, sb = sum(zip(a.dims, ones_b), ()), sum(zip(ones_a, b.dims), ())
        dims = tuple(x * y for x, y in zip(a.dims, b.dims))
    else:
        raise ValueError(f"party counts differ: {a.dims} vs {b.dims}; cannot merge parties")
    n, ea, eb = a.dim * b.dim, eig_hermitian(a), eig_hermitian(b)
    if isinstance(ea.basis, ColumnSparse) and isinstance(eb.basis, ColumnSparse):
        va, vb, layout = ea.basis, eb.basis, tuple(x * y for x, y in zip(sa, sb))
        ra, rb = (np.ravel_multi_index(np.unravel_index(v.rows, s), layout) for v, s in ((va, sa), (vb, sb)))
        cols = (va.cols[:, None] * b.dim + vb.cols).ravel()
        order = np.argsort(cols, kind="stable")
        rows = (ra[:, None] + rb).ravel()[order]
        v = ColumnSparse(rows, cols[order], (va.vals[:, None] * vb.vals).ravel()[order], (n, n))
    else:
        v = (ea.vectors.reshape(sa + (-1, 1)) * eb.vectors.reshape(sb + (1, -1))).reshape(n, n)
    form = lambda _: (a.entries.reshape(sa + sa) * b.entries.reshape(sb + sb)).reshape(n, n)  # noqa: E731
    kind = DensityMatrix if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix) else HermitianOperator
    return kind(form, dims, (np.multiply.outer(ea.eigenvalues, eb.eigenvalues).ravel(), v))


def tensor_product(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """The Kronecker product a (x) b, its ``dims`` both operands' ``dims`` concatenated, built from the
    factors' spectra by :func:`_product`; a DensityMatrix when both operands are states."""
    return _product(a, b, merge=False)


def tensor_product_merged(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """a (x) b in the party-merging convention: factor j of ``a`` and factor j of ``b`` make party j, of
    dimension ``a.dims[j] * b.dims[j]``, so both operands need the same number of parties (else ValueError).
    Rows and columns run over (a1, b1, a2, b2, ...), a physical factor permutation of np.kron's order, not a
    relabelling; built from the factors' spectra by :func:`_product`, a DensityMatrix when both are states."""
    return _product(a, b, merge=True)


def partial_transpose(op: HermitianOperator, flip: Iterable[int]) -> HermitianOperator:
    """Transpose the factors in ``flip``. Applying it twice is the identity."""
    n = len(op.dims)
    flip = set(int(f) for f in flip)
    if any(f < 0 or f >= n for f in flip):
        raise ValueError(f"flip indices must lie in 0..{n - 1}, got {sorted(flip)}")
    axes = [(i + n) % (2 * n) if i % n in flip else i for i in range(2 * n)]  # a flipped bra swaps with its ket
    return HermitianOperator(op.entries.reshape(op.dims * 2).transpose(axes).reshape(op.dim, op.dim), op.dims)


def random_density(
    d: int, rank: int, seed: int, dims: Iterable[int] | None = None
) -> DensityMatrix:
    """Seeded Ginibre construction G G† / Tr(G G†) with G of shape (d, rank)."""
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in 1..{d}, got {rank}")
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) / np.sqrt(2)
    m = g @ g.conj().T
    m /= np.trace(m).real
    return density(m, (d,) if dims is None else dims)


def _fmt(x) -> str:
    """A float to 12 significant digits ("inf", "nan" included; x + 0.0, so never "-0"), anything else by str."""
    return f"{x + 0.0:.12g}" if isinstance(x, float) else str(x)


def save_operator_json(op: HermitianOperator, path: str) -> None:
    """Write the matrix-file format {"dims": [...], "re": [[...]], "im": [[...]]}."""
    payload = {
        "dims": list(op.dims),
        "re": op.entries.real.tolist(),
        "im": op.entries.imag.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _read_json(path: str):
    """A user JSON file's payload; nesting too deep to parse is a one-line ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"JSON file {path} nests deeper than the parser reads") from None


def _read_matrix_file(path: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """The (matrix, dims) of a matrix file written by :func:`save_operator_json`, checked for shape and finiteness."""
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise ValueError("matrix file must hold a JSON object with keys dims, re, im")
    for key in ("dims", "re", "im"):
        if key not in payload:
            raise ValueError(f"matrix file is missing key '{key}'")
    dims = payload["dims"]
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise ValueError(f"'dims' must be a list of integers, got {dims!r}")
    try:
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except TypeError as exc:
        raise ValueError(f"'re' and 'im' must be nested lists of numbers: {exc}") from exc
    if re.shape != im.shape:
        raise ValueError("re and im blocks have different shapes")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ValueError("matrix file has non-finite entries")
    return re + 1j * im, tuple(dims)


def load_operator_json(path: str) -> HermitianOperator:
    """Load and validate a matrix file written by :func:`save_operator_json`."""
    return HermitianOperator(*_read_matrix_file(path))


def load_density_json(path: str) -> DensityMatrix:
    return DensityMatrix(*_read_matrix_file(path))
