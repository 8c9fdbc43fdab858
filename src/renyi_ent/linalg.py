"""Dense complex Hermitian linear algebra with tensor-partition bookkeeping.

Everything here works on explicit matrices (dimensions up to a few hundred).
An operator's support is the span of its eigenvectors with eigenvalue above
``SUPPORT_CUT * lambda_max``; this one cut is used everywhere. Negative and
fractional matrix powers are taken in the generalized-inverse sense: the
eigenvalues below the cut map to zero regardless of the exponent, so
``H ** 0`` is the support projector. Support containment and orthogonality
are decided from the weight an operator puts on the other one's cached
support or kernel eigenvectors, never from d x d projectors; on a shared
basis those weights are its own eigenvalues.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

# The one tolerance table, one row each: value  # relative to what: why. No other module defines a tolerance.
HERMITICITY_RTOL = 1e-12  # of max|entry|, per entry: M - M† at rounding level is a Hermitian input, at any scale
TRACE_ATOL = 1e-10  # absolute: a state's trace (or a spectrum's sum, in renyi_entropy) is 1 by definition
PROB_ATOL = 1e-12  # absolute: probabilities, their sums and the family parameters have scale 1 by definition
LINE_ATOL = 1e-12  # absolute, on alpha and z: the lines alpha = 1, z = |1 - alpha| are fixed; a hit picks a route
SUPPORT_CUT = 1e-10  # of lambda_max: support, powers, PSD (a negative eigenvalue inside it is 0); of max|entry|: MC
KRYLOV_RTOL = 1e-10  # of |theta|: Krylov residual; its vector only starts restart 0, which the ascent refines
ASCENT_TOL = 1e-12  # of max(1, |value|): a Lambda^2 restart stops once a sweep gains at most this
RAYLEIGH_RTOL = ASCENT_TOL / 10  # of lambda's spectral radius: a solved vector's quotient, below the ascent's gain
DEGENERACY_RTOL = 1e-12  # of the larger eigenvalue: closer ones take phi's diagonal limit; their quotient is noise
TOL_CERT_REL = 1e-7  # of q for the verdict (tol_cert), of max(1, |lambda_sq|) for restart_hits: margin resolution
STATIONARY_TOL = 1e-12  # of Q, as max_j r_j - 1 on the support: a simplex run stops; its margin is then ~ -1e-12 Q
NOISE_REL = 1e-13  # of max(1, |f|): a simplex step may raise f by this float noise if it lowers the stationarity gap
TABLE1_TOL = 1e-6  # absolute, in bits: a table1 row's certified value against its closed form, both O(1) bits

_KRYLOV_BLOCK = 8  # block width of the Krylov top-eigenpair search


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """Return (M + M†)/2, matrix by matrix over any leading batch axes."""
    return (matrix + matrix.conj().swapaxes(-1, -2)) / 2


@dataclass(frozen=True)
class EigenDecomposition:
    """Real eigenvalues and a unitary of column eigenvectors: ascending after an ``eigh``, and in the
    order given for a spectrum given at construction, so read an extreme by value, never by position."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


class HermitianOperator:
    """A d x d complex Hermitian matrix tagged with the local dimensions ``dims`` of its tensor factors.

    ``HermitianOperator(entries, dims)`` validates ``dims`` (at least one factor, each >= 1), that every
    entry is finite, hermiticity (per-entry tolerance HERMITICITY_RTOL * max|entry|) and that the matrix
    dimension is the product n of ``dims``; its spectrum is one ``eigh`` on first use.
    ``HermitianOperator(form, dims, (w, V))`` is built from a known spectrum (:meth:`from_eigenpairs`, the
    tensor products) and Hermitian by construction: it validates ``dims`` and that w is (n,) and V (n, n),
    both finite, and keeps the spectrum as given: the arrays become the operator's, read-only, uncopied. Its
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
            if np.max(np.abs(m - m.conj().T)) > HERMITICITY_RTOL * scale:
                raise ValueError(f"matrix is not Hermitian within {HERMITICITY_RTOL:g} * max|entry|")
            m.flags.writeable = False
            self.__dict__["entries"] = m
        else:
            w, v = spectrum
            if w.shape != (n,) or v.shape != (n, n):
                raise ValueError(f"eigenpairs of shapes {w.shape} and {v.shape} do not match partition {dims}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(v))):
                raise ValueError("matrix has non-finite entries")
            w.flags.writeable = v.flags.writeable = False
            self.__dict__.update(_form=entries, _eig=EigenDecomposition(eigenvalues=w, vectors=v))
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
    def from_eigenpairs(cls, w: np.ndarray, vectors: np.ndarray, dims: Iterable[int]) -> HermitianOperator:
        """Hermitian part of V diag(w) V† (orthonormal V); the arrays become its spectrum, read-only, uncopied."""
        w, v = np.asarray(w, dtype=float), np.asarray(vectors)
        return cls(_eigenpair_entries, dims, (w, v.astype(np.result_type(v, float), copy=False)))  # a real V stays real

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def trace(self) -> float:
        """tr of the matrix; from a spectrum (w, V) given at construction, sum_j w_j ||v_j||^2."""
        if "_form" not in self.__dict__:
            return float(np.trace(self.entries).real)
        dec = self._eig
        return float(dec.eigenvalues @ np.einsum("ij,ij->j", dec.vectors.conj(), dec.vectors).real)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries)))

    @cached_property
    def _eig(self) -> EigenDecomposition:
        """One ``eigh``, for an operator built without its spectrum."""
        w, v = np.linalg.eigh(self.entries)
        w.flags.writeable = v.flags.writeable = False
        return EigenDecomposition(eigenvalues=w, vectors=v)

    @cached_property
    def _top(self) -> tuple[float, np.ndarray]:
        """The top eigenpair (lambda_max, unit vector) by :func:`_krylov_top`, whether or not a spectrum is known."""
        return _krylov_top(self.entries.__matmul__, self.dim)


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


def _result_type(*ops: HermitianOperator) -> type[HermitianOperator]:
    """DensityMatrix when every operand is a state, else HermitianOperator."""
    return DensityMatrix if all(isinstance(x, DensityMatrix) for x in ops) else HermitianOperator


def _krylov_top(matvec: Callable[[np.ndarray], np.ndarray], n: int) -> tuple[float, np.ndarray]:
    """Top eigenpair (theta, x) of an n x n Hermitian matrix M by block Lanczos, given as ``matvec``: B -> M B.

    The block is min(_KRYLOV_BLOCK, n) columns from a fixed-seed complex
    Gaussian; each step appends the next Krylov block, reorthogonalized
    against the whole basis (twice), and takes the top Ritz pair of the
    projected matrix. It stops once ||M x - theta x|| <= KRYLOV_RTOL *
    |theta|, or once the basis spans the whole space, where the Ritz pair is
    exact. The residual is divided by |theta| before its norm is taken, so
    its squares stay in the float range at any scale of M.
    """
    b = min(_KRYLOV_BLOCK, n)
    rng = np.random.default_rng(0)
    basis = np.linalg.qr(rng.standard_normal((n, b)) + 1j * rng.standard_normal((n, b)))[0]
    images = matvec(basis)
    while True:
        w, y = np.linalg.eigh(hermitian_part(basis.conj().T @ images))
        theta, x = float(w[-1]), basis @ y[:, -1]
        width = min(b, n - basis.shape[1])
        scale = abs(theta) or 1.0  # at theta = 0 the residual itself must vanish
        residual = np.linalg.norm((images @ y[:, -1] - theta * x) / scale)
        if residual <= (KRYLOV_RTOL if theta else 0.0) or width == 0:
            return theta, x
        block = images[:, -b:][:, :width]
        for _ in range(2):
            block = np.linalg.qr(block - basis @ (basis.conj().T @ block))[0]
        basis = np.hstack([basis, block])
        images = np.hstack([images, matvec(block)])


def wrap(matrix: np.ndarray, dims: Iterable[int]) -> HermitianOperator:
    """Symmetrize a numerically-Hermitian matrix and wrap it."""
    return HermitianOperator(hermitian_part(np.asarray(matrix, dtype=complex)), dims)


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


def _joint_spectrum(a: HermitianOperator, b: HermitianOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(wa, wb, V) with a = V diag(wa) V† and b = V diag(wb) V† (the spectra given at construction), or None.

    Two operators share a basis when both spectra were given at construction and
    their eigenvector arrays, kept as given, are bitwise equal. No tolerance
    decides this: a miss only sends the caller down its general route.
    """
    # read only spectra given at construction: never decompose just to find no shared basis
    if "_form" not in a.__dict__ or "_form" not in b.__dict__ or not np.array_equal(a._eig.vectors, b._eig.vectors):
        return None
    return a._eig.eigenvalues, b._eig.eigenvalues, a._eig.vectors


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


def _kron_spectrum(a: HermitianOperator, b: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a (x) b from the factors' cached spectra: products of values, Kronecker vectors."""
    ea, eb = eig_hermitian(a), eig_hermitian(b)
    return np.kron(ea.eigenvalues, eb.eigenvalues), np.kron(ea.vectors, eb.vectors)


def tensor_product(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product; its ``dims`` are both operands' ``dims`` concatenated.

    A DensityMatrix when both factors are states. Its spectrum is given at
    construction, assembled from the factors' spectra (:func:`_kron_spectrum`).
    """
    return _result_type(a, b)(lambda _: np.kron(a.entries, b.entries), a.dims + b.dims, _kron_spectrum(a, b))


def _permute_rows(v: np.ndarray, dims: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """Rows of ``v``, indexed by the tensor factors ``dims``, with factor ``perm[j]`` moved to j."""
    return v.reshape(dims + (-1,)).transpose(perm + (len(dims),)).reshape(v.shape)


def _merge_order(n: int) -> tuple[int, ...]:
    """The factor order (a1, b1, a2, b2, ...) that merges factor j of two n-party operators into party j."""
    return tuple(x for j in range(n) for x in (j, n + j))


def _merged_spectrum(a: HermitianOperator, b: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs (w, V) of tensor_product_merged(a, b): a (x) b's, with V's rows in merged order."""
    w, v = _kron_spectrum(a, b)
    return w, _permute_rows(v, a.dims + b.dims, _merge_order(len(a.dims)))


def tensor_product_merged(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Tensor product in the party-merging convention.

    Both operands must have the same number of parties N; factor j of ``a``
    and factor j of ``b`` are merged into one party, so the result is again
    N-partite with local dimensions ``a.dims[j] * b.dims[j]``. This requires
    a physical factor permutation (a1, b1, a2, b2, ...), not just relabeling.
    The spectrum is :func:`_merged_spectrum`, and the result is a
    DensityMatrix when both operands are states.
    """
    n = len(a.dims)
    if n != len(b.dims):
        raise ValueError(
            f"party counts differ: {a.dims} vs {b.dims}; cannot merge parties"
        )
    dims, d, perm = a.dims + b.dims, a.dim * b.dim, _merge_order(n)
    axes = perm + tuple(p + 2 * n for p in perm)
    form = lambda _: np.kron(a.entries, b.entries).reshape(dims + dims).transpose(axes).reshape(d, d)  # noqa: E731
    return _result_type(a, b)(form, tuple(a.dims[j] * b.dims[j] for j in range(n)), _merged_spectrum(a, b))


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


def _read_matrix_file(path: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """The (matrix, dims) of a matrix file written by :func:`save_operator_json`, checked for shape and finiteness."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
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
