"""Dense complex Hermitian linear algebra with tensor-partition bookkeeping.

Everything here works on explicit matrices (dimensions up to a few hundred).
An operator's support is the span of its eigenvectors with eigenvalue above
``SUPPORT_CUT * lambda_max``; this one cut is used everywhere. Negative and
fractional matrix powers are taken in the generalized-inverse sense: the
eigenvalues below the cut map to zero regardless of the exponent, so
``H ** 0`` is the support projector. Support containment and orthogonality
are decided from the weight an operator puts on the other one's cached
support or kernel eigenvectors, never from d x d projectors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

HERMITICITY_ATOL = 1e-12
PSD_RTOL = 1e-10
TRACE_ATOL = 1e-10
SUPPORT_CUT = 1e-10


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """Return (M + M†)/2, matrix by matrix over any leading batch axes."""
    return (matrix + matrix.conj().swapaxes(-1, -2)) / 2


@dataclass(frozen=True)
class Partition:
    """Ordered local dimensions of the tensor factors an operator acts on."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("partition must have at least one factor")
        if any(d < 1 for d in dims):
            raise ValueError(f"local dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def nparties(self) -> int:
        return len(self.dims)


def as_partition(dims: Partition | Iterable[int]) -> Partition:
    return dims if isinstance(dims, Partition) else Partition(tuple(dims))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (real, ascending) and a unitary of column eigenvectors."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A d x d complex Hermitian matrix tagged with a tensor partition.

    Construction validates that every entry is finite, hermiticity (per-entry
    tolerance 1e-12 * max(1, max|entry|)) and that the matrix dimension
    matches the partition. The stored array is read-only; instances are
    immutable and compare and hash by identity. The spectrum is computed by
    one ``eigh`` on first use and kept with the operator, so every spectral
    query on it (powers, support, dominance, Xi) shares that single
    decomposition.
    """

    entries: np.ndarray
    partition: Partition

    def __post_init__(self):
        part = as_partition(self.partition)
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] != part.total_dim:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match partition {part.dims}"
            )
        scale = float(np.max(np.abs(m)))
        if not math.isfinite(scale):
            raise ValueError("matrix has non-finite entries")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL * max(1.0, scale):
            raise ValueError("matrix is not Hermitian within 1e-12 * max(1, max|entry|)")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "partition", part)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def dims(self) -> tuple[int, ...]:
        return self.partition.dims

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries)))

    @cached_property
    def _eig(self) -> EigenDecomposition:
        w, v = np.linalg.eigh(self.entries)
        w.flags.writeable = False
        v.flags.writeable = False
        return EigenDecomposition(eigenvalues=w, vectors=v)


def wrap(matrix: np.ndarray, partition: Partition | Iterable[int]) -> HermitianOperator:
    """Symmetrize a numerically-Hermitian matrix and wrap it."""
    return HermitianOperator(hermitian_part(np.asarray(matrix, dtype=complex)), partition)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A positive semidefinite, unit-trace HermitianOperator (compared by identity)."""

    op: HermitianOperator

    def __post_init__(self):
        require_psd(np.linalg.eigvalsh(self.op.entries))
        if abs(self.op.trace() - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace is {self.op.trace():.12f}, expected 1")

    @property
    def entries(self) -> np.ndarray:
        return self.op.entries

    @property
    def partition(self) -> Partition:
        return self.op.partition

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.op.dims


def require_psd(eigenvalues: np.ndarray) -> None:
    """Reject an ascending spectrum whose least eigenvalue is below -1e-10 * max(lambda_max, tiny)."""
    top = max(float(eigenvalues[-1]), 0.0)
    if float(eigenvalues[0]) < -PSD_RTOL * max(top, np.finfo(float).tiny):
        raise ValueError(f"not positive semidefinite: min eigenvalue {eigenvalues[0]:.3e}")


def as_operator(x: HermitianOperator | DensityMatrix) -> HermitianOperator:
    return x.op if isinstance(x, DensityMatrix) else x


def density(matrix: np.ndarray, dims: Partition | Iterable[int]) -> DensityMatrix:
    return DensityMatrix(wrap(matrix, dims))


def pure_density(vector: np.ndarray, dims: Partition | Iterable[int]) -> DensityMatrix:
    v = np.asarray(vector, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return DensityMatrix(HermitianOperator(np.outer(v, v.conj()), dims))


def eig_hermitian(op: HermitianOperator | DensityMatrix) -> EigenDecomposition:
    """The operator's cached spectrum; both arrays are read-only."""
    return as_operator(op)._eig


def _support_mask(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues above ``SUPPORT_CUT * lambda_max`` (none if lambda_max <= 0)."""
    return w > SUPPORT_CUT * max(float(w[-1]), 0.0)


def _power(m: HermitianOperator | DensityMatrix | np.ndarray, p: float) -> np.ndarray:
    """The raw generalized power (v * w^p) @ v† of a Hermitian operator, not symmetrized.

    An operator supplies its cached spectrum; a plain array (an intermediate
    product) is decomposed on the spot.
    """
    if isinstance(m, np.ndarray):
        w, v = np.linalg.eigh(m)
    else:
        dec = eig_hermitian(m)
        w, v = dec.eigenvalues, dec.vectors
    keep = _support_mask(w)
    if not keep.any():
        return np.zeros((w.size, w.size), dtype=v.dtype)
    pw = np.zeros_like(w)
    pw[keep] = w[keep] ** p
    return (v * pw) @ v.conj().T


def matrix_power(op: HermitianOperator | DensityMatrix, p: float) -> HermitianOperator:
    """Generalized matrix power of a psd operator.

    Eigenvalues at or below ``SUPPORT_CUT * lambda_max`` map to zero for any
    exponent; the rest map to ``lam ** p``. ``p == 0`` gives the support
    projector, and an all-zero input returns the zero operator.
    """
    return wrap(_power(op, p), op.partition)


def _support_split(op: HermitianOperator | DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The operator's cached eigenvectors split at the cut: (support columns, kernel columns)."""
    dec = eig_hermitian(op)
    keep = _support_mask(dec.eigenvalues)
    return dec.vectors[:, keep], dec.vectors[:, ~keep]


def support_rank(op: HermitianOperator | DensityMatrix) -> int:
    return int(np.count_nonzero(_support_mask(eig_hermitian(op).eigenvalues)))


def _weights_on(op: HermitianOperator | DensityMatrix, columns: np.ndarray) -> np.ndarray:
    """<b_j| op |b_j> for each orthonormal column b_j of ``columns``."""
    m = as_operator(op).entries
    return np.einsum("ij,ij->j", columns.conj(), m @ columns).real


def _negligible_on(op: HermitianOperator | DensityMatrix, columns: np.ndarray) -> bool:
    """Whether the operator's weight on span(columns) is at most SUPPORT_CUT * lambda_max."""
    top = max(float(eig_hermitian(op).eigenvalues[-1]), 0.0)
    return float(np.sum(_weights_on(op, columns))) <= SUPPORT_CUT * top


def tensor_product(
    a: HermitianOperator | DensityMatrix, b: HermitianOperator | DensityMatrix
) -> HermitianOperator:
    """Kronecker product; the partition is the concatenation of both partitions."""
    a, b = as_operator(a), as_operator(b)
    return HermitianOperator(np.kron(a.entries, b.entries), a.dims + b.dims)


def permute_factors(
    op: HermitianOperator | DensityMatrix, perm: Sequence[int]
) -> HermitianOperator:
    """Physically reorder tensor factors so factor ``perm[j]`` becomes factor ``j``."""
    h = as_operator(op)
    n = h.partition.nparties
    perm = tuple(int(j) for j in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}, got {perm}")
    dims = h.dims
    t = h.entries.reshape(dims + dims)
    axes = perm + tuple(p + n for p in perm)
    new_dims = tuple(dims[p] for p in perm)
    d = h.dim
    return HermitianOperator(t.transpose(axes).reshape(d, d), new_dims)


def tensor_product_merged(
    a: HermitianOperator | DensityMatrix, b: HermitianOperator | DensityMatrix
) -> HermitianOperator:
    """Tensor product in the party-merging convention.

    Both operands must have the same number of parties N; factor j of ``a``
    and factor j of ``b`` are merged into one party, so the result is again
    N-partite with local dimensions ``a.dims[j] * b.dims[j]``. This requires
    a physical factor permutation (a1, b1, a2, b2, ...), not just relabeling.
    """
    a, b = as_operator(a), as_operator(b)
    n = a.partition.nparties
    if n != b.partition.nparties:
        raise ValueError(
            f"party counts differ: {a.dims} vs {b.dims}; cannot merge parties"
        )
    prod = tensor_product(a, b)
    perm = tuple(x for j in range(n) for x in (j, n + j))
    interleaved = permute_factors(prod, perm)
    merged = tuple(a.dims[j] * b.dims[j] for j in range(n))
    return HermitianOperator(interleaved.entries, merged)


def partial_trace(
    op: HermitianOperator | DensityMatrix, keep: Iterable[int]
) -> HermitianOperator:
    """Trace out all factors not in ``keep``; the partition restricts to ``keep``."""
    h = as_operator(op)
    n = h.partition.nparties
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must be a non-empty set of factor indices")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices must lie in 0..{n - 1}, got {keep}")
    dims = h.dims
    t = h.entries.reshape(dims + dims)
    remaining = n
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + remaining)
        remaining -= 1
    kept_dims = tuple(dims[k] for k in keep)
    d = math.prod(kept_dims)
    return HermitianOperator(t.reshape(d, d), kept_dims)


def partial_transpose(
    op: HermitianOperator | DensityMatrix, flip: Iterable[int]
) -> HermitianOperator:
    """Transpose the factors in ``flip``. Applying it twice is the identity."""
    h = as_operator(op)
    n = h.partition.nparties
    flip = set(int(f) for f in flip)
    if any(f < 0 or f >= n for f in flip):
        raise ValueError(f"flip indices must lie in 0..{n - 1}, got {sorted(flip)}")
    dims = h.dims
    t = h.entries.reshape(dims + dims)
    axes = []
    for i in range(2 * n):
        j = i % n
        if j in flip:
            axes.append(i + n if i < n else i - n)
        else:
            axes.append(i)
    d = h.dim
    return HermitianOperator(t.transpose(axes).reshape(d, d), dims)


def random_density(
    d: int, rank: int, seed: int, dims: Partition | Iterable[int] | None = None
) -> DensityMatrix:
    """Seeded Ginibre construction G G† / Tr(G G†) with G of shape (d, rank)."""
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in 1..{d}, got {rank}")
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) / np.sqrt(2)
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(wrap(m, (d,) if dims is None else dims))


def save_operator_json(op: HermitianOperator | DensityMatrix, path: str) -> None:
    """Write the matrix-file format {"dims": [...], "re": [[...]], "im": [[...]]}."""
    h = as_operator(op)
    payload = {
        "dims": list(h.dims),
        "re": h.entries.real.tolist(),
        "im": h.entries.imag.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_operator_json(path: str) -> HermitianOperator:
    """Load and validate a matrix file written by :func:`save_operator_json`."""
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
    return HermitianOperator(re + 1j * im, tuple(dims))


def load_density_json(path: str) -> DensityMatrix:
    return DensityMatrix(load_operator_json(path))
