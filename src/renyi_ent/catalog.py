"""Named state families: constructors, closed-form monotone values and ansatz optimizers.

Conventions fixed here: logs are base 2; the Bell basis order is
(Phi+, Phi-, Psi+, Psi-); separability thresholds are closed (boundary
parameters count as separable).
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .divergences import AlphaZ, _log2_sum_powers_rows, _require_dpi
from .linalg import (
    LINE_ATOL, PROB_ATOL, TRACE_ATOL,
    DensityMatrix,
    _fmt,
    _ii_indices,
    _merged_spectrum,
    _support_mask,
    density,
    eig_hermitian,
    pure_density,
    tensor_product_merged,
)


def _check_prob_vector(p: tuple[float, ...], what: str) -> None:
    arr = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries: {p}")
    if np.any(arr < -PROB_ATOL):
        raise ValueError(f"{what} has negative entries: {p}")
    if abs(float(arr.sum()) - 1.0) > PROB_ATOL:
        raise ValueError(f"{what} must sum to 1, got {arr.sum()!r}")


@dataclass(frozen=True)
class BellDiagonal:
    lambdas: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))
        if len(self.lambdas) != 4:
            raise ValueError("Bell diagonal states take exactly four weights")
        _check_prob_vector(self.lambdas, "lambda vector")


@dataclass(frozen=True)
class Werner:
    p: float
    d: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"Werner p must lie in [0, 1], got {self.p}")
        if self.d < 2:
            raise ValueError("Werner states need local dimension >= 2")


@dataclass(frozen=True)
class Isotropic:
    F: float
    d: int

    def __post_init__(self):
        if not 0.0 <= self.F <= 1.0:
            raise ValueError(f"isotropic F must lie in [0, 1], got {self.F}")
        if self.d < 2:
            raise ValueError("isotropic states need local dimension >= 2")


@dataclass(frozen=True)
class Dicke:
    N: int
    k: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(int(x) for x in self.k))
        if self.N < 2:
            raise ValueError(f"Dicke states need at least two parties, got N = {self.N}")
        if any(x < 0 for x in self.k):
            raise ValueError("occupation numbers must be nonnegative")
        if sum(self.k) != self.N:
            raise ValueError(f"occupations {self.k} must sum to N = {self.N}")

    @property
    def d(self) -> int:
        return len(self.k)


@dataclass(frozen=True)
class MCBD:
    p: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        _check_prob_vector(self.p, "MCBD weight vector")

    @property
    def d(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class PureBipartite:
    p: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))
        _check_prob_vector(self.p, "Schmidt weight vector")

    @property
    def d(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class GHZ:
    d: int
    M: int

    def __post_init__(self):
        if self.d < 1 or self.M < 2:
            raise ValueError("GHZ needs d >= 1 and at least two parties")


@dataclass(frozen=True)
class MaximallyCorrelated:
    """General MC state; the coefficient matrix must be a valid one-party density matrix."""

    coeff: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        m = np.asarray(self.coeff, dtype=complex)
        DensityMatrix(m, m.shape[:1])
        object.__setattr__(self, "coeff", tuple(tuple(complex(x) for x in row) for row in m))

    @property
    def d(self) -> int:
        return len(self.coeff)

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.coeff, dtype=complex)


@dataclass(frozen=True)
class AntisymPair:
    """The tensor square of the antisymmetric Werner state, merged to (d^2, d^2)."""

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("antisymmetric states need local dimension >= 2")


StateFamily = (
    BellDiagonal
    | Werner
    | Isotropic
    | Dicke
    | MCBD
    | PureBipartite
    | GHZ
    | MaximallyCorrelated
    | AntisymPair
)


# ---------------------------------------------------------------------------
# Basic ingredients
# ---------------------------------------------------------------------------


def renyi_entropy(values, order: float, counts=None) -> float:
    """H_alpha of a nonnegative vector: log2(sum c v^alpha) / (1 - alpha).

    Value i is counted ``counts[i]`` times (c = 1 when omitted). order = 1
    (within LINE_ATOL) is Shannon, -sum c v log2 v (sum c v must then be 1),
    order = inf is the min-entropy -log2(max v). Zero values are dropped with
    their counts (0 log 0 = 0). The power sum is taken in the log domain, so
    no entry underflows to 0 at large or small orders.
    """
    v = np.asarray(values, dtype=float)
    c = np.ones_like(v) if counts is None else np.asarray(counts, dtype=float)
    if np.any(v < -PROB_ATOL):
        raise ValueError("entries must be nonnegative")
    v, c = v[v > 0], c[v > 0]
    if v.size == 0:
        raise ValueError("need at least one positive entry")
    if math.isinf(order):
        return -math.log2(float(np.max(v)))
    if abs(order - 1.0) <= LINE_ATOL:
        if abs(float(np.sum(c * v)) - 1.0) > TRACE_ATOL:
            raise ValueError("order-1 entropy needs a normalized vector")
        return float(-np.sum(c * v * np.log2(v)))
    ascending = np.argsort(v)
    return float(_log2_sum_powers_rows(v[ascending][None, :], order, c[ascending])[0]) / (1.0 - order)


def beta_dual(p: AlphaZ) -> float:
    """The pure-state entropy order: (1 - alpha)/z + 1/beta = 1.

    beta = z / (z - 1 + alpha); on the line z = 1 - alpha the denominator
    vanishes and beta = +inf (min-entropy). Inside the DPI region beta > 0.
    """
    if p.on_reverse_line:
        return math.inf
    beta = p.z / (p.z - 1.0 + p.alpha)
    if beta <= 0:
        raise ValueError(f"beta = {beta} <= 0; (alpha, z) = ({p.alpha}, {p.z}) is outside the DPI region")
    return beta


def _dft_basis(dim: int, groups: Sequence[Sequence[int]]) -> np.ndarray:
    """Orthonormal columns of C^dim, group by group, then e_i for each index in no group.

    A group g of n product-basis indices gives the n columns
    n^(-1/2) sum_j w^(kj) e_(g_j), k = 0..n-1, with w = exp(2 pi i / n), so
    column k = 0 is the uniform superposition. The array is real when no
    group has more than two members.
    """
    groups = [*groups, *([i] for i in sorted(set(range(dim)).difference(*groups)))]
    real = max(map(len, groups)) <= 2
    v = np.zeros((dim, dim), dtype=float if real else complex)
    col = 0
    for g in groups:
        k = np.arange(len(g))
        dft = np.exp(2j * math.pi * np.outer(k, k) / len(g)) / math.sqrt(len(g))
        v[g, col : col + len(g)] = dft.real if real else dft
        col += len(g)
    return v


def _occupation_types(N: int, d: int) -> dict[tuple[int, ...], list[int]]:
    """Flat product-basis indices of N d-level parties, grouped by occupation numbers."""
    types: dict[tuple[int, ...], list[int]] = {}
    for flat, idx in enumerate(np.ndindex(*([d] * N))):
        counts = [0] * d
        for x in idx:
            counts[x] += 1
        types.setdefault(tuple(counts), []).append(flat)
    return types


def _log_factorial_rest(m: int) -> float:
    """ln m! - m ln m + m: below 16 from 28-digit decimal logs, as the terms cancel to about 2;
    from 16 on ln(2 pi m)/2 plus Stirling's series to m^-9 (truncation error < 2e-16)."""
    if m < 16:
        return float(decimal.Decimal(math.factorial(m)).ln() - m * decimal.Decimal(m).ln() + m)
    x = 1.0 / m
    series = x * (1 / 12 - x * x * (1 / 360 - x * x * (1 / 1260 - x * x * (1 / 1680 - x * x / 1188))))
    return 0.5 * math.log(2.0 * math.pi * m) + series


def _log_type_probability(t: tuple[int, ...], k: tuple[int, ...]) -> float:
    """ln of the probability of occupation type t in n = sum(t) draws from k / K, K = sum(k); -inf if impossible.

    With h = :func:`_log_factorial_rest`, ln p = h(n) - sum_{t_j > 0} [h(t_j) + t_j ln(t_j K / (k_j n))]:
    the n ln n terms, which a difference of log-factorials would cancel, are
    taken out analytically, so p below the float range still has its log.
    """
    n, K = sum(t), sum(k)
    if any(tj > 0 and kj == 0 for tj, kj in zip(t, k)):
        return -math.inf
    return _log_factorial_rest(n) - sum(
        _log_factorial_rest(tj) + tj * math.log1p((tj * K - kj * n) / (kj * n)) for tj, kj in zip(t, k) if tj > 0
    )


def _party_shape(family: StateFamily) -> tuple[int, int]:
    """(local dimension, number of parties) of the family's state, read from its parameters alone."""
    if isinstance(family, BellDiagonal):
        return 2, 2
    if isinstance(family, Dicke):
        return family.d, family.N
    if isinstance(family, GHZ):
        return family.d, family.M
    if isinstance(family, AntisymPair):
        return family.d**2, 2
    return family.d, 2


def _on_basis(family: StateFamily, weights) -> DensityMatrix:
    """The state with eigenvalues ``weights``, padded with zeros, on the family's one eigenbasis (:func:`_dft_basis`).

    Index groups: Bell {00, 11}, {01, 10}, giving (Phi+, Phi-, Psi+, Psi-);
    Werner each |ii>, then each {ij, ji} (i < j), giving the symmetric and
    antisymmetric pair vectors; Dicke the occupation types, each giving its
    Dicke vector first; isotropic, MCBD and GHZ the product states |j...j>,
    giving the maximally entangled (GHZ) vector first, then every other
    product state.
    """
    d, parties = _party_shape(family)
    dims = (d,) * parties
    if isinstance(family, BellDiagonal):
        groups = [[0, 3], [1, 2]]
    elif isinstance(family, Werner):
        groups = [[i] for i in _ii_indices(d)] + [[i * d + j, j * d + i] for i in range(d) for j in range(i + 1, d)]
    elif isinstance(family, Dicke):
        groups = list(_occupation_types(family.N, d).values())
    else:
        groups = [np.arange(d) * sum(d**m for m in range(parties))]
    w = np.zeros(math.prod(dims))
    w[: len(weights)] = weights
    return DensityMatrix.from_eigenpairs(w, _dft_basis(w.size, groups), dims)


def _dicke_weights(family: Dicke, weight: Callable[[tuple[int, ...]], float]) -> np.ndarray:
    """``weight(t)`` on the Dicke vector of each occupation type t, 0 on the type's other columns."""
    types = _occupation_types(family.N, family.d)
    return np.concatenate([np.r_[weight(t), np.zeros(len(g) - 1)] for t, g in types.items()])


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def build(family: StateFamily) -> DensityMatrix:
    """Construct the density matrix of a named family with its natural partition.

    Bell-diagonal, Werner, isotropic, Dicke, MCBD and GHZ states are built
    from their eigenpairs on the basis of :func:`_on_basis`, which their
    ansatzes share; an AntisymPair is the merged square of a Werner state.
    """
    if isinstance(family, BellDiagonal):
        return _on_basis(family, family.lambdas)
    if isinstance(family, Werner):
        p, d = family.p, family.d
        sym, anti = 2.0 * p / (d * (d + 1)), 2.0 * (1.0 - p) / (d * (d - 1))
        return _on_basis(family, np.r_[np.full(d, sym), np.tile([sym, anti], d * (d - 1) // 2)])
    if isinstance(family, Isotropic):
        F, d = family.F, family.d
        return _on_basis(family, np.r_[F, np.full(d * d - 1, (1.0 - F) / (d * d - 1.0))])
    if isinstance(family, Dicke):
        return _on_basis(family, _dicke_weights(family, lambda t: float(t == family.k)))
    if isinstance(family, MCBD):
        return _on_basis(family, family.p)
    if isinstance(family, PureBipartite):
        d = family.d
        v = np.zeros(d * d)
        v[_ii_indices(d)] = [math.sqrt(w) for w in family.p]
        return pure_density(v, (d, d))
    if isinstance(family, GHZ):
        return _on_basis(family, [1.0])
    if isinstance(family, MaximallyCorrelated):
        d = family.d
        m = np.zeros((d * d, d * d), dtype=complex)
        m[np.ix_(_ii_indices(d), _ii_indices(d))] = family.matrix
        return density(m, (d, d))
    if isinstance(family, AntisymPair):
        minus = build(Werner(0.0, family.d))
        return tensor_product_merged(minus, minus)
    raise TypeError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# closed-form monotone values
# ---------------------------------------------------------------------------


def closed_form_value(family: StateFamily, p: AlphaZ) -> float:
    """The monotone value over SEP for a named family (base-2 logs).

    All families depend on (alpha, z) only through alpha, except pure states
    (and GHZ trivially), which depend on beta = z/(z - 1 + alpha).
    """
    _require_dpi(p)
    if is_separable_regime(family):
        return 0.0
    if isinstance(family, BellDiagonal):
        lmax = max(family.lambdas)
        return 1.0 - renyi_entropy((lmax, 1.0 - lmax), p.alpha)
    if isinstance(family, Werner):
        return 1.0 - renyi_entropy((family.p, 1.0 - family.p), p.alpha)
    if isinstance(family, Isotropic):
        F, d = family.F, family.d
        return math.log2(d) - renyi_entropy((F, (1.0 - F) / (d - 1)), p.alpha, (1, d - 1))
    if isinstance(family, GHZ):
        return math.log2(family.d)
    if isinstance(family, PureBipartite):
        return renyi_entropy(family.p, 1.0 if p.on_umegaki_line else beta_dual(p))
    if isinstance(family, Dicke):
        return -_log_type_probability(family.k, family.k) / math.log(2.0)
    if isinstance(family, MCBD):
        return math.log2(family.d) - renyi_entropy(family.p, p.alpha)
    if isinstance(family, AntisymPair):
        return 1.0 - math.log2((family.d - 1.0) / family.d)
    if isinstance(family, MaximallyCorrelated):
        raise ValueError("general MC states have no closed form; use minimizers.minimize_mc")
    raise TypeError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# ansatz optimizers (the proof constructions)
# ---------------------------------------------------------------------------


def is_separable_regime(family: StateFamily) -> bool:
    """Whether the family parameters give a separable state (value 0).

    Thresholds are closed: Bell diagonal with all weights <= 1/2, Werner with
    p >= 1/2, isotropic with F <= 1/d. Families without a stated threshold
    count only when they are trivially free (product pure states, or the
    uniform MCBD mixture, which equals its own diagonal separable ansatz).
    """
    if isinstance(family, BellDiagonal):
        return max(family.lambdas) <= 0.5
    if isinstance(family, Werner):
        return family.p >= 0.5
    if isinstance(family, Isotropic):
        return family.F <= 1.0 / family.d
    if isinstance(family, PureBipartite):
        return max(family.p) >= 1.0 - PROB_ATOL
    if isinstance(family, GHZ):
        return family.d == 1
    if isinstance(family, Dicke):
        return any(kj == family.N for kj in family.k)
    if isinstance(family, MCBD):
        return max(abs(x - 1.0 / family.d) for x in family.p) <= PROB_ATOL
    return False


def ansatz_optimizer(family: StateFamily, p: AlphaZ) -> DensityMatrix:
    """The proof's candidate closest separable state for a named family.

    In the separable regime the state itself is returned. Only the pure-state
    families depend on (alpha, z), through beta.
    """
    if is_separable_regime(family):
        return build(family)
    if isinstance(family, BellDiagonal):
        lam = np.asarray(family.lambdas)
        top = int(np.argmax(lam))
        q = np.zeros(4)
        if 1.0 - lam[top] <= PROB_ATOL:
            # pure Bell state: the proof weights degenerate to 0/0; the
            # pure-state optimizer puts 1/2 on the state and its phase partner
            q[top] = 0.5
            q[top ^ 1] = 0.5
        else:
            q[:] = lam / (2.0 * (1.0 - lam[top]))
            q[top] = 0.5
        return _on_basis(family, q)
    if isinstance(family, Werner):
        return build(Werner(0.5, family.d))
    if isinstance(family, Isotropic):
        return build(Isotropic(1.0 / family.d, family.d))
    if isinstance(family, (GHZ, MCBD)):
        # the even mixture of the product states |j...j>, which span the first d columns
        return _on_basis(family, np.full(family.d, 1.0 / family.d))
    if isinstance(family, PureBipartite):
        beta = beta_dual(p)
        pv = np.asarray(family.p)
        if math.isinf(beta):
            weights = (pv >= pv.max() - PROB_ATOL).astype(float)
        else:
            weights = np.where(pv > 0, (pv / pv.max()) ** beta, 0.0)  # the largest weight is 1: no 0/0 at large beta
        w = np.zeros(family.d**2)
        w[_ii_indices(family.d)] = weights / weights.sum()
        return density(np.diag(w), (family.d, family.d))
    if isinstance(family, Dicke):
        # the product state sqrt(k/N)^(x N) dephased in occupation type (the
        # phase-average integral): each type t keeps its multinomial weight,
        # on its Dicke vector
        return _on_basis(family, _dicke_weights(family, lambda t: math.exp(_log_type_probability(t, family.k))))
    if isinstance(family, AntisymPair):
        # (d+1)/(2d) rho_+ (x) rho_+ + (d-1)/(2d) rho_- (x) rho_-, built from its
        # eigenpairs: the eigenbasis of rho_- = Werner(0, d) splits P- (its
        # support) from P+ (its kernel), so its merged Kronecker square, the
        # basis of build(family), diagonalizes both terms.
        d = family.d
        minus = build(Werner(0.0, d))
        anti = _support_mask(eig_hermitian(minus).eigenvalues)
        s, a = ~anti / np.count_nonzero(~anti), anti / np.count_nonzero(anti)
        w = (d + 1.0) / (2.0 * d) * np.kron(s, s) + (d - 1.0) / (2.0 * d) * np.kron(a, a)
        return DensityMatrix.from_eigenpairs(w, _merged_spectrum(minus, minus)[1], (d * d, d * d))
    if isinstance(family, MaximallyCorrelated):
        raise ValueError("general MC states have no closed-form ansatz; use minimizers.minimize_mc")
    raise TypeError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# CLI descriptors
# ---------------------------------------------------------------------------

_VECTOR_SEP = "|"


def _vector(cast: Callable[[str], float | int]) -> Callable[[str], tuple]:
    return lambda text: tuple(cast(x) for x in text.split(_VECTOR_SEP))


# per family: canonical name, aliases and (key, field, kind) triples in label
# order; a kind parses one value: float, int, or a |-separated vector of either
_DESCRIPTORS: dict[type, tuple[str, tuple[str, ...], tuple[tuple[str, str, Callable], ...]]] = {
    BellDiagonal: ("bell", ("belldiagonal", "bd"), (("lam", "lambdas", _vector(float)),)),
    Werner: ("werner", (), (("p", "p", float), ("d", "d", int))),
    Isotropic: ("isotropic", ("iso",), (("F", "F", float), ("d", "d", int))),
    Dicke: ("dicke", (), (("N", "N", int), ("k", "k", _vector(int)))),
    MCBD: ("mcbd", (), (("p", "p", _vector(float)),)),
    PureBipartite: ("pure", ("purebipartite",), (("p", "p", _vector(float)),)),
    GHZ: ("ghz", (), (("d", "d", int), ("M", "M", int))),
    AntisymPair: ("antisym", ("antisympair",), (("d", "d", int),)),
}
_FAMILY_NAMES = {n: cls for cls, (name, aliases, _) in _DESCRIPTORS.items() for n in (name, *aliases)}


def parse_family(text: str) -> StateFamily:
    """Parse descriptors like ``werner:p=0.2,d=3`` or ``dicke:N=3,k=2|1``.

    Vector-valued parameters use ``|`` separators; names are case-insensitive.
    Each parameter of the family is given exactly once: an unknown, repeated
    or missing key is a ValueError naming the key.
    """
    name, _, body = text.partition(":")
    name = name.strip().lower()
    if name not in _FAMILY_NAMES:
        raise ValueError(f"unknown family name {name!r}")
    cls = _FAMILY_NAMES[name]
    _, _, params = _DESCRIPTORS[cls]
    given: dict[str, str] = {}
    for item in filter(None, body.split(",")):
        key, _, value = (part.strip() for part in item.partition("="))
        if not value:
            raise ValueError(f"malformed family parameter {item!r} in {text!r}")
        if key not in (k for k, _, _ in params):
            raise ValueError(f"family {name!r} has no parameter {key!r}")
        if key in given:
            raise ValueError(f"family parameter {key!r} is given more than once in {text!r}")
        given[key] = value
    for key, _, _ in params:
        if key not in given:
            raise ValueError(f"family {name!r} needs parameter {key!r}")
    values = {}
    for key, field, kind in params:
        try:
            values[field] = kind(given[key])
        except ValueError as exc:
            raise ValueError(f"family {name!r} parameter {key!r}: {exc}") from None
    return cls(**values)


def family_label(family: StateFamily) -> str:
    """Canonical descriptor string (inverse of :func:`parse_family`)."""
    if type(family) not in _DESCRIPTORS:
        raise TypeError(f"no label for {family!r}")
    name, _, params = _DESCRIPTORS[type(family)]
    return f"{name}:" + ",".join(f"{key}={_format_value(getattr(family, field))}" for key, field, _ in params)


def _format_value(value) -> str:
    return _VECTOR_SEP.join(map(_fmt, value)) if isinstance(value, tuple) else _fmt(value)
