"""Named state families: constructors, closed-form monotone values, ansatz
optimizers, and closed-form product-overlap maxima.

Conventions fixed here: logs are base 2; the Bell basis order is
(Phi+, Phi-, Psi+, Psi-); separability thresholds are closed (boundary
parameters count as separable). The isotropic closed form contains the
exponent (alpha-1)/alpha, which is negative for alpha < 1; it is evaluated
literally and validated against the certificate at the test grid points.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .divergences import AlphaZ, _require_dpi
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    density,
    pure_density,
    tensor_product_merged,
)

PROB_ATOL = 1e-12


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
        DensityMatrix(HermitianOperator(m, m.shape[:1]))
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


def renyi_entropy(values, order: float) -> float:
    """H_alpha of a nonnegative vector: log2(sum v^alpha) / (1 - alpha).

    order = 1 is Shannon (the vector must then be normalized), order = inf is
    the min-entropy -log2(max v). Zero entries are dropped (0 log 0 = 0).
    """
    v = np.asarray(values, dtype=float)
    if np.any(v < -PROB_ATOL):
        raise ValueError("entries must be nonnegative")
    v = v[v > 0]
    if v.size == 0:
        raise ValueError("need at least one positive entry")
    if math.isinf(order):
        return -math.log2(float(np.max(v)))
    if abs(order - 1.0) <= 1e-14:
        if abs(float(v.sum()) - 1.0) > 1e-9:
            raise ValueError("order-1 entropy needs a normalized vector")
        return float(-np.sum(v * np.log2(v)))
    return math.log2(float(np.sum(v**order))) / (1.0 - order)


def beta_dual(p: AlphaZ) -> float:
    """The pure-state entropy order: (1 - alpha)/z + 1/beta = 1.

    beta = z / (z - 1 + alpha); on the line z = 1 - alpha the denominator
    vanishes and beta = +inf (min-entropy). Inside the DPI region beta > 0.
    """
    denom = p.z - 1.0 + p.alpha
    if abs(denom) <= 1e-12:
        return math.inf
    beta = p.z / denom
    if beta <= 0:
        raise ValueError(f"beta = {beta} <= 0; (alpha, z) = ({p.alpha}, {p.z}) is outside the DPI region")
    return beta


def bell_basis() -> list[np.ndarray]:
    """The four Bell vectors in the order (Phi+, Phi-, Psi+, Psi-)."""
    s = 1 / math.sqrt(2)
    return [
        np.array([s, 0, 0, s]),
        np.array([s, 0, 0, -s]),
        np.array([0, s, s, 0]),
        np.array([0, s, -s, 0]),
    ]


def swap_operator(d: int) -> np.ndarray:
    m = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            m[i * d + j, j * d + i] = 1.0
    return m


def symmetric_projector(d: int) -> np.ndarray:
    return (np.eye(d * d) + swap_operator(d)) / 2


def antisymmetric_projector(d: int) -> np.ndarray:
    return (np.eye(d * d) - swap_operator(d)) / 2


def max_entangled_vector(d: int) -> np.ndarray:
    v = np.zeros(d * d)
    for i in range(d):
        v[i * d + i] = 1.0
    return v / math.sqrt(d)


def mcbd_basis(d: int) -> list[np.ndarray]:
    """|psi_k> = d^{-1/2} sum_j exp(2 pi i k j / d) |jj>."""
    out = []
    for k in range(d):
        v = np.zeros(d * d, dtype=complex)
        for j in range(d):
            v[j * d + j] = np.exp(2j * math.pi * k * j / d)
        out.append(v / math.sqrt(d))
    return out


def _occupation_types(N: int, d: int) -> dict[tuple[int, ...], list[int]]:
    """Flat product-basis indices of N d-level parties, grouped by occupation numbers."""
    types: dict[tuple[int, ...], list[int]] = {}
    for flat, idx in enumerate(np.ndindex(*([d] * N))):
        counts = [0] * d
        for x in idx:
            counts[x] += 1
        types.setdefault(tuple(counts), []).append(flat)
    return types


def _dicke_vector(N: int, k: tuple[int, ...]) -> np.ndarray:
    v = np.zeros(len(k) ** N)
    v[_occupation_types(N, len(k))[tuple(k)]] = 1.0
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def _werner_matrix(p: float, d: int) -> np.ndarray:
    return p * (2.0 / (d * (d + 1))) * symmetric_projector(d) + (1.0 - p) * (
        2.0 / (d * (d - 1))
    ) * antisymmetric_projector(d)


def _isotropic_matrix(F: float, d: int) -> np.ndarray:
    phi = max_entangled_vector(d)
    proj = np.outer(phi, phi)
    return (1.0 - F) / (d * d - 1.0) * (np.eye(d * d) - proj) + F * proj


def build(family: StateFamily) -> DensityMatrix:
    """Construct the density matrix of a named family with its natural partition."""
    if isinstance(family, BellDiagonal):
        m = sum(w * np.outer(v, v.conj()) for w, v in zip(family.lambdas, bell_basis()))
        return density(m, (2, 2))
    if isinstance(family, Werner):
        return density(_werner_matrix(family.p, family.d), (family.d, family.d))
    if isinstance(family, Isotropic):
        return density(_isotropic_matrix(family.F, family.d), (family.d, family.d))
    if isinstance(family, Dicke):
        return pure_density(_dicke_vector(family.N, family.k), (family.d,) * family.N)
    if isinstance(family, MCBD):
        d = family.d
        m = sum(w * np.outer(v, v.conj()) for w, v in zip(family.p, mcbd_basis(d)))
        return density(m, (d, d))
    if isinstance(family, PureBipartite):
        d = family.d
        v = np.zeros(d * d)
        for i, w in enumerate(family.p):
            v[i * d + i] = math.sqrt(w)
        return pure_density(v, (d, d))
    if isinstance(family, GHZ):
        v = np.zeros(family.d**family.M)
        step = (family.d**family.M - 1) // (family.d - 1) if family.d > 1 else 0
        for i in range(family.d):
            v[i * step] = 1.0
        return pure_density(v, (family.d,) * family.M)
    if isinstance(family, MaximallyCorrelated):
        d = family.d
        m = np.zeros((d * d, d * d), dtype=complex)
        coeff = family.matrix
        for j in range(d):
            for k in range(d):
                m[j * d + j, k * d + k] = coeff[j, k]
        return density(m, (d, d))
    if isinstance(family, AntisymPair):
        minus = build(Werner(0.0, family.d))
        return DensityMatrix(tensor_product_merged(minus, minus))
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
    a = p.alpha
    if isinstance(family, (BellDiagonal, Werner, Isotropic)) and is_separable_regime(family):
        return 0.0
    if isinstance(family, BellDiagonal):
        lmax = max(family.lambdas)
        return 1.0 - renyi_entropy((lmax, 1.0 - lmax), a)
    if isinstance(family, Werner):
        return 1.0 - renyi_entropy((family.p, 1.0 - family.p), a)
    if isinstance(family, Isotropic):
        F, d = family.F, family.d
        if abs(a - 1.0) <= 1e-14:
            # alpha -> 1 limit of the table entry, avoiding the 0/0 exponent
            out = math.log2(d)
            if F < 1.0:
                out += (1.0 - F) * math.log2(1.0 - F) - (1.0 - F) * math.log2(d - 1.0)
            out += F * math.log2(F)
            return out
        return math.log2(d) - renyi_entropy(
            ((1.0 - F) / (d - 1.0) ** ((a - 1.0) / a), F), a
        )
    if isinstance(family, GHZ):
        return math.log2(family.d)
    if isinstance(family, PureBipartite):
        return renyi_entropy(family.p, beta_dual(p))
    if isinstance(family, Dicke):
        return -math.log2(lambda_sq_closed_form(family))
    if isinstance(family, MCBD):
        return math.log2(family.d) - renyi_entropy(family.p, a)
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
        return bool(np.allclose(family.p, 1.0 / family.d, atol=PROB_ATOL))
    return False


def _diag_pairs_state(weights: np.ndarray, d: int, parties: int = 2) -> DensityMatrix:
    dim = d**parties
    m = np.zeros((dim, dim))
    step = (dim - 1) // (d - 1) if d > 1 else 0
    for i, w in enumerate(weights):
        m[i * step, i * step] = w
    return density(m, (d,) * parties)


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
        m = sum(w * np.outer(v, v.conj()) for w, v in zip(q, bell_basis()))
        return density(m, (2, 2))
    if isinstance(family, Werner):
        return build(Werner(0.5, family.d))
    if isinstance(family, Isotropic):
        return build(Isotropic(1.0 / family.d, family.d))
    if isinstance(family, GHZ):
        return _diag_pairs_state(np.full(family.d, 1.0 / family.d), family.d, family.M)
    if isinstance(family, PureBipartite):
        beta = beta_dual(p)
        pv = np.asarray(family.p)
        if math.isinf(beta):
            weights = (pv >= pv.max() - PROB_ATOL).astype(float)
        else:
            weights = np.where(pv > 0, pv**beta, 0.0)
        weights = weights / weights.sum()
        return _diag_pairs_state(weights, family.d, 2)
    if isinstance(family, Dicke):
        d, N = family.d, family.N
        amps = np.sqrt(np.asarray(family.k, dtype=float) / N)
        xi_vec = amps.copy()
        for _ in range(N - 1):
            xi_vec = np.kron(xi_vec, amps)
        proj = np.outer(xi_vec, xi_vec)
        # dephase in total occupation type: zero every cross-type block,
        # which realizes the phase-average integral exactly
        m = np.zeros_like(proj)
        for members in _occupation_types(N, d).values():
            block = np.ix_(members, members)
            m[block] = proj[block]
        return density(m, (d,) * N)
    if isinstance(family, MCBD):
        d = family.d
        return _diag_pairs_state(np.full(d, 1.0 / d), d, 2)
    if isinstance(family, AntisymPair):
        d = family.d
        plus = build(Werner(1.0, d))
        minus = build(Werner(0.0, d))
        m = (d + 1.0) / (2.0 * d) * tensor_product_merged(plus, plus).entries + (
            d - 1.0
        ) / (2.0 * d) * tensor_product_merged(minus, minus).entries
        return density(m, (d * d, d * d))
    if isinstance(family, MaximallyCorrelated):
        raise ValueError("general MC states have no closed-form ansatz; use minimizers.minimize_mc")
    raise TypeError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# closed-form Lambda^2 values
# ---------------------------------------------------------------------------


def lambda_sq_closed_form(family: StateFamily) -> float:
    """Maximum product-state overlap of the family state, where known.

    Validity ranges: the Werner formula needs p <= (d+1)/(2d) and the
    isotropic one F >= 1/d^2; outside those the formula is not claimed and a
    ValueError is raised.
    """
    if isinstance(family, BellDiagonal):
        lam = sorted(family.lambdas, reverse=True)
        return (lam[0] + lam[1]) / 2.0
    if isinstance(family, Werner):
        p, d = family.p, family.d
        if p > (d + 1.0) / (2.0 * d) + PROB_ATOL:
            raise ValueError(f"Werner Lambda^2 formula needs p <= (d+1)/(2d), got p = {p}")
        return p / (d * (d + 1.0)) + (1.0 - p) / (d * (d - 1.0))
    if isinstance(family, Isotropic):
        F, d = family.F, family.d
        if F < 1.0 / d**2 - PROB_ATOL:
            raise ValueError(f"isotropic Lambda^2 formula needs F >= 1/d^2, got F = {F}")
        return (F * d + 1.0) / (d * (d + 1.0))
    if isinstance(family, Dicke):
        weight = float(math.factorial(family.N) // math.prod(math.factorial(x) for x in family.k))
        for kj in family.k:
            if kj > 0:
                weight *= (kj / family.N) ** kj
        return weight
    if isinstance(family, MCBD):
        return 1.0 / family.d
    if isinstance(family, AntisymPair):
        d = family.d
        return (d - 1.0) / (2.0 * d) * (2.0 / (d * (d - 1.0))) ** 2
    # for pure states the product-basis state |l...l> at the largest Schmidt
    # weight attains it
    if isinstance(family, GHZ):
        return 1.0 / family.d
    if isinstance(family, PureBipartite):
        return float(max(family.p))
    raise TypeError(f"no closed-form Lambda^2 for {family!r}")


# ---------------------------------------------------------------------------
# CLI descriptors
# ---------------------------------------------------------------------------

_VECTOR_SEP = "|"


def parse_family(text: str) -> StateFamily:
    """Parse descriptors like ``werner:p=0.2,d=3`` or ``dicke:N=3,k=2|1``.

    Vector-valued parameters use ``|`` separators; names are case-insensitive.
    """
    name, _, body = text.partition(":")
    name = name.strip().lower()
    params: dict[str, str] = {}
    if body:
        for item in body.split(","):
            if not item:
                continue
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"malformed family parameter {item!r} in {text!r}")
            params[key.strip()] = value.strip()

    def vector(key: str) -> tuple[float, ...]:
        if key not in params:
            raise ValueError(f"family {name!r} needs parameter {key!r}")
        return tuple(float(x) for x in params[key].split(_VECTOR_SEP))

    def scalar(key: str, cast=float):
        if key not in params:
            raise ValueError(f"family {name!r} needs parameter {key!r}")
        return cast(params[key])

    if name in ("bell", "belldiagonal", "bd"):
        return BellDiagonal(vector("lam"))
    if name == "werner":
        return Werner(scalar("p"), scalar("d", int))
    if name in ("isotropic", "iso"):
        return Isotropic(scalar("F"), scalar("d", int))
    if name == "dicke":
        return Dicke(scalar("N", int), tuple(int(x) for x in params.get("k", "").split(_VECTOR_SEP)))
    if name == "mcbd":
        return MCBD(vector("p"))
    if name in ("pure", "purebipartite"):
        return PureBipartite(vector("p"))
    if name == "ghz":
        return GHZ(scalar("d", int), scalar("M", int))
    if name in ("antisym", "antisympair"):
        return AntisymPair(scalar("d", int))
    raise ValueError(f"unknown family name {name!r}")


def _fmt(x: float) -> str:
    return re.sub(r"\.0$", "", f"{x:.12g}")


def family_label(family: StateFamily) -> str:
    """Canonical descriptor string (inverse of :func:`parse_family`)."""
    if isinstance(family, BellDiagonal):
        return "bell:lam=" + _VECTOR_SEP.join(_fmt(x) for x in family.lambdas)
    if isinstance(family, Werner):
        return f"werner:p={_fmt(family.p)},d={family.d}"
    if isinstance(family, Isotropic):
        return f"isotropic:F={_fmt(family.F)},d={family.d}"
    if isinstance(family, Dicke):
        return f"dicke:N={family.N},k=" + _VECTOR_SEP.join(str(x) for x in family.k)
    if isinstance(family, MCBD):
        return "mcbd:p=" + _VECTOR_SEP.join(_fmt(x) for x in family.p)
    if isinstance(family, PureBipartite):
        return "pure:p=" + _VECTOR_SEP.join(_fmt(x) for x in family.p)
    if isinstance(family, GHZ):
        return f"ghz:d={family.d},M={family.M}"
    if isinstance(family, AntisymPair):
        return f"antisym:d={family.d}"
    raise TypeError(f"no label for {family!r}")
