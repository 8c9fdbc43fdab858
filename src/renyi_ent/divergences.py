"""The alpha-z Renyi relative entropy family and its named limits.

All logarithms are base 2. Infinite divergences are returned as the value
``math.inf`` rather than raised; finite return values are never NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    SUPPORT_CUT,
    DensityMatrix,
    HermitianOperator,
    _negligible_on,
    _power,
    _support_mask,
    _support_split,
    _weights_on,
    as_operator,
    eig_hermitian,
    hermitian_part,
)

LINE_ATOL = 1e-12

Operator = HermitianOperator | DensityMatrix


@dataclass(frozen=True)
class AlphaZ:
    """A validated (alpha, z) parameter pair with DPI-region membership flags.

    The data-processing inequality holds iff one of
      * 0 < alpha < 1 and z >= max(alpha, 1 - alpha),
      * 1 < alpha <= 2 and alpha/2 <= z <= alpha,
      * 2 <= alpha < inf and alpha - 1 <= z <= alpha,
    or alpha = 1 (any z > 0), which is included in the region.
    """

    alpha: float
    z: float
    in_dpi_region: bool = field(init=False)
    on_umegaki_line: bool = field(init=False)
    on_reverse_line: bool = field(init=False)
    on_lower_line: bool = field(init=False)

    def __post_init__(self):
        a, z = float(self.alpha), float(self.z)
        if not (a > 0 and math.isfinite(a)):
            raise ValueError(f"alpha must be a positive finite real, got {a}")
        if not (z > 0 and math.isfinite(z)):
            raise ValueError(f"z must be a positive finite real, got {z}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "on_umegaki_line", abs(a - 1.0) <= LINE_ATOL)
        object.__setattr__(self, "on_reverse_line", abs(z - (1.0 - a)) <= LINE_ATOL)
        object.__setattr__(self, "on_lower_line", abs(z - (a - 1.0)) <= LINE_ATOL)
        in_region = self.on_umegaki_line
        if a < 1.0:
            in_region = in_region or z >= max(a, 1.0 - a) - LINE_ATOL
        else:
            low = (a / 2.0) if a <= 2.0 else (a - 1.0)
            in_region = in_region or (low - LINE_ATOL <= z <= a + LINE_ATOL)
        object.__setattr__(self, "in_dpi_region", bool(in_region))

    @property
    def beta(self) -> float:
        """The exponent (1 - alpha)/z appearing in the second argument."""
        return (1.0 - self.alpha) / self.z


def _require_dpi(p: AlphaZ) -> None:
    if not p.in_dpi_region:
        raise ValueError(f"(alpha, z) = ({p.alpha}, {p.z}) lies outside the DPI region")


def is_orthogonal(rho: Operator, sigma: Operator) -> bool:
    """Support orthogonality: rho's weight on supp(sigma) is at most SUPPORT_CUT * lambda_max(rho)."""
    return _negligible_on(rho, _support_split(sigma)[0])


def is_dominated(rho: Operator, sigma: Operator) -> bool:
    """Support containment rho << sigma: rho's weight on ker(sigma) is at most SUPPORT_CUT * lambda_max(rho)."""
    return _negligible_on(rho, _support_split(sigma)[1])


def _log2_sum_powers_rows(mu: np.ndarray, z: float) -> np.ndarray:
    """log2(sum_i mu_i^z) per row of ascending spectra, over each row's support.

    Computed in the log domain: (mu/top)^z <= 1, so the sum never overflows
    even for z ~ 1e3. A row without positive eigenvalues gives -inf.
    """
    top = mu[:, -1].copy()
    out = np.full(mu.shape[0], -math.inf)
    good = top > 0
    if not np.any(good):
        return out
    mug = mu[good]
    topg = top[good]
    mask = mug > SUPPORT_CUT * topg[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(mask, np.log(np.where(mask, mug, 1.0)), -math.inf)
    scaled = np.where(mask, np.exp(z * (logs - np.log(topg)[:, None])), 0.0)
    out[good] = z * np.log2(topg) + np.log2(scaled.sum(axis=1))
    return out


def _log2_q(rho: Operator, sigma: Operator, p: AlphaZ) -> float:
    """log2 Q_{alpha,z}, after the support case split of the definition.

    -inf when alpha < 1 and the states are orthogonal, +inf when alpha > 1
    and supp(rho) is not contained in supp(sigma).
    """
    if p.alpha < 1.0:
        if is_orthogonal(rho, sigma):
            return -math.inf
    elif not is_dominated(rho, sigma):
        return math.inf
    a = hermitian_part(_power(rho, p.alpha / (2.0 * p.z)))
    core = a @ hermitian_part(_power(sigma, p.beta))
    core = core @ a
    del a
    # (M + M†)/2 with one d x d temporary: the same bits as hermitian_part
    core = core + core.conj().T
    core /= 2
    mu = np.linalg.eigvalsh(core)
    # drop the kernel first: zero padding would shift the blocks of numpy's
    # pairwise summation and move the sum by an ulp
    keep = _support_mask(mu)
    if not np.any(keep):
        return -math.inf
    return float(_log2_sum_powers_rows(mu[None, keep], p.z)[0])


def q_alpha_z(rho: DensityMatrix, sigma: Operator, p: AlphaZ) -> float:
    """The trace functional Q = Tr(rho^(a/2z) sigma^((1-a)/z) rho^(a/2z))^z.

    Negative powers are generalized inverses. Returns 0 when alpha < 1 and the
    states are orthogonal, and ``inf`` (Q undefined through exp((a-1)D) with
    D = inf) when alpha > 1 and supp(rho) is not contained in supp(sigma).
    Raises for alpha = 1; use :func:`d_umegaki`.
    """
    if p.on_umegaki_line:
        raise ValueError("Q_{alpha,z} is not defined on alpha = 1; use d_umegaki")
    return _q_from_log2(_log2_q(rho, sigma, p))


def _q_from_log2(log2q: float) -> float:
    if log2q == -math.inf:
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.exp2(log2q))


def _d_from_log2(log2q: float, p: AlphaZ) -> float:
    if log2q == -math.inf:
        # exactly or numerically orthogonal pair in the alpha < 1 branch
        return math.inf
    return log2q / (p.alpha - 1.0)


def d_alpha_z(rho: DensityMatrix, sigma: Operator, p: AlphaZ) -> float:
    """The alpha-z Renyi relative entropy D_{alpha,z}(rho || sigma), base 2.

    Follows the defining case split: finite iff (alpha < 1 and rho not
    orthogonal to sigma) or rho << sigma, otherwise +inf. At alpha = 1 it
    dispatches to the Umegaki relative entropy (valid for any z > 0).
    """
    if p.on_umegaki_line:
        return d_umegaki(rho, sigma)
    return _d_from_log2(_log2_q(rho, sigma, p), p)


def d_min(rho: DensityMatrix, sigma: Operator) -> float:
    """Min-relative entropy -log2 Tr(Pi(rho) sigma): sigma's weight on supp(rho)."""
    overlap = float(np.sum(_weights_on(sigma, _support_split(rho)[0])))
    if overlap <= 0.0:
        return math.inf
    return -math.log2(overlap)


def d_umegaki(rho: DensityMatrix, sigma: Operator) -> float:
    """Umegaki relative entropy Tr(rho (log2 rho - log2 sigma)).

    Evaluated on the support of rho; +inf if supp(rho) is not contained in
    supp(sigma). The cross term is sum_i log2 s_i <u_i| rho |u_i> over the
    support eigenpairs (s_i, u_i) of sigma.
    """
    if not is_dominated(rho, sigma):
        return math.inf
    wr = eig_hermitian(rho).eigenvalues
    keep = _support_mask(wr)
    ent = float(np.sum(wr[keep] * np.log2(wr[keep])))
    es = eig_hermitian(sigma)
    keep_s = _support_mask(es.eigenvalues)
    cross = float(np.dot(np.log2(es.eigenvalues[keep_s]), _weights_on(rho, es.vectors[:, keep_s])))
    return ent - cross


def d_max(rho: DensityMatrix, sigma: Operator) -> float:
    """Max-relative entropy log2 lambda_max(sigma^(-1/2) rho sigma^(-1/2)).

    +inf if supp(rho) is not contained in supp(sigma) (the generalized inverse
    would silently drop the offending block, so dominance is checked first).
    """
    if not is_dominated(rho, sigma):
        return math.inf
    inv_half = hermitian_part(_power(sigma, -0.5))
    core = hermitian_part(inv_half @ as_operator(rho).entries @ inv_half)
    top = float(np.linalg.eigvalsh(core)[-1])
    if top <= 0.0:
        return math.inf
    return math.log2(top)
