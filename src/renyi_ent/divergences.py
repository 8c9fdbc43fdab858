"""The alpha-z Renyi relative entropy family and its named limits.

All logarithms are base 2. Infinite divergences are returned as the value
``math.inf`` rather than raised; finite return values are never NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    LINE_ATOL,
    DensityMatrix,
    HermitianOperator,
    _joint_spectrum,
    _negligible_on,
    _power,
    _power_values,
    _split_weights,
    _support_mask,
    eig_hermitian,
    hermitian_part,
)


@dataclass(frozen=True)
class AlphaZ:
    """A validated (alpha, z) parameter pair with DPI-region membership flags.

    The data-processing inequality holds iff one of
      * 0 < alpha < 1 and z >= max(alpha, 1 - alpha),
      * 1 < alpha <= 2 and alpha/2 <= z <= alpha,
      * 2 <= alpha < inf and alpha - 1 <= z <= alpha,
    or alpha = 1 (any z > 0), which is included in the region.

    The line flags, within LINE_ATOL, are the package's only line test: alpha = 1,
    z = 1 - alpha (beta = 1) and z = alpha - 1 (beta = -1). Near their common
    point (1, 0) only the Umegaki flag is set.
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
        umegaki = abs(a - 1.0) <= LINE_ATOL
        object.__setattr__(self, "on_umegaki_line", umegaki)
        object.__setattr__(self, "on_reverse_line", not umegaki and abs(z - (1.0 - a)) <= LINE_ATOL)
        object.__setattr__(self, "on_lower_line", not umegaki and abs(z - (a - 1.0)) <= LINE_ATOL)
        in_region = umegaki
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


def is_orthogonal(rho: HermitianOperator, sigma: HermitianOperator) -> bool:
    """Support orthogonality: rho's weight on supp(sigma) is at most SUPPORT_CUT * lambda_max(rho)."""
    return _negligible_on(rho, sigma, support=True)


def is_dominated(rho: HermitianOperator, sigma: HermitianOperator) -> bool:
    """Support containment rho << sigma: rho's weight on ker(sigma) is at most SUPPORT_CUT * lambda_max(rho)."""
    return _negligible_on(rho, sigma, support=False)


def _log2_sum_powers_rows(mu: np.ndarray, z: float, counts=1.0) -> np.ndarray:
    """log2(sum_i c_i mu_i^z) per row of ascending values, over each row's positive entries.

    ``counts`` c, broadcast against mu, is each value's multiplicity. Scaled by
    each row's top: (mu/top)^z <= 1, so the sum neither overflows nor
    underflows to 0 even for z ~ 1e3. A row without positive entries gives
    -inf. Spectral callers zero the entries below the support cut first.
    """
    top = np.maximum(mu[:, -1:], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(mu > 0, (mu / top) ** z, 0.0)
        return z * np.log2(top[:, 0]) + np.log2((counts * scaled).sum(axis=1))


def _core(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """C = a s a, a = rho^(alpha/2z), s = sigma^beta or a batch of diag(w^beta), symmetrized in place.

    d_max takes its alpha -> inf limit, a = sigma^(-1/2) and s = rho. Built
    apart from the reader so that only C lives while it is decomposed.
    """
    core = a @ s @ a
    core += core.conj().swapaxes(-1, -2)  # one temporary, the bits of hermitian_part
    core /= 2
    return core


def _core_spectrum(core: np.ndarray, z: float):
    """(log2 Q, mu, V, f) per core from one ``eigh``, with log2 Q = log2 Tr C^z.

    mu is 0 off each core's support (:func:`linalg._support_mask`, top = mu[..., -1])
    and f = (mu/top)^(z-1) on the support, so chi = top^(z-1) (a V f)(a V)† = (a V mu^(z-1))(a V)†.
    """
    mu, v = np.linalg.eigh(core)
    top = mu[..., -1:]
    mu = np.where(_support_mask(mu), mu, 0.0)
    # z < 0 only for chi on the boundary lines, which discards log2 Q and f
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log2q = _log2_sum_powers_rows(mu.reshape(-1, mu.shape[-1]), z).reshape(top.shape[:-1])
        f = np.where(mu > 0, (mu / top) ** (z - 1.0), 0.0)
    return log2q, mu, v, f


def _log2_q(rho: HermitianOperator, sigma: HermitianOperator, p: AlphaZ, core_log2q: float | None = None) -> float:
    """log2 Q_{alpha,z}, after the support case split of the definition.

    -inf when alpha < 1 and the states are orthogonal, +inf when alpha > 1
    and supp(rho) is not contained in supp(sigma). Past that split a given
    ``core_log2q`` is returned: log2 Tr C^z read from a decomposition of the
    core C already made (``certificates.xi`` makes one for chi). On a shared
    basis the core's spectrum is the elementwise product r^(alpha/z) s^beta.
    """
    if p.alpha < 1.0:
        if is_orthogonal(rho, sigma):
            return -math.inf
    elif not is_dominated(rho, sigma):
        return math.inf
    if core_log2q is not None:
        return core_log2q
    a = p.alpha / (2.0 * p.z)
    joint = _joint_spectrum(rho, sigma)
    if joint is None:
        mu = np.linalg.eigvalsh(_core(hermitian_part(_power(rho, a)), hermitian_part(_power(sigma, p.beta))))
    else:
        r, s, _ = joint
        half = _power_values(r, a)
        mu = np.sort(half * half * _power_values(s, p.beta))
    # the power 1 is the support cut of the core's spectrum
    return float(_log2_sum_powers_rows(_power_values(mu, 1.0)[None, :], p.z)[0])


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


def _d_and_q(
    rho: DensityMatrix, sigma: HermitianOperator, p: AlphaZ, core_log2q: float | None = None
) -> tuple[float, float]:
    """(D_{alpha,z}, Q) from one log2 Q (``core_log2q`` as in :func:`_log2_q`); (d_umegaki, 1) at alpha = 1."""
    if p.on_umegaki_line:
        return d_umegaki(rho, sigma), 1.0
    log2q = _log2_q(rho, sigma, p, core_log2q)
    return _d_from_log2(log2q, p), _q_from_log2(log2q)


def d_alpha_z(rho: DensityMatrix, sigma: HermitianOperator, p: AlphaZ) -> float:
    """The alpha-z Renyi relative entropy D_{alpha,z}(rho || sigma), base 2.

    Follows the defining case split: finite iff (alpha < 1 and rho not
    orthogonal to sigma) or rho << sigma, otherwise +inf. At alpha = 1 it
    dispatches to the Umegaki relative entropy (valid for any z > 0).
    """
    return _d_and_q(rho, sigma, p)[0]


def d_min(rho: DensityMatrix, sigma: HermitianOperator) -> float:
    """Min-relative entropy -log2 Tr(Pi(rho) sigma): sigma's weight on supp(rho)."""
    overlap = float(np.sum(_split_weights(sigma, rho, True)[1]))
    if overlap <= 0.0:
        return math.inf
    return -math.log2(overlap)


def d_umegaki(rho: DensityMatrix, sigma: HermitianOperator) -> float:
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
    s, weights = _split_weights(rho, sigma, True)
    cross = float(np.dot(np.log2(s), weights))
    return ent - cross


def d_max(rho: DensityMatrix, sigma: HermitianOperator) -> float:
    """Max-relative entropy log2 lambda_max(sigma^(-1/2) rho sigma^(-1/2)).

    +inf if supp(rho) is not contained in supp(sigma) (the generalized inverse
    would silently drop the offending block, so dominance is checked first).
    """
    if not is_dominated(rho, sigma):
        return math.inf
    core = _core(hermitian_part(_power(sigma, -0.5)), rho.entries)
    top = float(np.linalg.eigvalsh(core)[-1])
    if top <= 0.0:
        return math.inf
    return math.log2(top)
