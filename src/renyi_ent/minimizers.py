"""Direct numerical minimization over probability simplices.

These cover the cases where the free-set optimization provably reduces to a
simplex: incoherent states (coherence monotones), the diagonal set T_rho for
maximally correlated states, and the conditional-entropy minimization over
I (x) sigma_B. On tau = diag(w) the optimality condition reads
w_j^(beta-1) chi_jj = Q on the support (beta = (1-alpha)/z), so the solver
iterates the multiplicative map w_j <- w_j r_j^theta (renormalized) with
r_j = w_j^(beta-1) chi_jj / Q, whose fixed points are exactly that condition.
Value and exact gradient come from one eigendecomposition per step, and a run
stops when max_j r_j - 1 on the support, the certificate's own relative
margin, falls to 1e-12. Inside the DPI region any local minimum is global, so
a small multi-start is only a guard against stalls at the simplex boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .certificates import CertificateReport, is_maximally_correlated, marginal_condition_mc, certify_optimizer
from .divergences import AlphaZ, _log2_sum_powers_rows, _require_dpi
from .linalg import SUPPORT_CUT, DensityMatrix, _power, _support_mask, density

_SUPPORT_DIAG_TOL = 1e-12
_LN2 = math.log(2.0)
# a run is stationary once max_j r_j - 1 on the support is at most this; the
# certificate margin is then about -1e-12 Q against its band of 1e-7 Q
_STATIONARY_TOL = 1e-12
# at the stationary point objective differences are float noise: a step may
# raise f by this much (relative) if it lowers the stationarity gap
_NOISE_REL = 1e-13
# a step whose exponent halves below this without progress ends the run
_MIN_THETA = 2.0**-30


@dataclass(frozen=True)
class SolverOptions:
    """Multi-start settings of the fixed-point simplex solver.

    ``starts`` runs are made: the warm start (when given) first, then seeded
    Dirichlet draws. ``max_iters`` bounds the accepted steps of each run.
    """

    starts: int = 8
    max_iters: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError(f"starts must be >= 1, got {self.starts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class SimplexProblem:
    """A batched objective over the probability simplex.

    ``objective`` maps an (m, dimension) array of weight rows to m values
    (inf allowed) and their (m, dimension) gradients. It must shift like a
    divergence against diag(w), f(c w) = f(w) - log2 c, so that
    r = -ln2 * gradient satisfies sum_j w_j r_j = 1. ``theta`` is the first
    exponent tried in each step w <- w r^theta.
    """

    objective: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    dimension: int
    theta: float = 1.0


class SimplexRun(NamedTuple):
    """Best value and weights of a multi-start solve, with per-start records."""

    value: float
    weights: np.ndarray
    per_start: tuple[float, ...]
    iterations: tuple[int, ...]
    stop_reason: str  # of the run that gave ``weights``


@dataclass(frozen=True)
class SimplexSolution:
    value: float
    weights: np.ndarray
    sigma: DensityMatrix
    per_start: tuple[float, ...]
    iterations: tuple[int, ...]  # accepted steps, per start
    stop_reason: str  # "stationary" | "max-iters" | "no-descent", of the best start
    certificate: CertificateReport | None = None


def _evaluate(f, w: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(f(w), r, stationarity gap max_j r_j - 1 over the support of w).

    r >= 0 in exact arithmetic; the clip keeps a rounded-negative diagonal
    entry of rho from producing a negative weight.
    """
    values, grads = f(w[None, :])
    r = np.maximum(-_LN2 * grads[0], 0.0)
    live = w > 0
    gap = float(np.max(r[live])) - 1.0 if np.any(live) else math.inf
    return float(values[0]), r, gap


def _fixed_point(f, w0: np.ndarray, theta0: float, opts: SolverOptions) -> tuple[float, np.ndarray, int, str]:
    """One run of w <- normalize(w r^theta) from ``w0``: (value, w, steps, stop reason).

    A step is accepted when it does not raise f, or raises it by float noise
    while lowering the stationarity gap; otherwise theta halves.
    """
    w = np.maximum(np.asarray(w0, dtype=float), 0.0)
    w = w / w.sum()
    fw, r, gap = _evaluate(f, w)
    if not math.isfinite(fw):
        w = np.full_like(w, 1.0 / w.size)
        fw, r, gap = _evaluate(f, w)
        if not math.isfinite(fw):
            return fw, w, 0, "no-descent"
    for it in range(opts.max_iters):
        if gap <= _STATIONARY_TOL:
            return fw, w, it, "stationary"
        theta = theta0
        noise = _NOISE_REL * max(1.0, abs(fw))
        while True:
            step = w * r**theta
            step /= step.sum()
            fs, rs, gs = _evaluate(f, step)
            if fs <= fw or (fs <= fw + noise and gs < gap):
                break
            theta /= 2.0
            if theta < _MIN_THETA:
                return fw, w, it, "no-descent"
        w, fw, r, gap = step, fs, rs, gs
    return fw, w, opts.max_iters, "stationary" if gap <= _STATIONARY_TOL else "max-iters"


def minimize_simplex(
    problem: SimplexProblem, opts: SolverOptions | None = None, warm: np.ndarray | None = None
) -> SimplexRun:
    """Multi-start fixed-point solve; the best run plus per-start values and steps."""
    opts = opts or SolverOptions()
    d = problem.dimension
    rng = np.random.default_rng(opts.seed)
    starts = []
    if warm is not None:
        starts.append(np.asarray(warm, dtype=float))
    while len(starts) < opts.starts:
        starts.append(rng.dirichlet(np.ones(d)))
    best = (math.inf, np.full(d, 1.0 / d), "no-descent")
    values, steps = [], []
    for s0 in starts:
        val, s, it, reason = _fixed_point(problem.objective, s0, problem.theta, opts)
        values.append(val)
        steps.append(it)
        if val < best[0]:
            best = (val, s, reason)
    return SimplexRun(best[0], best[1], tuple(values), tuple(steps), best[2])


# ---------------------------------------------------------------------------
# Batched divergence objectives against a diagonal second argument
# ---------------------------------------------------------------------------


def _diag_objective(
    rho_matrix: np.ndarray,
    p: AlphaZ,
    support_diag: np.ndarray,
    reps: int = 1,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """f(S) = D_{alpha,z}(rho || diag(w)) and dD/ds for rows s of S, w = s tiled ``reps`` times.

    ``reps`` = 1 is the incoherent/T_rho problem, ``reps`` = d the
    I (x) sigma_B one; the gradient of a tiled weight sums over its blocks.
    ``support_diag`` is the diagonal of rho in the same basis (length
    ``reps * s.size``), used for the alpha >= 1 support blow-up: any
    exactly-zero weight carrying rho-mass forces +inf.

    Off the Umegaki line both come from one eigh of the core
    C = A diag(w^beta) A, A = rho^(alpha/2z): dD/dw_j = -w_j^(beta-1) chi_jj / (Q ln2)
    with chi = A C^(z-1) A and Q = Tr C^z, both scaled by the top eigenvalue
    of C. On the line dD/dw_j = -rho_jj / (w_j ln2).
    """
    alpha, z = p.alpha, p.z

    def tiled(S: np.ndarray) -> np.ndarray:
        S = np.asarray(S, dtype=float)
        return S if reps == 1 else np.tile(S, (1, reps))

    def fold(G: np.ndarray) -> np.ndarray:
        return G if reps == 1 else G.reshape(G.shape[0], reps, -1).sum(axis=1)

    if p.on_umegaki_line:
        w_rho, _ = np.linalg.eigh(rho_matrix)
        w_rho = w_rho[_support_mask(w_rho)]
        self_term = float(np.sum(w_rho * np.log2(w_rho)))
        # the cross term needs the actual diagonal of rho; support_diag is only
        # the (possibly marginalized) mass used to detect support violations
        true_diag = np.real(np.diag(rho_matrix)).copy()

        def f_umegaki(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            W = tiled(S)
            out = np.empty(W.shape[0])
            grad = np.zeros(W.shape)
            for r in range(W.shape[0]):
                w = W[r]
                dead = w <= 0
                if np.any(dead & (support_diag > _SUPPORT_DIAG_TOL)):
                    out[r] = math.inf
                    continue
                live = ~dead
                out[r] = self_term - float(np.sum(true_diag[live] * np.log2(w[live])))
                grad[r, live] = -true_diag[live] / (w[live] * _LN2)
            return out, fold(grad)

        return f_umegaki

    a_half = _power(rho_matrix, alpha / (2.0 * z))
    b_exp = (1.0 - alpha) / z

    def f(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        W = tiled(S)
        live = W > 0
        with np.errstate(divide="ignore"):
            Wp = np.where(live, W**b_exp, 0.0)
        core = np.einsum("ij,rj,jk->rik", a_half, Wp, a_half)
        core = (core + np.conj(np.transpose(core, (0, 2, 1)))) / 2
        mu, vecs = np.linalg.eigh(core)
        log2q = _log2_sum_powers_rows(mu, z)
        out = log2q / (alpha - 1.0)
        if alpha > 1.0:
            bad = np.any(~live & (support_diag[None, :] > _SUPPORT_DIAG_TOL), axis=1)
            out[bad] = math.inf
        finite = np.isfinite(log2q)
        out[~finite] = math.inf

        # r_j = w_j^(beta-1) chi_jj / Q with chi and Q scaled by top = mu_max:
        # chi / Q = chi~ / (top Q~), Q~ = sum (mu/top)^z = 2^(log2q - z log2 top)
        grad = np.zeros(W.shape)
        rows = np.flatnonzero(finite)
        if rows.size:
            mu_g = mu[rows]
            top = mu_g[:, -1]
            mask = mu_g > SUPPORT_CUT * top[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                scaled = np.where(mask, (mu_g / top[:, None]) ** (z - 1.0), 0.0)
            av = a_half @ vecs[rows]
            chi_diag = np.einsum("rjk,rk->rj", (av * av.conj()).real, scaled)
            q_scaled = np.exp2(log2q[rows] - z * np.log2(top))
            with np.errstate(divide="ignore"):
                w_pow = np.where(live[rows], W[rows] ** (b_exp - 1.0), 0.0)
            grad[rows] = -w_pow * chi_diag / ((top * q_scaled)[:, None] * _LN2)
        return out, fold(grad)

    return f


def _solve(
    rho_matrix: np.ndarray, p: AlphaZ, mass: np.ndarray, opts: SolverOptions | None, reps: int = 1
) -> SimplexRun:
    """min_s D_{alpha,z}(rho || diag(s tiled ``reps`` times)) over the simplex.

    ``mass`` is the rho-mass on each simplex coordinate: normalized, it is the
    warm start; tiled, it decides the alpha >= 1 support blow-up. Steps start
    at theta = min(1, 1/alpha): the undamped map overshoots at large alpha.
    """
    _require_dpi(p)
    objective = _diag_objective(rho_matrix, p, np.tile(mass, reps), reps)
    warm = np.maximum(mass, 0.0)
    problem = SimplexProblem(objective, mass.size, min(1.0, 1.0 / p.alpha))
    return minimize_simplex(problem, opts, warm / warm.sum())


# ---------------------------------------------------------------------------
# Public minimizations
# ---------------------------------------------------------------------------


def minimize_incoherent(
    rho: DensityMatrix,
    p: AlphaZ,
    basis: np.ndarray | None = None,
    opts: SolverOptions | None = None,
) -> SimplexSolution:
    """Closest incoherent state: min_s D_{alpha,z}(rho || diag(s)) in ``basis``.

    Warm-started at the dephased diagonal of rho; the returned sigma is
    expressed in the original basis, and an incoherent-free-set certificate
    for it is attached.
    """
    d = rho.dim
    b = np.eye(d, dtype=complex) if basis is None else np.asarray(basis, dtype=complex)
    rho_b = b.conj().T @ rho.entries @ b
    run = _solve(rho_b, p, np.real(np.diag(rho_b)), opts)
    sigma = density(b @ np.diag(run.weights) @ b.conj().T, rho.partition)
    report = certify_optimizer(rho, sigma, p, free_set="incoherent", coherence_basis=b)
    return SimplexSolution(sigma=sigma, certificate=report, **run._asdict())


def _compress_mc(rho: DensityMatrix) -> np.ndarray:
    """The d x d coefficient matrix of an MC state under |ii> -> |i>."""
    if not is_maximally_correlated(rho):
        raise ValueError("rho is not maximally correlated within 1e-10")
    d = rho.dims[0]
    idx = np.array([i * d + i for i in range(d)])
    return rho.entries[np.ix_(idx, idx)].copy()


def minimize_mc(
    rho: DensityMatrix, p: AlphaZ, opts: SolverOptions | None = None
) -> SimplexSolution:
    """Monotone value of a maximally correlated state via the T_rho reduction.

    The objective is evaluated on the d x d compression of rho (the isometry
    |ii> -> |i> leaves the divergence unchanged); the result is cross-checked
    with :func:`marginal_condition_mc` and the certificate is attached.
    """
    small = _compress_mc(rho)
    d = small.shape[0]
    run = _solve(small, p, np.real(np.diag(small)), opts)
    m = np.zeros((d * d, d * d))
    for i, w in enumerate(run.weights):
        m[i * d + i, i * d + i] = w
    tau = density(m, rho.partition)
    report = marginal_condition_mc(rho, tau, p)
    return SimplexSolution(sigma=tau, certificate=report, **run._asdict())


def minimize_conditional_mc(
    rho: DensityMatrix, p: AlphaZ, opts: SolverOptions | None = None
) -> SimplexSolution:
    """min_s D_{alpha,z}(rho || I_A (x) diag(s)) for a maximally correlated rho.

    Evaluated on the full (d^2)-dimensional operators, deliberately not
    through the compressed route, so comparing with :func:`minimize_mc` is a
    genuine two-route check of the conditional-entropy identity.
    """
    if not is_maximally_correlated(rho):
        raise ValueError("rho is not maximally correlated within 1e-10")
    d = rho.dims[0]
    # I_A (x) diag(s) has diagonal w[(i,j)] = s_j; rho mass per B index decides
    # the alpha >= 1 support blow-up
    support_b = np.real(np.diag(rho.entries)).reshape(d, d).sum(axis=0)
    run = _solve(rho.entries, p, support_b, opts, reps=d)
    return SimplexSolution(sigma=density(np.diag(run.weights), (d,)), **run._asdict())


def conditional_entropy_mc(
    rho: DensityMatrix, p: AlphaZ, opts: SolverOptions | None = None
) -> float:
    """H_up(A|B) = -min_{sigma_B} D_{alpha,z}(rho || I_A (x) sigma_B) for MC rho."""
    return -minimize_conditional_mc(rho, p, opts).value
