"""Direct numerical minimization over probability simplices.

These cover the cases where the free-set optimization provably reduces to
D_{alpha,z}(rho || diag(w)) on one simplex: incoherent states (coherence
monotones) and the diagonal set T_rho for maximally correlated states. Both
are one solve on the compression of rho to a set of basis states, all of them
or the states |ii>. On tau = diag(w) the optimality condition reads
w_j^(beta-1) chi_jj = Q on the support (beta = (1-alpha)/z), so the solver
iterates the multiplicative map w_j <- w_j r_j^theta (renormalized) with
r_j = w_j^(beta-1) chi_jj / Q, whose fixed points are exactly that
condition. Value and exact gradient come from one
eigendecomposition per step, and a run stops when max_j r_j - 1 on the
support, the certificate's own relative margin, falls to STATIONARY_TOL. Inside the
DPI region any local minimum is global, so a small multi-start is only a
guard against stalls at the simplex boundary. The starts run in lockstep as
the rows of one batched objective call per step, each with its own step size
and stopping test, so every start follows the iterates it would follow alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .certificates import CertificateReport, _free_indices, certify_optimizer
from .divergences import AlphaZ, _core, _core_spectrum, _require_dpi
from .linalg import (
    NOISE_REL, STATIONARY_TOL, SUPPORT_CUT, DensityMatrix, HermitianOperator, _power, _support_mask,
    density, eig_hermitian,
)

_LN2 = math.log(2.0)
# a step whose exponent halves below this without progress ends the run
_MIN_THETA = 2.0**-30
# accepted steps per run before it stops with "max-iters"
MAX_ITERS = 10_000


@dataclass(frozen=True)
class SolverOptions:
    """Multi-start settings of the fixed-point simplex solver.

    ``starts`` runs are made: the warm start (when given) first, then seeded
    Dirichlet draws. ``MAX_ITERS`` bounds the accepted steps of each run.
    """

    starts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError(f"starts must be >= 1, got {self.starts}")


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


class SimplexSolution(NamedTuple):
    """Best value and weights of a multi-start solve, with per-start records.

    :func:`minimize_simplex` leaves ``sigma`` and ``certificate`` unset; the
    public minimizations fill them with the closest free state diag(w) and its
    certificate.
    """

    value: float
    weights: np.ndarray
    per_start: tuple[float, ...]
    iterations: tuple[int, ...]  # accepted steps, per start
    stop_reason: str  # "stationary" | "max-iters" | "no-descent", of the best start
    stop_reasons: tuple[str, ...]  # per start
    sigma: DensityMatrix | None = None
    certificate: CertificateReport | None = None


def _ratios(f, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f on the rows of W, r = -ln2 * gradient, and each row's gap max_j r_j - 1 over its support.

    r >= 0 in exact arithmetic; the clip keeps a rounded-negative diagonal
    entry of rho from producing a negative weight. A row without support has gap inf.
    """
    values, grads = f(W)
    r = np.maximum(-_LN2 * grads, 0.0)
    live = W > 0
    gaps = np.where(live.any(axis=1), np.max(np.where(live, r, -math.inf), axis=1) - 1.0, math.inf)
    return np.array(values, dtype=float), r, gaps


def minimize_simplex(
    problem: SimplexProblem, opts: SolverOptions | None = None, warm: np.ndarray | None = None
) -> SimplexSolution:
    """Multi-start fixed-point solve; the best run plus per-start values, steps and stop reasons.

    Returns a :class:`SimplexSolution` with ``sigma`` and ``certificate`` unset.

    Each start runs w <- normalize(w r^theta). A step is accepted when it does
    not raise f, or raises it by float noise while lowering the stationarity
    gap; otherwise that start's theta halves, and it is reset after an
    accepted step. The starts advance in lockstep, as the rows of one
    objective call per step, and each leaves the batch on its own stopping
    test: "stationary", "max-iters" after MAX_ITERS accepted steps, or
    "no-descent" once theta falls below _MIN_THETA. A start whose value is
    not finite moves to the uniform point, and ends "no-descent" with 0 steps
    if that is not finite either.
    """
    opts = opts or SolverOptions()
    d, f, theta0 = problem.dimension, problem.objective, problem.theta
    rng = np.random.default_rng(opts.seed)
    starts = []
    if warm is not None:
        starts.append(np.asarray(warm, dtype=float))
    while len(starts) < opts.starts:
        starts.append(rng.dirichlet(np.ones(d)))
    w = np.maximum(np.array(starts), 0.0)
    w /= w.sum(axis=1, keepdims=True)
    fw, r, gap = _ratios(f, w)
    bad = ~np.isfinite(fw)
    if bad.any():
        w[bad] = 1.0 / d
        fw[bad], r[bad], gap[bad] = _ratios(f, w[bad])

    steps = np.zeros(len(starts), dtype=int)
    theta = np.full(len(starts), theta0)
    reasons = np.full(len(starts), "", dtype=object)

    def settle(rows: np.ndarray) -> None:
        """The stopping tests of rows at an accepted point; stationarity wins."""
        reasons[rows[steps[rows] >= MAX_ITERS]] = "max-iters"
        reasons[rows[gap[rows] <= STATIONARY_TOL]] = "stationary"

    settle(np.arange(len(starts)))
    reasons[~np.isfinite(fw)] = "no-descent"
    active = np.flatnonzero(reasons == "")
    while active.size:
        # one scalar power per distinct theta, as a start run alone takes it:
        # numpy evaluates r**0.5 as sqrt(r), which an array of exponents would not
        trial, thetas = np.empty((active.size, d)), theta[active]
        for t in set(thetas.tolist()):
            same = thetas == t
            trial[same] = w[active[same]] * r[active[same]] ** t
        trial /= trial.sum(axis=1, keepdims=True)
        fs, rs, gs = _ratios(f, trial)
        old = fw[active]
        noise = NOISE_REL * np.maximum(1.0, np.abs(old))
        ok = (fs <= old) | ((fs <= old + noise) & (gs < gap[active]))
        accepted, rejected = active[ok], active[~ok]
        w[accepted], fw[accepted], r[accepted], gap[accepted] = trial[ok], fs[ok], rs[ok], gs[ok]
        steps[accepted] += 1
        theta[accepted] = theta0
        theta[rejected] /= 2.0
        reasons[rejected[theta[rejected] < _MIN_THETA]] = "no-descent"
        settle(accepted)
        active = active[reasons[active] == ""]

    best = (math.inf, np.full(d, 1.0 / d), "no-descent")
    for val, s, reason in zip(fw, w, reasons):
        if val < best[0]:
            best = (float(val), s.copy(), reason)
    return SimplexSolution(
        best[0], best[1], tuple(float(v) for v in fw), tuple(int(n) for n in steps), best[2], tuple(reasons)
    )


# ---------------------------------------------------------------------------
# Batched divergence objectives against a diagonal second argument
# ---------------------------------------------------------------------------


def _diag_objective(rho_matrix: np.ndarray, p: AlphaZ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """f(W) = D_{alpha,z}(rho || diag(w)) and dD/dw for rows w of W.

    For alpha >= 1 a row is +inf when rho's diagonal mass on its exactly-zero
    weights exceeds SUPPORT_CUT * lambda_max(rho), the rule of :func:`is_dominated`.

    Off the Umegaki line both come from one eigh of the shared alpha-z core
    C = A diag(w^beta) A, A = rho^(alpha/2z): dD/dw_j = -w_j^(beta-1) chi_jj / (Q ln2)
    with chi = A C^(z-1) A and Q = Tr C^z, both scaled by the top eigenvalue
    of C. On the line dD/dw_j = -rho_jj / (w_j ln2).
    """
    alpha, z = p.alpha, p.z
    diag = np.real(np.diag(rho_matrix))
    op = HermitianOperator(rho_matrix, (rho_matrix.shape[0],))
    w_rho = np.linalg.eigvalsh(rho_matrix) if p.on_umegaki_line else eig_hermitian(op).eigenvalues
    # alpha >= 1: rho-mass beyond the support cut on zero weights makes the divergence infinite
    cut = SUPPORT_CUT * max(float(w_rho[-1]), 0.0) if p.on_umegaki_line or alpha > 1.0 else math.inf

    def blown_up(W: np.ndarray) -> np.ndarray:
        return (W <= 0) @ diag > cut

    if p.on_umegaki_line:
        w_rho = w_rho[_support_mask(w_rho)]
        self_term = float(np.sum(w_rho * np.log2(w_rho)))

        def f_umegaki(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            live = W > 0
            w_live = np.where(live, W, 1.0)
            out = self_term - np.sum(np.where(live, diag * np.log2(w_live), 0.0), axis=1)
            out[blown_up(W)] = math.inf
            return out, np.where(live, -diag / (w_live * _LN2), 0.0)

        return f_umegaki

    a_half = _power(op, alpha / (2.0 * z))
    b_exp = (1.0 - alpha) / z
    eye = np.eye(rho_matrix.shape[0])

    def f(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        live = W > 0
        with np.errstate(divide="ignore"):
            s = np.where(live, W**b_exp, 0.0)[:, :, None] * eye  # the batch of diag(w^beta)
        log2q, mu, vecs, scaled = _core_spectrum(_core(a_half, s), z)
        out = log2q / (alpha - 1.0)
        finite = np.isfinite(log2q)
        out[blown_up(W) | ~finite] = math.inf

        # r_j = w_j^(beta-1) chi_jj / Q with chi and Q scaled by top = mu_max:
        # chi / Q = chi~ / (top Q~), Q~ = sum (mu/top)^z = 2^(log2q - z log2 top);
        # a row with Q = 0 (top = 0) gets a zero gradient
        top = mu[:, -1]
        av = a_half @ vecs
        chi_diag = ((av * av.conj()).real @ scaled[:, :, None])[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            q_scaled = np.exp2(log2q - z * np.log2(top))
            w_pow = np.where(live, W ** (b_exp - 1.0), 0.0)
            return out, np.where(finite[:, None], -w_pow * chi_diag / ((top * q_scaled)[:, None] * _LN2), 0.0)

    return f


# ---------------------------------------------------------------------------
# Public minimizations
# ---------------------------------------------------------------------------


def _solve_on(rho: DensityMatrix, p: AlphaZ, opts: SolverOptions | None, free_set: str) -> SimplexSolution:
    """min_w D_{alpha,z}(rho || sum_j w_j |b_j><b_j|) over the basis states b_j of a finite free set.

    The states are :func:`certificates._free_indices`'s (it checks an MC rho ahead of the DPI check).
    Solved on the compression of rho to them, which leaves the divergence unchanged when rho is supported
    on their span. Warm-started at the compression's diagonal; steps start at theta = min(1, 1/alpha), since
    the undamped map overshoots at large alpha. ``sigma`` = diag(w) and its certificate are attached.
    """
    indices = _free_indices(rho, free_set)
    _require_dpi(p)
    block = rho.entries[np.ix_(indices, indices)]
    warm = np.maximum(np.real(np.diag(block)), 0.0)
    problem = SimplexProblem(_diag_objective(block, p), warm.size, min(1.0, 1.0 / p.alpha))
    run = minimize_simplex(problem, opts, warm / warm.sum())
    w = np.zeros(rho.dim)
    w[indices] = run.weights
    sigma = density(np.diag(w), rho.dims)
    return run._replace(sigma=sigma, certificate=certify_optimizer(rho, sigma, p, free_set))


def minimize_incoherent(rho: DensityMatrix, p: AlphaZ, opts: SolverOptions | None = None) -> SimplexSolution:
    """Closest incoherent state: min_s D_{alpha,z}(rho || diag(s)) in the computational basis.

    The basis-state solve on every index, warm-started at the dephased
    diagonal of rho; an incoherent-free-set certificate for the returned sigma
    is attached. For another basis U, pass U† rho U and conjugate sigma back.
    """
    return _solve_on(rho, p, opts, "incoherent")


def minimize_mc(rho: DensityMatrix, p: AlphaZ, opts: SolverOptions | None = None) -> SimplexSolution:
    """Monotone value of a maximally correlated state via the T_rho reduction.

    The same solve as :func:`minimize_incoherent`, on the states |ii> alone:
    rho lives on their span, so its compression there (the d x d coefficient
    matrix) carries the divergence. The "mc-diagonal" certificate of
    :func:`certificates.certify_optimizer` is attached.
    """
    return _solve_on(rho, p, opts, "mc-diagonal")
