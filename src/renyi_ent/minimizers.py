"""Direct numerical minimization over probability simplices.

These cover the cases where the free-set optimization provably reduces to a
simplex: incoherent states (coherence monotones), the diagonal set T_rho for
maximally correlated states, and the conditional-entropy minimization over
I (x) sigma_B. The solver is projected gradient descent with central
finite-difference gradients and backtracking line search; inside the DPI
region any local minimum is global, so a small multi-start is only a guard
against stalls at the simplex boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certificates import CertificateReport, is_maximally_correlated, marginal_condition_mc, certify_optimizer
from .divergences import AlphaZ, _log2_sum_powers_rows, _require_dpi
from .linalg import DEFAULT_REL_CUT, DensityMatrix, _power, _support_mask, density

_SUPPORT_DIAG_TOL = 1e-12
_PIN_TOL = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """PGD settings.

    The finite-difference step and stopping tolerance are tighter than first
    looks necessary: the optimizer certificates are first-order sensitive to
    the weight error while the objective is only second-order, so stopping at
    an objective improvement of 1e-12 leaves margins around 1e-6, too coarse
    for the 1e-7 certification band. Step 1e-7 with improvement tolerance
    1e-14 (and a short patience) brings certificate margins to ~1e-9.
    """

    starts: int = 8
    max_iters: int = 10_000
    fd_step: float = 1e-7
    tol: float = 1e-14
    patience: int = 3
    seed: int = 0


@dataclass(frozen=True)
class SimplexProblem:
    """A batched objective over the probability simplex.

    ``objective`` maps an (m, dimension) array of weight rows to m values
    (inf allowed).
    """

    objective: Callable[[np.ndarray], np.ndarray]
    dimension: int


@dataclass(frozen=True)
class SimplexSolution:
    value: float
    weights: np.ndarray
    sigma: DensityMatrix
    per_start: tuple[float, ...]
    certificate: CertificateReport | None = None


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    cond = u + (1.0 - css) / idx > 0
    rho = int(np.nonzero(cond)[0][-1])
    lam = (1.0 - css[rho]) / (rho + 1)
    return np.maximum(v + lam, 0.0)


def _fd_gradient(f, s: np.ndarray, fs: float, h: float) -> np.ndarray:
    d = s.size
    plus = s[None, :] + h * np.eye(d)
    minus = s[None, :] - h * np.eye(d)
    one_sided = np.diag(minus) < 0
    minus[one_sided] = s
    vals = f(np.vstack([plus, minus]))
    fp, fm = vals[:d], vals[d:]
    g = np.zeros(d)
    for i in range(d):
        backward_ok = math.isfinite(fm[i]) and not one_sided[i]
        if math.isfinite(fp[i]) and backward_ok:
            g[i] = (fp[i] - fm[i]) / (2.0 * h)
        elif math.isfinite(fp[i]):
            g[i] = (fp[i] - fs) / h
        elif backward_ok:
            g[i] = (fs - fm[i]) / h
        # else: both sides infinite, leave the component frozen
    return g


def _pin(s: np.ndarray) -> np.ndarray:
    out = np.where(s < _PIN_TOL, 0.0, s)
    total = out.sum()
    return out / total if total > 0 else np.full_like(s, 1.0 / s.size)


def _pgd(f, s0: np.ndarray, opts: SolverOptions) -> tuple[float, np.ndarray]:
    s = _pin(project_to_simplex(np.asarray(s0, dtype=float)))
    fs = float(f(s[None, :])[0])
    if not math.isfinite(fs):
        s = np.full_like(s, 1.0 / s.size)
        fs = float(f(s[None, :])[0])
    eta = 1.0
    stalled = 0
    for _ in range(opts.max_iters):
        g = _fd_gradient(f, s, fs, opts.fd_step)
        etas = eta * 2.0 ** np.arange(1, -14, -1.0)
        cands = np.array([_pin(project_to_simplex(s - e * g)) for e in etas])
        fc = f(cands)
        moved = np.sum((cands - s[None, :]) ** 2, axis=1)
        ok = np.isfinite(fc) & (fc <= fs - 1e-4 * moved / etas) & (moved > 0)
        if not np.any(ok):
            # no sufficient-decrease step: take any strict improvement,
            # otherwise deepen the backtracking ladder before giving up
            finite = np.isfinite(fc)
            if np.any(finite) and np.min(fc[finite]) < fs:
                pick = int(np.flatnonzero(finite)[np.argmin(fc[finite])])
            elif float(etas[-1]) > 1e-15 and np.any(moved > 0):
                eta = float(etas[-1])
                continue
            else:
                break
        else:
            pick = int(np.flatnonzero(ok)[0])
        new_s, new_f = cands[pick], float(fc[pick])
        eta = max(float(etas[pick]), 1e-12)
        stalled = stalled + 1 if fs - new_f <= opts.tol * max(1.0, abs(new_f)) else 0
        s, fs = new_s, new_f
        if stalled >= opts.patience:
            break
    return fs, s


def minimize_simplex(
    problem: SimplexProblem, opts: SolverOptions | None = None, warm: np.ndarray | None = None
) -> tuple[float, np.ndarray, tuple[float, ...]]:
    """Multi-start PGD; returns (best value, best weights, per-start values)."""
    opts = opts or SolverOptions()
    d = problem.dimension
    rng = np.random.default_rng(opts.seed)
    starts = []
    if warm is not None:
        starts.append(np.asarray(warm, dtype=float))
    while len(starts) < max(1, opts.starts):
        starts.append(rng.dirichlet(np.ones(d)))
    best_val, best_s = math.inf, np.full(d, 1.0 / d)
    history = []
    for s0 in starts:
        val, s = _pgd(problem.objective, s0, opts)
        history.append(val)
        if val < best_val:
            best_val, best_s = val, s
    return best_val, best_s, tuple(history)


# ---------------------------------------------------------------------------
# Batched divergence objectives against a diagonal second argument
# ---------------------------------------------------------------------------


def _diag_objective(
    rho_matrix: np.ndarray,
    p: AlphaZ,
    weight_map: Callable[[np.ndarray], np.ndarray],
    support_diag: np.ndarray,
    rel_cut: float = DEFAULT_REL_CUT,
) -> Callable[[np.ndarray], np.ndarray]:
    """f(S) = D_{alpha,z}(rho || diag(weight_map(s))) for rows s of S.

    ``weight_map`` expands the simplex variable to the full diagonal (identity
    for incoherent/T_rho problems, tiling for I (x) sigma_B). ``support_diag``
    is the diagonal of rho in the same basis, used for the alpha >= 1 support
    blow-up: any exactly-zero weight carrying rho-mass forces +inf.
    """
    alpha, z = p.alpha, p.z
    if p.on_umegaki_line:
        w_rho, _ = np.linalg.eigh(rho_matrix)
        w_rho = w_rho[_support_mask(w_rho, rel_cut)]
        self_term = float(np.sum(w_rho * np.log2(w_rho)))
        # the cross term needs the actual diagonal of rho; support_diag is only
        # the (possibly marginalized) mass used to detect support violations
        true_diag = np.real(np.diag(rho_matrix)).copy()

        def f_umegaki(S: np.ndarray) -> np.ndarray:
            W = weight_map(np.asarray(S, dtype=float))
            out = np.empty(W.shape[0])
            for r in range(W.shape[0]):
                w = W[r]
                dead = w <= 0
                if np.any(dead & (support_diag > _SUPPORT_DIAG_TOL)):
                    out[r] = math.inf
                    continue
                live = ~dead
                out[r] = self_term - float(np.sum(true_diag[live] * np.log2(w[live])))
            return out

        return f_umegaki

    a_half = _power(rho_matrix, alpha / (2.0 * z), rel_cut)
    b_exp = (1.0 - alpha) / z

    def f(S: np.ndarray) -> np.ndarray:
        W = weight_map(np.asarray(S, dtype=float))
        with np.errstate(divide="ignore"):
            Wp = np.where(W > 0, W ** b_exp, 0.0)
        core = np.einsum("ij,rj,jk->rik", a_half, Wp, a_half)
        core = (core + np.conj(np.transpose(core, (0, 2, 1)))) / 2
        mu = np.linalg.eigvalsh(core)
        log2q = _log2_sum_powers_rows(mu, z, rel_cut)
        out = log2q / (alpha - 1.0)
        if alpha > 1.0:
            bad = np.any((W <= 0) & (support_diag[None, :] > _SUPPORT_DIAG_TOL), axis=1)
            out[bad] = math.inf
        out[~np.isfinite(log2q)] = math.inf
        return out

    return f


def _solve(
    rho_matrix: np.ndarray, p: AlphaZ, mass: np.ndarray, opts: SolverOptions | None, reps: int = 1
) -> tuple[float, np.ndarray, tuple[float, ...]]:
    """min_s D_{alpha,z}(rho || diag(s tiled ``reps`` times)) over the simplex.

    ``mass`` is the rho-mass on each simplex coordinate: normalized, it is the
    warm start; tiled, it decides the alpha >= 1 support blow-up.
    """
    _require_dpi(p)
    weight_map = (lambda S: S) if reps == 1 else (lambda S: np.tile(S, (1, reps)))
    objective = _diag_objective(rho_matrix, p, weight_map, np.tile(mass, reps))
    warm = np.maximum(mass, 0.0)
    return minimize_simplex(SimplexProblem(objective, mass.size), opts, warm / warm.sum())


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
    value, s, history = _solve(rho_b, p, np.real(np.diag(rho_b)), opts)
    sigma = density(b @ np.diag(s) @ b.conj().T, rho.partition)
    report = certify_optimizer(rho, sigma, p, free_set="incoherent", coherence_basis=b)
    return SimplexSolution(value=value, weights=s, sigma=sigma, per_start=history, certificate=report)


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
    value, s, history = _solve(small, p, np.real(np.diag(small)), opts)
    m = np.zeros((d * d, d * d))
    for i, w in enumerate(s):
        m[i * d + i, i * d + i] = w
    tau = density(m, rho.partition)
    report = marginal_condition_mc(rho, tau, p)
    return SimplexSolution(value=value, weights=s, sigma=tau, per_start=history, certificate=report)


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
    value, s, history = _solve(rho.entries, p, support_b, opts, reps=d)
    return SimplexSolution(
        value=value,
        weights=s,
        sigma=density(np.diag(s), (d,)),
        per_start=history,
    )


def conditional_entropy_mc(
    rho: DensityMatrix, p: AlphaZ, opts: SolverOptions | None = None
) -> float:
    """H_up(A|B) = -min_{sigma_B} D_{alpha,z}(rho || I_A (x) sigma_B) for MC rho."""
    return -minimize_conditional_mc(rho, p, opts).value
