"""Optimizer certification for divergence-based resource monotones.

A candidate closest free state tau of rho is a global minimizer of
D_{alpha,z}(rho || .) over the free set iff it satisfies a support condition
and the linear condition Tr(sigma Xi(rho, tau)) <= Q(rho || tau) for every
free sigma. By linearity the maximization of Tr(sigma Xi) runs over pure
product states only; that maximum is written Lambda^2 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergences import (
    LINE_ATOL,
    AlphaZ,
    _d_from_log2,
    _log2_q,
    _q_from_log2,
    _require_dpi,
    d_umegaki,
    is_dominated,
)
from .linalg import (
    SUPPORT_CUT,
    DensityMatrix,
    HermitianOperator,
    _power,
    _support_mask,
    _support_split,
    as_operator,
    eig_hermitian,
    hermitian_part,
    wrap,
)

COMMUTING_TOL = 1e-10
DEGENERACY_RTOL = 1e-12
TOL_CERT_REL = 1e-7

Operator = HermitianOperator | DensityMatrix


def commutator_maxnorm(a: Operator, b: Operator) -> float:
    am, bm = as_operator(a).entries, as_operator(b).entries
    return float(np.max(np.abs(am @ bm - bm @ am)))


def _chi_entries(rho: Operator, tau: Operator, alpha: float, z: float) -> np.ndarray:
    a = _power(rho, alpha / (2.0 * z))
    t = _power(tau, (1.0 - alpha) / z)
    inner = hermitian_part(a @ t @ a)
    mid = _power(inner, z - 1.0)
    return hermitian_part(a @ mid @ a)


def chi(rho: DensityMatrix, tau: Operator, p: AlphaZ) -> HermitianOperator:
    """The sandwich operator rho^(a/2z) (rho^(a/2z) tau^((1-a)/z) rho^(a/2z))^(z-1) rho^(a/2z).

    All powers are generalized inverses. alpha = 1 is rejected; that limit is
    handled inside :func:`xi`.
    """
    if p.on_umegaki_line:
        raise ValueError("chi is not defined at alpha = 1; xi handles that limit")
    return wrap(_chi_entries(rho, tau, p.alpha, p.z), rho.partition)


def _phi_divided_difference(t: np.ndarray, beta: float) -> np.ndarray:
    """First-divided-difference kernel phi_beta on the spectrum of tau.

    phi_beta(a, b) = (a^beta - b^beta) / (beta (a - b)) with the diagonal
    limit a^(beta-1); beta -> 0 gives the log-mean kernel (log a - log b)/(a - b).
    Rows and columns belonging to the kernel of tau are left at zero
    (generalized-inverse convention).
    """
    n = t.size
    phi = np.zeros((n, n))
    pos = np.flatnonzero(t > 0)
    if pos.size == 0:
        return phi
    a = t[pos]
    col_a = a[:, None]
    col_b = a[None, :]
    near = np.abs(col_a - col_b) <= DEGENERACY_RTOL * np.maximum(col_a, col_b)
    safe_diff = np.where(near, 1.0, col_a - col_b)
    mean = 0.5 * (col_a + col_b)
    if abs(beta) < 1e-14:
        block = (np.log(col_a) - np.log(col_b)) / safe_diff
        block = np.where(near, 1.0 / mean, block)
    else:
        block = (col_a**beta - col_b**beta) / (beta * safe_diff)
        block = np.where(near, mean ** (beta - 1.0), block)
    phi[np.ix_(pos, pos)] = block
    return phi


@dataclass(frozen=True)
class XiEvaluation:
    """The positive operator Xi_{alpha,z}(rho, tau) plus how it was computed."""

    xi: HermitianOperator
    route: str  # "boundary-line" | "commuting" | "divided-difference"
    beta: float


def xi(rho: DensityMatrix, tau: Operator, p: AlphaZ, force_general: bool = False) -> XiEvaluation:
    """Evaluate Xi_{alpha,z}(rho, tau).

    Route selection:
      * |beta| = 1 with beta = (1-alpha)/z: the boundary lines z = 1 - alpha
        and z = alpha - 1, where Xi = chi_{alpha,1-alpha} exactly.
      * commuting pair (max-norm of [rho, tau] <= 1e-10, unless
        ``force_general``): Xi = rho^alpha tau^(-alpha).
      * otherwise: the closed form of the resolvent integral, evaluated in the
        eigenbasis of tau as phi_beta(t_i, t_j) * chi_ij. At alpha = 1 the
        kernel degenerates to the log-mean kernel applied to rho itself.

    The formula is evaluated for any positive (alpha, z); membership of the
    DPI region is only enforced by the certification entry points.
    """
    rho_op, tau_op = as_operator(rho), as_operator(tau)
    dec = eig_hermitian(tau_op)
    w, u = dec.eigenvalues, dec.vectors
    if float(w[-1]) <= 0.0:
        raise ValueError("tau has empty support")
    beta = p.beta

    if abs(abs(beta) - 1.0) <= LINE_ATOL:
        m = _chi_entries(rho_op, tau_op, p.alpha, 1.0 - p.alpha)
        return XiEvaluation(wrap(m, rho_op.partition), "boundary-line", beta)

    if not force_general and commutator_maxnorm(rho_op, tau_op) <= COMMUTING_TOL:
        m = _power(rho_op, p.alpha) @ _power(tau_op, -p.alpha)
        return XiEvaluation(wrap(m, rho_op.partition), "commuting", beta)

    if p.on_umegaki_line:
        chi_m = rho_op.entries
    else:
        chi_m = _chi_entries(rho_op, tau_op, p.alpha, p.z)
    t = np.where(_support_mask(w), w, 0.0)
    phi = _phi_divided_difference(t, beta)
    coeff = u.conj().T @ chi_m @ u
    m = u @ (phi * coeff) @ u.conj().T
    return XiEvaluation(wrap(m, rho_op.partition), "divided-difference", beta)


def in_support_set(rho: DensityMatrix, tau: Operator, p: AlphaZ) -> bool:
    """Membership of tau in the support set S_{alpha,z}(rho).

    On the line (1-alpha)/z = 1 this is supp(Pi(rho) tau Pi(rho)) = supp(rho),
    checked as full rank of the compression V† tau V onto rho's support
    eigenvectors V; everywhere else it is rho << tau (:func:`is_dominated`).
    """
    if abs(p.beta - 1.0) <= LINE_ATOL:
        v = _support_split(rho)[0]
        w = np.linalg.eigvalsh(hermitian_part(v.conj().T @ as_operator(tau).entries @ v))
        return bool(np.all(_support_mask(w)))
    return is_dominated(rho, tau)


# ---------------------------------------------------------------------------
# Lambda^2: maximum overlap with pure product states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapResult:
    value: float
    witness: tuple[np.ndarray, ...]
    restart_values: tuple[float, ...]


# Bound on the output of the first contraction of Xi per chunk of restarts:
# 8 MB holds 33 restarts at 625 dims and 11 at 1296, wide enough for an
# efficient matrix product; smaller operators run all restarts in one chunk.
_CHUNK_BYTES = 1 << 23


def _kron_rows(factors: list[np.ndarray], rows: int) -> np.ndarray:
    """Row-wise Kronecker product of (rows, d_j) arrays; a column of ones for none."""
    out = np.ones((rows, 1), dtype=complex)
    for f in factors:
        out = (out[:, :, None] * f[:, None, :]).reshape(rows, -1)
    return out


def _local_matrices(
    xi: np.ndarray, dims: tuple[int, ...], k: int, vecs: list[np.ndarray]
) -> np.ndarray:
    """Party k's local matrices <others| Xi |others>, one (d_k, d_k) block per row of ``vecs``.

    The first contraction reads Xi's own buffer through a reshape view, as one
    matrix product against a chunk of restarts: the kets of all later parties
    for k = 0, the bras of all earlier parties otherwise. Chunks keep its
    output within _CHUNK_BYTES; the rest of the contraction runs on that output.
    """
    rows, d, dim = vecs[0].shape[0], dims[k], xi.shape[0]
    pre = _kron_rows(vecs[:k], rows)
    post = _kron_rows(vecs[k + 1 :], rows)
    # the axes left between party k's bra and ket: later bras, then earlier kets
    mid = _kron_rows([post.conj(), pre], rows)
    first = post.shape[1] if k == 0 else pre.shape[1]
    step = max(1, _CHUNK_BYTES // (16 * dim * dim // first))
    out = np.empty((rows, d, d), dtype=complex)
    for lo in range(0, rows, step):
        c = slice(lo, lo + step)
        if k == 0:
            t = post[c] @ xi.reshape(-1, first).T
        else:
            t = pre[c].conj() @ xi.reshape(first, -1)
            if post.shape[1] > 1:
                t = t.reshape(t.shape[0], -1, post.shape[1]) @ post[c, :, None]
        t = t.reshape(t.shape[0], d, -1, d)
        out[c] = (mid[c, None, None, :] @ t)[:, :, 0, :]
    return out


def _alternating_ascent(
    xi: np.ndarray,
    dims: tuple[int, ...],
    vecs: list[np.ndarray],
    max_iters: int,
    tol: float,
) -> np.ndarray:
    """Advance every restart (one row of each (R, d_k) array in ``vecs``) in lockstep.

    A sweep updates each party in turn with one batched ``eigh`` over the
    active restarts. A restart leaves the batch once its own sweep gains at
    most ``tol * max(1, |value|)``. ``vecs`` is updated in place; returns the
    per-restart values.
    """
    values = np.full(vecs[0].shape[0], -math.inf)
    active = np.arange(values.size)
    for _ in range(max_iters):
        rows = [v[active] for v in vecs]
        for k in range(len(dims)):
            w, u = np.linalg.eigh(hermitian_part(_local_matrices(xi, dims, k, rows)))
            rows[k] = u[:, :, -1]
            new = w[:, -1]
        for v, r in zip(vecs, rows):
            v[active] = r
        done = new - values[active] <= tol * np.maximum(1.0, np.abs(new))
        values[active] = new
        active = active[~done]
        if active.size == 0:
            break
    return values


def _initial_vectors(
    op: HermitianOperator, restarts: int, seed: int
) -> list[np.ndarray]:
    """Per-party (restarts, d_k) start vectors.

    Row 0 is the best rank-one alignment of the top eigenvector of ``op``
    (one SVD per party); row r > 0 is a random unit vector per party drawn
    from ``default_rng([seed, r])``.
    """
    dims = op.dims
    vecs = [np.empty((restarts, d), dtype=complex) for d in dims]
    psi = eig_hermitian(op).vectors[:, -1].reshape(dims)
    for k, v in enumerate(vecs):
        u, _, _ = np.linalg.svd(np.moveaxis(psi, k, 0).reshape(dims[k], -1), full_matrices=False)
        v[0] = u[:, 0]
    for r in range(1, restarts):
        rng = np.random.default_rng([seed, r])
        for v, d in zip(vecs, dims):
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v[r] = x / np.linalg.norm(x)
    return vecs


def max_product_overlap(
    op: Operator,
    restarts: int = 64,
    max_iters: int = 1000,
    tol: float = 1e-12,
    seed: int = 0,
) -> OverlapResult:
    """Maximize <v1...vN| Xi |v1...vN> over product unit vectors.

    Alternating maximization: with all local vectors but one fixed, the
    contraction of Xi is a local Hermitian matrix whose top eigenvector is the
    exact update, so the overlap is nondecreasing. Restart 0 is seeded from
    the rank-one alignment of the top eigenvector of Xi; the remaining
    restarts use seeded random product vectors. All restarts run in lockstep
    as one batched ascent. The returned value is a certified lower bound on
    Lambda^2; the multi-start is a heuristic for global optimality.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    h = as_operator(op)
    if len(h.dims) < 2:
        raise ValueError("need at least two parties; a single-party maximum is just the top eigenvalue")
    vecs = _initial_vectors(h, restarts, seed)
    values = _alternating_ascent(h.entries, h.dims, vecs, max_iters, tol)
    best = int(np.argmax(values))  # ties resolve to the lowest restart index
    return OverlapResult(
        value=float(values[best]),
        witness=tuple(v[best].copy() for v in vecs),
        restart_values=tuple(float(x) for x in values),
    )


# ---------------------------------------------------------------------------
# Optimizer certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of a necessary-and-sufficient optimizer check.

    ``margin = q_value - lambda_sq``; a nonnegative margin together with the
    support condition certifies tau as a global minimizer over the declared
    free set. The witness is the product (or basis) state attaining
    lambda_sq. ``value`` carries D_{alpha,z}(rho || tau) when certified.
    """

    alpha: float
    z: float
    free_set: str
    support_ok: bool
    lambda_sq: float
    q_value: float
    margin: float
    verdict: str  # "certified-optimal" | "refuted" | "inconclusive"
    witness: tuple[np.ndarray, ...]
    tol_cert: float
    route: str
    beta: float
    value: float | None = None
    restart_values: tuple[float, ...] = field(default_factory=tuple)


def _report(
    rho: DensityMatrix,
    tau: Operator,
    p: AlphaZ,
    support_ok: bool,
    lam: float,
    log2q: float,
    **fields,
) -> CertificateReport:
    """Judge margin = q - lam against tol_cert = 1e-7 * q and assemble the report.

    ``log2q`` is log2 Q(rho || tau) (0 on the Umegaki line, where Q = 1); both
    q and, for a certified tau, ``value`` = D_{alpha,z}(rho || tau) derive from
    it. ``fields`` are the remaining report fields (free set, witness, route, ...).
    """
    q = _q_from_log2(log2q)
    margin = q - lam
    tol_cert = TOL_CERT_REL * q if math.isfinite(q) else TOL_CERT_REL
    if not support_ok or margin < -10.0 * tol_cert:
        verdict = "refuted"
    elif margin >= -tol_cert:
        verdict = "certified-optimal"
    else:
        verdict = "inconclusive"
    value = None
    if verdict == "certified-optimal":
        value = d_umegaki(rho, tau) if p.on_umegaki_line else _d_from_log2(log2q, p)
    return CertificateReport(
        alpha=p.alpha,
        z=p.z,
        support_ok=support_ok,
        lambda_sq=lam,
        q_value=q,
        margin=margin,
        verdict=verdict,
        tol_cert=tol_cert,
        value=value,
        **fields,
    )


def certify_optimizer(
    rho: DensityMatrix,
    tau: Operator,
    p: AlphaZ,
    free_set: str = "sep",
    coherence_basis: np.ndarray | None = None,
    restarts: int = 64,
    seed: int = 0,
) -> CertificateReport:
    """Certify tau as a minimizer of D_{alpha,z}(rho || .) over a free set.

    For ``free_set="sep"`` Lambda^2 is found by multi-start alternating
    maximization over pure product states; for ``free_set="incoherent"`` the
    extreme points are basis states, so Lambda^2 is the largest diagonal entry
    of Xi in the coherence basis (identity by default).
    """
    _require_dpi(p)  # the certification conditions need joint concavity/convexity
    if free_set not in ("sep", "incoherent"):
        raise ValueError(f"unknown free set {free_set!r}")

    support_ok = in_support_set(rho, tau, p)
    ev = xi(rho, tau, p)
    log2q = 0.0 if p.on_umegaki_line else _log2_q(rho, tau, p)

    restart_values: tuple[float, ...] = ()
    if free_set == "sep":
        res = max_product_overlap(ev.xi, restarts=restarts, seed=seed)
        lam, witness, restart_values = res.value, res.witness, res.restart_values
    else:
        basis = np.eye(rho.dim) if coherence_basis is None else np.asarray(coherence_basis, dtype=complex)
        diag = np.real(np.einsum("ij,jk,ki->i", basis.conj().T, ev.xi.entries, basis))
        best = int(np.argmax(diag))
        lam, witness = float(diag[best]), (basis[:, best].copy(),)

    return _report(
        rho, tau, p, support_ok, lam, log2q,
        free_set=free_set, witness=witness, route=ev.route, beta=ev.beta,
        restart_values=restart_values,
    )


def _mc_diagonal_weights(tau: Operator, d: int, atol: float = 1e-10) -> np.ndarray:
    """Weights t_i of tau = sum_i t_i |ii><ii|; raises if tau is not of that form."""
    m = as_operator(tau).entries
    idx = [i * d + i for i in range(d)]
    t = np.real(m[idx, idx]).copy()
    check = m.copy()
    check[idx, idx] -= t
    if float(np.max(np.abs(check))) > atol:
        raise ValueError("tau is not diagonal in the |ii> basis within 1e-10")
    return t


def is_maximally_correlated(rho: DensityMatrix, atol: float = 1e-10) -> bool:
    """Whether rho is supported on span{|ii><jj|} for its (d, d) partition."""
    dims = rho.dims
    if len(dims) != 2 or dims[0] != dims[1]:
        return False
    d = dims[0]
    idx = [i * d + i for i in range(d)]
    proj = np.zeros_like(rho.entries)
    proj[np.ix_(idx, idx)] = rho.entries[np.ix_(idx, idx)]
    return float(np.max(np.abs(rho.entries - proj))) <= atol


def marginal_condition_mc(rho: DensityMatrix, tau: Operator, p: AlphaZ) -> CertificateReport:
    """Certification of tau in T_rho for a maximally correlated rho.

    For tau = sum_i t_i |ii><ii| the trace condition over all separable states
    collapses to the scalar inequality
    max_l t_l^((1-alpha)/z - 1) <ll| chi(rho, tau) |ll> <= Q(rho || tau),
    so no Lambda^2 search is needed. lambda_sq reports the left-hand maximum.
    """
    _require_dpi(p)
    if not is_maximally_correlated(rho):
        raise ValueError("rho is not maximally correlated in the declared basis")
    d = rho.dims[0]
    t = _mc_diagonal_weights(tau, d)
    idx = np.array([i * d + i for i in range(d)])
    top = float(np.max(t))
    if top <= 0.0:
        raise ValueError("tau has empty support")
    live = t > SUPPORT_CUT * top

    beta = p.beta
    if p.on_umegaki_line:
        diag_rho = np.real(rho.entries[idx, idx])
        scores = np.full(d, -math.inf)
        scores[live] = diag_rho[live] / t[live]
    elif abs(abs(beta) - 1.0) <= LINE_ATOL:
        chi_b = _chi_entries(rho, tau, p.alpha, 1.0 - p.alpha)
        scores = np.real(chi_b[idx, idx])
    else:
        chi_m = _chi_entries(rho, tau, p.alpha, p.z)
        diag_chi = np.real(chi_m[idx, idx])
        scores = np.full(d, -math.inf)
        scores[live] = t[live] ** (beta - 1.0) * diag_chi[live]
    log2q = 0.0 if p.on_umegaki_line else _log2_q(rho, tau, p)

    best = int(np.argmax(scores))
    lam = float(scores[best])
    basis_vec = np.zeros(d, dtype=complex)
    basis_vec[best] = 1.0
    return _report(
        rho, tau, p, in_support_set(rho, tau, p), lam, log2q,
        free_set="mc-diagonal", witness=(basis_vec, basis_vec.copy()), route="mc-marginal", beta=beta,
    )


# ---------------------------------------------------------------------------
# JSON serialization of reports
# ---------------------------------------------------------------------------


def _encode_float(x: float | None):
    if x is None:
        return None
    if not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return float(x)


def report_to_dict(report: CertificateReport) -> dict:
    return {
        "alpha": report.alpha,
        "z": report.z,
        "free_set": report.free_set,
        "support_ok": report.support_ok,
        "lambda_sq": _encode_float(report.lambda_sq),
        "q_value": _encode_float(report.q_value),
        "margin": _encode_float(report.margin),
        "verdict": report.verdict,
        "witness": [
            {"re": v.real.tolist(), "im": v.imag.tolist()} for v in report.witness
        ],
        "tol_cert": report.tol_cert,
        "route": report.route,
        "beta": report.beta,
        "value": _encode_float(report.value),
        "restart_values": list(report.restart_values),
    }
