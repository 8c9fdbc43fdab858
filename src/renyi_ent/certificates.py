"""Optimizer certification for divergence-based resource monotones.

A candidate closest free state tau of rho is a global minimizer of
D_{alpha,z}(rho || .) over the free set iff it satisfies a support condition
and the linear condition Tr(sigma Xi(rho, tau)) <= Q(rho || tau) for every
free sigma. By linearity the maximization of Tr(sigma Xi) runs over pure
product states only; that maximum is written Lambda^2 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .divergences import (
    AlphaZ,
    _core,
    _core_spectrum,
    _d_from_log2,
    _log2_q,
    _q_from_log2,
    _require_dpi,
    d_umegaki,
    is_dominated,
)
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    _fmt,
    _ii_indices,
    _joint_spectrum,
    _power,
    _power_values,
    _support_mask,
    eig_hermitian,
    hermitian_part,
    wrap,
)

ASCENT_MAX_SWEEPS = 1000  # per Lambda^2 restart
ASCENT_TOL = 1e-12  # a restart stops once a sweep gains at most ASCENT_TOL * max(1, |value|)
DEGENERACY_RTOL = 1e-12
TOL_CERT_REL = 1e-7


def _chi_entries(rho: HermitianOperator, tau: HermitianOperator, alpha: float, z: float) -> tuple[np.ndarray, float]:
    """chi = a C^(z-1) a = (a V mu^(z-1))(a V)† from the core C = a tau^((1-alpha)/z) a, a = rho^(alpha/2z).

    Also returns log2 Tr C^z from the same ``eigh``, which is log2 Q at (alpha, z)
    when z > 0, before the support case split of :func:`divergences._log2_q`.
    """
    a = _power(rho, alpha / (2.0 * z))
    log2q, mu, v, _ = _core_spectrum(_core(a, _power(tau, (1.0 - alpha) / z)), z)
    av = a @ v
    return hermitian_part((av * _power_values(mu, z - 1.0)) @ av.conj().T), float(log2q)


def chi(rho: DensityMatrix, tau: HermitianOperator, p: AlphaZ) -> HermitianOperator:
    """The sandwich operator rho^(a/2z) (rho^(a/2z) tau^((1-a)/z) rho^(a/2z))^(z-1) rho^(a/2z).

    All powers are generalized inverses. alpha = 1 is rejected; that limit is
    handled inside :func:`xi`.
    """
    if p.on_umegaki_line:
        raise ValueError("chi is not defined at alpha = 1; xi handles that limit")
    return wrap(_chi_entries(rho, tau, p.alpha, p.z)[0], rho.dims)


def _phi_divided_difference(t: np.ndarray, p: AlphaZ) -> np.ndarray:
    """First-divided-difference kernel phi_beta on the spectrum of tau.

    phi_beta(a, b) = (a^beta - b^beta) / (beta (a - b)) with the diagonal
    limit a^(beta-1); on the Umegaki line (beta = 0) it is the log-mean kernel
    (log a - log b)/(a - b). Rows and columns belonging to the kernel of tau
    are left at zero (generalized-inverse convention).
    """
    n = t.size
    phi = np.zeros((n, n))
    pos = np.flatnonzero(t > 0)
    a = t[pos]
    col_a = a[:, None]
    col_b = a[None, :]
    near = np.abs(col_a - col_b) <= DEGENERACY_RTOL * np.maximum(col_a, col_b)
    safe_diff = np.where(near, 1.0, col_a - col_b)
    mean = 0.5 * (col_a + col_b)
    if p.on_umegaki_line:
        block = (np.log(col_a) - np.log(col_b)) / safe_diff
        block = np.where(near, 1.0 / mean, block)
    else:
        beta = p.beta
        block = (col_a**beta - col_b**beta) / (beta * safe_diff)
        block = np.where(near, mean ** (beta - 1.0), block)
    phi[np.ix_(pos, pos)] = block
    return phi


@dataclass(frozen=True)
class XiEvaluation:
    """The positive operator Xi_{alpha,z}(rho, tau) plus how it was computed."""

    xi: HermitianOperator
    route: str  # "boundary-line" | "commuting" | "divided-difference"
    # log2 Q from the core that chi decomposed, off the Umegaki line on the
    # divided-difference route; None elsewhere
    log2q: float | None = None


def xi(rho: DensityMatrix, tau: HermitianOperator, p: AlphaZ) -> XiEvaluation:
    """Evaluate Xi_{alpha,z}(rho, tau); the only place an Xi route is chosen.

    Route selection:
      * a pair built on one basis V, rho = V diag(r) V† and tau = V diag(t) V†
        (:func:`linalg._joint_spectrum`), is eigenvalue arithmetic, Xi = V diag(x) V†
        with x = (r/t)^alpha on both supports at every (alpha, z); on the boundary
        lines (route "boundary-line") this is chi_{alpha,1-alpha} = a2 (a2 t)^(-alpha),
        a2 = r^(alpha/(1-alpha)), and elsewhere (route "commuting") the commuting
        form of the kernel.
      * any other pair on the boundary lines z = 1 - alpha and z = alpha - 1
        (|beta| = 1 with beta = (1-alpha)/z): Xi = chi_{alpha,1-alpha} exactly.
      * otherwise :func:`_xi_divided_difference`.

    The powers and support cuts are the generalized ones of the general
    routes, and a power outside the float range raises ValueError naming the
    exponent. The formula is evaluated for any positive (alpha, z); membership
    of the DPI region is only enforced by the certification entry points.
    """
    if float(eig_hermitian(tau).eigenvalues[-1]) <= 0.0:
        raise ValueError("tau has empty support")
    on_line = p.on_reverse_line or p.on_lower_line
    joint = _joint_spectrum(rho, tau)
    if joint is not None:
        r, t, v = joint
        # one power of the ratio, which stays in range where r^alpha or t^(-alpha) would not
        keep = _support_mask(r) & _support_mask(t)
        x = _power_values(r / np.where(keep, t, 1.0), p.alpha, keep)
        # wrapped without its eigenpairs (x, v) on purpose: from_eigenpairs would skip the Krylov
        # top vector (a few ms at 625 dims), but Lambda^2's restart 0 would then start from one
        # column of a degenerate top eigenspace, which on AntisymPair stops below the best value
        return XiEvaluation(wrap((v * x) @ v.conj().T, rho.dims), "boundary-line" if on_line else "commuting")
    if on_line:
        m, _ = _chi_entries(rho, tau, p.alpha, 1.0 - p.alpha)
        return XiEvaluation(wrap(m, rho.dims), "boundary-line")
    return _xi_divided_difference(rho, tau, p)


def _xi_divided_difference(rho: HermitianOperator, tau: HermitianOperator, p: AlphaZ) -> XiEvaluation:
    """Xi by the closed form of the resolvent integral, valid for any pair.

    Evaluated in the eigenbasis of tau as phi_beta(t_i, t_j) * chi_ij. On the
    Umegaki line the kernel degenerates to the log-mean kernel applied to rho
    itself.
    """
    dec = eig_hermitian(tau)
    w, u = dec.eigenvalues, dec.vectors
    chi_m, log2q = (rho.entries, None) if p.on_umegaki_line else _chi_entries(rho, tau, p.alpha, p.z)
    t = np.where(_support_mask(w), w, 0.0)
    coeff = u.conj().T @ chi_m @ u
    m = u @ (_phi_divided_difference(t, p) * coeff) @ u.conj().T
    return XiEvaluation(wrap(m, rho.dims), "divided-difference", log2q)


def in_support_set(rho: DensityMatrix, tau: HermitianOperator, p: AlphaZ) -> bool:
    """Membership of tau in the support set S_{alpha,z}(rho).

    On the line (1-alpha)/z = 1 this is supp(Pi(rho) tau Pi(rho)) = supp(rho),
    checked as full rank of the compression V† tau V onto rho's support
    eigenvectors V; everywhere else it is rho << tau (:func:`is_dominated`).
    """
    if not p.on_reverse_line:
        return is_dominated(rho, tau)
    joint = _joint_spectrum(rho, tau)
    if joint is None:
        dec = eig_hermitian(rho)
        v = dec.vectors[:, _support_mask(dec.eigenvalues)]
        w = np.linalg.eigvalsh(hermitian_part(v.conj().T @ tau.entries @ v))
    else:
        w = joint[1][_support_mask(joint[0])]  # the compression is diagonal there
    return bool(np.all(_support_mask(w)))


# ---------------------------------------------------------------------------
# Lambda^2: maximum overlap with pure product states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapResult:
    value: float
    witness: tuple[np.ndarray, ...]
    restart_values: tuple[float, ...]
    restart_sweeps: tuple[int, ...]


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


def _alternating_ascent(xi: np.ndarray, dims: tuple[int, ...], vecs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Advance every restart (one row of each (R, d_k) array in ``vecs``) in lockstep.

    A sweep updates each party in turn with one batched ``eigh`` over the
    active restarts. A restart leaves the batch once its own sweep gains at
    most ``ASCENT_TOL * max(1, |value|)``. ``vecs`` is updated in place;
    returns the per-restart values and sweep counts.
    """
    values = np.full(vecs[0].shape[0], -math.inf)
    sweeps = np.zeros(values.size, dtype=int)
    active = np.arange(values.size)
    for _ in range(ASCENT_MAX_SWEEPS):
        rows = [v[active] for v in vecs]
        for k in range(len(dims)):
            w, u = np.linalg.eigh(hermitian_part(_local_matrices(xi, dims, k, rows)))
            rows[k] = u[:, :, -1]
            new = w[:, -1]
        for v, r in zip(vecs, rows):
            v[active] = r
        done = new - values[active] <= ASCENT_TOL * np.maximum(1.0, np.abs(new))
        values[active] = new
        sweeps[active] += 1
        active = active[~done]
        if active.size == 0:
            break
    return values, sweeps


def _initial_vectors(
    op: HermitianOperator, restarts: int, seed: int
) -> list[np.ndarray]:
    """Per-party (restarts, d_k) start vectors.

    Row 0 is the best rank-one alignment of the cached top eigenvector of
    ``op`` (one SVD per party); row r > 0 is a random unit vector per party
    drawn from ``default_rng([seed, r])``.
    """
    dims = op.dims
    vecs = [np.empty((restarts, d), dtype=complex) for d in dims]
    psi = op._top[1].reshape(dims)
    for k, v in enumerate(vecs):
        u, _, _ = np.linalg.svd(np.moveaxis(psi, k, 0).reshape(dims[k], -1), full_matrices=False)
        v[0] = u[:, 0]
    for r in range(1, restarts):
        rng = np.random.default_rng([seed, r])
        for v, d in zip(vecs, dims):
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v[r] = x / np.linalg.norm(x)
    return vecs


def max_product_overlap(op: HermitianOperator, restarts: int = 64, seed: int = 0) -> OverlapResult:
    """Maximize <v1...vN| Xi |v1...vN> over product unit vectors.

    Alternating maximization: with all local vectors but one fixed, the
    contraction of Xi is a local Hermitian matrix whose top eigenvector is the
    exact update, so the overlap is nondecreasing. Restart 0 is seeded from
    the rank-one alignment of the top eigenvector of Xi (cached on the
    operator, found without a full decomposition); the remaining
    restarts use seeded random product vectors. All restarts run in lockstep
    as one batched ascent. The returned value is a certified lower bound on
    Lambda^2; the multi-start is a heuristic for global optimality.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if len(op.dims) < 2:
        raise ValueError("need at least two parties; a single-party maximum is just the top eigenvalue")
    vecs = _initial_vectors(op, restarts, seed)
    values, sweeps = _alternating_ascent(op.entries, op.dims, vecs)
    best = int(np.argmax(values))  # ties resolve to the lowest restart index
    return OverlapResult(
        value=float(values[best]),
        witness=tuple(v[best].copy() for v in vecs),
        restart_values=tuple(float(x) for x in values),
        restart_sweeps=tuple(int(n) for n in sweeps),
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
    ``restart_hits`` counts the Lambda^2 restarts that ended within
    ``TOL_CERT_REL * max(1, |lambda_sq|)`` of lambda_sq (0 without a search),
    and ``restart_sweeps`` holds each restart's ascent sweeps.
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
    restart_hits: int = 0
    restart_sweeps: tuple[int, ...] = field(default_factory=tuple)


def _require_same_partition(rho: DensityMatrix, tau: HermitianOperator) -> None:
    if rho.dims != tau.dims:
        raise ValueError(f"rho has partition {rho.dims} but tau has partition {tau.dims}")


def _certify(
    rho: DensityMatrix, tau: HermitianOperator, p: AlphaZ, free_set: str,
    indices: np.ndarray | None = None, restarts: int = 64, seed: int = 0,
) -> CertificateReport:
    """The one certification body: support, Xi, Q and Lambda^2, then the verdict and report.

    Lambda^2 is the product-state search, or for a finite free set of basis states, given by
    their ``indices``, the largest diagonal entry <b|Xi|b> of Xi at those indices, witnessed
    by the real (e_j,), or by (e_l, e_l) for b = |ll> on the MC set. margin = q - Lambda^2 is
    judged against tol_cert = 1e-7 * q. Both q and, for a certified tau, ``value`` =
    D_{alpha,z}(rho || tau) derive from one log2 Q (0 on the Umegaki line, where Q = 1).
    """
    _require_dpi(p)  # the certification conditions need joint concavity/convexity
    _require_same_partition(rho, tau)
    support_ok = in_support_set(rho, tau, p)
    ev = xi(rho, tau, p)
    log2q = 0.0 if p.on_umegaki_line else _log2_q(rho, tau, p, ev.log2q)

    if indices is None:
        res = max_product_overlap(ev.xi, restarts=restarts, seed=seed)
    else:
        scores = ev.xi.entries.diagonal()[indices].real
        best = int(np.argmax(scores))
        if free_set == "mc-diagonal":
            e = np.eye(rho.dims[0], dtype=complex)[best]
            witness = (e, e.copy())
        else:
            witness = ((np.arange(rho.dim) == indices[best]).astype(float),)
        res = OverlapResult(float(scores[best]), witness, (), ())
    lam = res.value

    q = _q_from_log2(log2q)
    margin = q - lam
    band = TOL_CERT_REL * max(1.0, abs(lam))
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
        free_set=free_set,
        support_ok=support_ok,
        lambda_sq=lam,
        q_value=q,
        margin=margin,
        verdict=verdict,
        witness=res.witness,
        tol_cert=tol_cert,
        route=ev.route,
        beta=p.beta,
        value=value,
        restart_values=res.restart_values,
        restart_hits=sum(1 for v in res.restart_values if v >= lam - band),
        restart_sweeps=res.restart_sweeps,
    )


def certify_optimizer(
    rho: DensityMatrix,
    tau: HermitianOperator,
    p: AlphaZ,
    free_set: str = "sep",
    restarts: int = 64,
    seed: int = 0,
) -> CertificateReport:
    """Certify tau as a minimizer of D_{alpha,z}(rho || .) over a free set.

    For ``free_set="sep"`` Lambda^2 is found by multi-start alternating
    maximization over pure product states; for ``free_set="incoherent"`` the
    extreme points are computational basis states, so Lambda^2 is the largest
    diagonal entry of Xi (for another basis, rotate rho and tau into it first).
    """
    if free_set == "sep":
        return _certify(rho, tau, p, free_set, restarts=restarts, seed=seed)
    if free_set == "incoherent":
        return _certify(rho, tau, p, free_set, np.arange(rho.dim))
    raise ValueError(f"unknown free set {free_set!r}")


def is_maximally_correlated(rho: DensityMatrix) -> bool:
    """Whether rho is supported on span{|ii><jj|} for its (d, d) partition, within 1e-10 * max|entry|."""
    dims = rho.dims
    if len(dims) != 2 or dims[0] != dims[1]:
        return False
    idx = np.ix_(_ii_indices(dims[0]), _ii_indices(dims[0]))
    proj = np.zeros_like(rho.entries)
    proj[idx] = rho.entries[idx]
    return float(np.max(np.abs(rho.entries - proj))) <= 1e-10 * rho.max_abs()


def _require_mc(rho: DensityMatrix) -> None:
    if not is_maximally_correlated(rho):
        raise ValueError("rho is not maximally correlated in the |ii> basis within 1e-10 * max|entry|")


def marginal_condition_mc(rho: DensityMatrix, tau: HermitianOperator, p: AlphaZ) -> CertificateReport:
    """Certification of tau in T_rho for a maximally correlated rho.

    For tau = sum_i t_i |ii><ii| the trace condition over all separable states
    collapses to the scalar inequality max_l <ll| Xi(rho, tau) |ll> <= Q(rho || tau),
    so no Lambda^2 search is needed: this is the incoherent check, Xi's
    diagonal, read at the indices of the states |ll>. ``route`` names the Xi route.
    """
    _require_mc(rho)
    _require_same_partition(rho, tau)
    idx = _ii_indices(rho.dims[0])
    off = tau.entries.copy()
    off[idx, idx] -= off[idx, idx].real
    if float(np.max(np.abs(off))) > 1e-10 * tau.max_abs():
        raise ValueError("tau is not diagonal in the |ii> basis within 1e-10 * max|entry|")
    return _certify(rho, tau, p, "mc-diagonal", idx)


# ---------------------------------------------------------------------------
# JSON serialization of reports
# ---------------------------------------------------------------------------


def _encode_float(x):
    """A value in JSON form: dicts and lists (tuples as lists) entry by entry, a finite float as
    x + 0.0 (x itself, except 0.0 for -0.0), a non-finite float as its text ("inf", "nan")."""
    if isinstance(x, dict):
        return {k: _encode_float(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_encode_float(v) for v in x]
    if isinstance(x, float):
        return float(x) + 0.0 if math.isfinite(x) else _fmt(x)
    return x


def report_to_dict(report: CertificateReport) -> dict:
    """Every report field under its own name; each witness vector as {"re": [...], "im": [...]}."""
    out = {f.name: _encode_float(getattr(report, f.name)) for f in fields(report)}
    out["witness"] = [{"re": v.real.tolist(), "im": v.imag.tolist()} for v in report.witness]
    return out
