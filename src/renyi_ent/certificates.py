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
from functools import cached_property

import numpy as np

from .divergences import AlphaZ, _core, _core_spectrum, _d_and_q, _require_dpi, is_dominated
from .linalg import (
    ASCENT_TOL, DEGENERACY_RTOL, RAYLEIGH_RTOL, SUPPORT_CUT, TOL_CERT_REL,
    DensityMatrix,
    HermitianOperator,
    _fmt,
    _ii_indices,
    _joint_spectrum,
    _krylov_top,
    _power,
    _power_values,
    _support_mask,
    eig_hermitian,
    wrap,
)

ASCENT_MAX_SWEEPS = 1000  # per Lambda^2 restart
SHIFT_ULPS = 4  # lambda' - lambda in ulps of the spectral radius: off exact singularity, yet the top grows ~1/ulps


def _chi_factor(rho: HermitianOperator, tau: HermitianOperator, alpha: float, z: float) -> tuple[np.ndarray, float]:
    """The factor F = a V mu^((z-1)/2) of chi = a C^(z-1) a = F F†, on the support of C = V diag(mu) V†.

    C = a tau^((1-alpha)/z) a, a = rho^(alpha/2z). Also returns log2 Tr C^z from the same ``eigh``, which
    is log2 Q at (alpha, z) when z > 0, before the support case split of :func:`divergences._log2_q`.
    """
    a = _power(rho, alpha / (2.0 * z))
    log2q, mu, v, _ = _core_spectrum(_core(a, _power(tau, (1.0 - alpha) / z)), z)
    pw = _power_values(mu, z - 1.0)
    return (a @ v[:, pw > 0]) * np.sqrt(pw[pw > 0]), float(log2q)


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


@dataclass(frozen=True, eq=False)
class XiEvaluation:
    """The positive operator Xi_{alpha,z}(rho, tau) plus how it was computed.

    A product route gives an n x r ``factor`` F (Xi = F F†, never formed), else ``dense`` is Xi.
    """

    route: str  # "boundary-line" | "commuting" | "divided-difference"
    dims: tuple[int, ...]
    factor: np.ndarray | None = None
    log2q: float | None = None  # log2 Q from chi's core: divided-difference route off the Umegaki line
    dense: HermitianOperator | None = None

    @cached_property
    def _top(self) -> tuple[float, np.ndarray]:
        """Xi's top eigenpair; for a factor, by :func:`linalg._krylov_top` on v -> F (F† v)."""
        f = self.factor
        return self.dense._top if f is None else _krylov_top(lambda b: f @ (f.conj().T @ b), f.shape[0])

    def diagonal(self, indices: np.ndarray) -> np.ndarray:
        """<i| Xi |i> at the basis ``indices``: for a factor, the squared norms of its rows."""
        f = self.factor
        return self.dense.entries[indices, indices].real if f is None else (f[indices] * f[indices].conj()).real.sum(1)

    @cached_property
    def _layouts(self) -> list[np.ndarray]:
        """Per party k, F's rows as (others, d_k) by its r columns, reshaped to (others, d_k * r)."""
        (n, r), dims = self.factor.shape, self.dims
        return [np.moveaxis(self.factor.reshape(dims + (r,)), k, -2).reshape(n // d, d * r) for k, d in enumerate(dims)]

    def local_matrices(self, k: int, vecs: list[np.ndarray]) -> np.ndarray:
        """Party k's local matrices <others| Xi |others>, one (d_k, d_k) block per row of ``vecs``.

        For a factor, G G† with G = <others| F: one matrix product of each chunk of restarts' bras
        (G within _CHUNK_BYTES) against party k's layout of F.
        """
        if self.factor is None:
            return _local_matrices(self.dense.entries, self.dims, k, vecs)
        rows, d, r = vecs[0].shape[0], self.dims[k], self.factor.shape[1]
        bras = _kron_rows([v.conj() for j, v in enumerate(vecs) if j != k], rows)
        step = max(1, _CHUNK_BYTES // (16 * d * max(r, 1)))  # r = 0 when the supports are disjoint
        gs = ((b @ self._layouts[k]).reshape(len(b), d, r) for b in np.split(bras, range(step, rows, step)))
        return np.concatenate([g @ g.conj().swapaxes(1, 2) for g in gs])


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
    if float(np.max(eig_hermitian(tau).eigenvalues)) <= 0.0:
        raise ValueError("tau has empty support")
    on_line = p.on_reverse_line or p.on_lower_line
    joint = _joint_spectrum(rho, tau)
    if joint is not None:
        r, t, v = joint
        # one power of the ratio, which stays in range where r^alpha or t^(-alpha) would not
        keep = _support_mask(r) & _support_mask(t)
        x = _power_values(r / np.where(keep, t, 1.0), p.alpha, keep)
        # a factor, not eigenpairs (x, v): the ascent contracts F, and restart 0 reads a Krylov top vector
        return XiEvaluation("boundary-line" if on_line else "commuting", rho.dims, v[:, keep] * np.sqrt(x[keep]))
    if on_line:
        return XiEvaluation("boundary-line", rho.dims, _chi_factor(rho, tau, p.alpha, 1.0 - p.alpha)[0])
    return _xi_divided_difference(rho, tau, p)


def _xi_divided_difference(rho: HermitianOperator, tau: HermitianOperator, p: AlphaZ) -> XiEvaluation:
    """Xi by the closed form of the resolvent integral, valid for any pair.

    Evaluated in the eigenbasis of tau as phi_beta(t_i, t_j) * chi_ij. On the
    Umegaki line the kernel degenerates to the log-mean kernel applied to rho
    itself.
    """
    dec = eig_hermitian(tau)
    w, u = dec.eigenvalues, dec.vectors
    f, log2q = (None, None) if p.on_umegaki_line else _chi_factor(rho, tau, p.alpha, p.z)
    t = np.where(_support_mask(w), w, 0.0)
    coeff = u.conj().T @ (rho.entries if f is None else f @ f.conj().T) @ u
    m = u @ (_phi_divided_difference(t, p) * coeff) @ u.conj().T
    return XiEvaluation("divided-difference", rho.dims, log2q=log2q, dense=wrap(m, rho.dims))


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
        w = np.linalg.eigvalsh(v.conj().T @ tau.entries @ v)  # reads one triangle
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


# Bound on the first contraction's output (G for a factored Xi) per chunk of restarts:
# 8 MB holds 33 restarts of a dense Xi at 625 dims and 11 at 1296, wide enough for an
# efficient matrix product; smaller operators run all restarts in one chunk.
_CHUNK_BYTES = 1 << 23


def _kron_rows(factors: list[np.ndarray], rows: int) -> np.ndarray:
    """Row-wise Kronecker product of (rows, d_j) arrays; a column of ones for none."""
    out = np.ones((rows, 1), dtype=complex)
    for f in factors:
        out = (out[:, :, None] * f[:, None, :]).reshape(rows, -1)
    return out


def _local_matrices(xi: np.ndarray, dims: tuple[int, ...], k: int, vecs: list[np.ndarray]) -> np.ndarray:
    """Party k's local matrices <others| Xi |others> of a dense Xi, one (d_k, d_k) block per row of ``vecs``.

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


def _top_eigenpairs(m: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvalue and unit top eigenvector of each Hermitian (d, d) matrix in ``m``, shifted in place.

    d = 2: the closed form of [[a, b], [b*, c]]; a multiple of the identity keeps its row of ``v``. Else lambda is
    the top of one ``eigvalsh`` and x solves (M - lambda' I) x = v, lambda' SHIFT_ULPS ulps of M's spectral radius
    above lambda. Rows where x is not finite or its Rayleigh quotient misses lambda by RAYLEIGH_RTOL of that
    radius, or all rows if a singular row fails the solve, take ``eigh``'s column.
    """
    if m.shape[-1] == 2:  # reads the lower triangle b*, as LAPACK would
        a, c, low = m[:, 0, 0].real, m[:, 1, 1].real, m[:, 1, 0]
        h = (a - c) / 2
        root, up = np.hypot(h, np.abs(low)), (h >= 0)[:, None]
        x = np.where(up, np.stack([root + h, low], 1), np.stack([low.conj(), root - h], 1))  # neither cancels
        norm = np.hypot(np.abs(x[:, :1]), np.abs(x[:, 1:]))
        return (a + c) / 2 + root, np.where(norm > 0, x / np.where(norm > 0, norm, 1.0), v)
    w = np.linalg.eigvalsh(m)
    lam, radius = w[:, -1], np.maximum(w[:, -1], -w[:, 0])
    shift = lam + SHIFT_ULPS * np.finfo(float).eps * radius
    np.einsum("kii->ki", m)[:] -= shift[:, None]  # a view: no second batch
    try:
        x = np.linalg.solve(m, v[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        x = np.full_like(v, np.nan)
    with np.errstate(all="ignore"):  # rows left 0, inf or nan here fall back below
        n2 = np.einsum("ij,ij->i", x.conj(), x).real
        rq = shift + np.einsum("ij,ij->i", x.conj(), v).real / n2  # as (M - lambda' I) x = v
        bad = ~(np.isfinite(n2) & (np.abs(rq - lam) <= RAYLEIGH_RTOL * radius))
        x /= np.sqrt(n2)[:, None]
    if bad.any():
        x[bad] = np.linalg.eigh(m[bad])[1][:, :, -1]  # the shift keeps the eigenvectors
    return lam, x


def _alternating_ascent(local, vecs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Advance every restart (one row of each (R, d_k) array in ``vecs``) in lockstep.

    A sweep moves each party k in turn to the top eigenvector of its local matrices ``local(k, rows)`` over
    the active restarts: a qubit's closed form, else ``eigvalsh`` and one shifted solve, or ``eigh`` where
    that misses (:func:`_top_eigenpairs`). A restart leaves the batch once its own sweep gains at most
    ``ASCENT_TOL * max(1, |value|)``. ``vecs`` is updated in place; returns the per-restart values and sweeps.
    """
    values = np.full(vecs[0].shape[0], -math.inf)
    sweeps = np.zeros(values.size, dtype=int)
    active = np.arange(values.size)
    for _ in range(ASCENT_MAX_SWEEPS):
        rows = [v[active] for v in vecs]
        for k in range(len(rows)):
            new, rows[k] = _top_eigenpairs(local(k, rows), rows[k])
        for v, r in zip(vecs, rows):
            v[active] = r
        done = new - values[active] <= ASCENT_TOL * np.maximum(1.0, np.abs(new))
        values[active] = new
        sweeps[active] += 1
        active = active[~done]
        if active.size == 0:
            break
    return values, sweeps


def _initial_vectors(op: XiEvaluation, restarts: int, seed: int) -> list[np.ndarray]:
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


def max_product_overlap(op: XiEvaluation, restarts: int = 64, seed: int = 0) -> OverlapResult:
    """Maximize <v1...vN| Xi |v1...vN> over product unit vectors, Xi given as an XiEvaluation.

    Alternating maximization: with all local vectors but one fixed, the contraction of Xi (of a factor F
    as F, never as F F†) is a local Hermitian matrix whose top eigenvector is the exact update, so the
    overlap is nondecreasing. That vector is a qubit's closed form, else one solve shifted to the top of one
    ``eigvalsh``, or ``eigh`` where the solve misses it. Restart 0 starts from the rank-one alignment of Xi's
    cached top eigenvector (a Krylov search, on v -> F (F† v) for a factor), the others from seeded random
    product vectors; all run in lockstep as one batched ascent. The value is a certified lower bound on
    Lambda^2; the multi-start is a heuristic for the maximum.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if len(op.dims) < 2:
        raise ValueError("need at least two parties; a single-party maximum is just the top eigenvalue")
    vecs = _initial_vectors(op, restarts, seed)
    values, sweeps = _alternating_ascent(op.local_matrices, vecs)
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
    judged against tol_cert = TOL_CERT_REL * q. Both q and, for a certified tau, ``value`` =
    D_{alpha,z}(rho || tau) come from :func:`divergences._d_and_q` (Q = 1 on the Umegaki line).
    """
    _require_dpi(p)  # the certification conditions need joint concavity/convexity
    _require_same_partition(rho, tau)
    support_ok = in_support_set(rho, tau, p)
    ev = xi(rho, tau, p)
    d, q = _d_and_q(rho, tau, p, ev.log2q)

    if indices is None:
        res = max_product_overlap(ev, restarts=restarts, seed=seed)
    else:
        scores = ev.diagonal(indices)
        best = int(np.argmax(scores))
        if free_set == "mc-diagonal":
            e = np.eye(rho.dims[0], dtype=complex)[best]
            witness = (e, e.copy())
        else:
            witness = ((np.arange(rho.dim) == indices[best]).astype(float),)
        res = OverlapResult(float(scores[best]), witness, (), ())
    lam = res.value
    margin = q - lam
    band = TOL_CERT_REL * max(1.0, abs(lam))
    tol_cert = TOL_CERT_REL * q if math.isfinite(q) else TOL_CERT_REL
    if not support_ok or margin < -10.0 * tol_cert:
        verdict = "refuted"
    elif margin >= -tol_cert:
        verdict = "certified-optimal"
    else:
        verdict = "inconclusive"
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
        value=d if verdict == "certified-optimal" else None,
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
    """Whether rho is supported on span{|ii><jj|} for its (d, d) partition, within SUPPORT_CUT * max|entry|."""
    dims = rho.dims
    if len(dims) != 2 or dims[0] != dims[1]:
        return False
    idx = np.ix_(_ii_indices(dims[0]), _ii_indices(dims[0]))
    proj = np.zeros_like(rho.entries)
    proj[idx] = rho.entries[idx]
    return float(np.max(np.abs(rho.entries - proj))) <= SUPPORT_CUT * rho.max_abs()


def _require_mc(rho: DensityMatrix) -> None:
    if not is_maximally_correlated(rho):
        raise ValueError(f"rho is not maximally correlated in the |ii> basis within {SUPPORT_CUT:g} * max|entry|")


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
    if float(np.max(np.abs(off))) > SUPPORT_CUT * tau.max_abs():
        raise ValueError(f"tau is not diagonal in the |ii> basis within {SUPPORT_CUT:g} * max|entry|")
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
