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
    ColumnSparse,
    DensityMatrix,
    HermitianOperator,
    _fmt,
    _ii_indices,
    _joint_spectrum,
    _power,
    _power_values,
    _stored_entries,
    _support_mask,
    eig_hermitian,
    hermitian_part,
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

    A product route gives an n x r ``factor`` F (Xi = F F†, never formed): column-sparse on a shared
    column-sparse basis, else dense. Otherwise ``dense`` is Xi as a read-only n x n Hermitian array.
    Party by party, a column-sparse factor is contracted by its entries where that is cheaper (:attr:`_plans`);
    every other contraction is :func:`_local_matrices` on ``dense`` or on F, a column-sparse F made dense once.
    """

    route: str  # "boundary-line" | "commuting" | "divided-difference"
    dims: tuple[int, ...]
    factor: np.ndarray | ColumnSparse | None = None
    log2q: float | None = None  # log2 Q from chi's core: divided-difference off the Umegaki line, general z = 1 - alpha
    dense: np.ndarray | None = None

    def diagonal(self, indices: np.ndarray) -> np.ndarray:
        """<i| Xi |i> at the basis ``indices``: for a factor, the squared norms of its rows."""
        f = self.factor
        if f is None:
            return self.dense[indices, indices].real
        if isinstance(f, ColumnSparse):
            return np.bincount(f.rows, (f.vals * f.vals.conj()).real, f.shape[0])[indices]
        return (f[indices] * f[indices].conj()).real.sum(1)

    @cached_property
    def _plans(self) -> list[tuple | None]:
        """Per party k, :func:`_entry_plan` of a column-sparse factor within the dense-factor contraction's
        r (n + d_k^2) multiply-adds per restart; None, the dense-factor path, for a dense factor or past that."""
        f, dims = self.factor, self.dims
        if not isinstance(f, ColumnSparse):
            return [None] * len(dims)
        return [_entry_plan(f.gram, dims, k, f.shape[1] * (f.shape[0] + d * d)) for k, d in enumerate(dims)]

    @cached_property
    def _operand(self) -> np.ndarray:
        """:func:`_local_matrices`' operand: ``dense``, or the factor, a column-sparse one made dense once."""
        f = self.factor
        return self.dense if f is None else f.toarray() if isinstance(f, ColumnSparse) else f

    def local_matrices(self, k: int, vecs: list[np.ndarray]) -> np.ndarray:
        """Party k's local matrices <others| Xi |others>, one (d_k, d_k) block per row of ``vecs``: by
        :meth:`_sparse_local` on party k's plan where it has one, else by :func:`_local_matrices`."""
        plan = self._plans[k]
        if plan is not None:
            return self._sparse_local(k, vecs, plan)
        return _local_matrices(self._operand, self.dims, k, vecs, factor=self.factor is not None)

    def _sparse_local(self, k: int, vecs: list[np.ndarray], plan: tuple) -> np.ndarray:
        """sum over Xi's entries (i, i') of <others|i> Xi_ii' <i'|others>, by index arithmetic on those entries.

        Only the entries on or below party k's diagonal are read, as :func:`_entry_plan` lays them out in
        ``plan``: for each chunk of restarts whose products fit _CHUNK_BYTES, a gather of the bras at both
        indices, a product with the entry, and a sum by target, level by level. The upper triangle is then
        the conjugate of the lower one, written through a mirror index, and the diagonal its real part, so
        every local matrix is exactly Hermitian.
        """
        rows, d = vecs[0].shape[0], self.dims[k]
        oi, oj, x, widths, targets, below, above = plan
        bras = _kron_rows([v.conj() for j, v in enumerate(vecs) if j != k], rows)
        out = np.zeros((d * d, rows), dtype=complex)  # restarts last: the gathers copy whole rows
        step = max(1, _CHUNK_BYTES // (16 * max(x.size, 1)))
        for lo in range(0, rows, step):
            h = np.ascontiguousarray(bras[lo : lo + step].T)
            terms = h[oi]
            terms *= x
            terms *= h.conj()[oj]
            at = widths[0] if widths else 0
            for width in widths[1:]:
                terms[:width] += terms[at : at + width]
                at += width
            out[targets, lo : lo + step] = terms[: len(targets)]
        out[above] = out[below].conj()
        out.imag[:: d + 1] = 0.0
        return out.T.reshape(rows, d, d)


def _entry_plan(gram: tuple[np.ndarray, ...], dims: tuple[int, ...], k: int, budget: float) -> tuple | None:
    """Party k's plan for the sum of <others|i> Xi_ii' <i'|others> over Xi's stored entries ``gram``
    (:attr:`linalg.ColumnSparse.gram`), or None where _ENTRY_FLOPS times the count of them on or below
    party k's diagonal (a_i >= a_i') reaches ``budget``.

    By strides, s = prod(dims[k+1:]): a_i = i // s % d_k, and i's others' flat index (every party's but
    k's) is i // (s d_k) * s + i % s. Those entries, grouped by target a_i d_k + a_i' (each group in (i, i')
    order, the largest first), are laid out level by level: the first entry of every group, then the second
    of each group that has one, and so on. A level's sum is one vector add, where a segment sum makes one per
    entry. Returns per entry both others' indices and the complex value as a column; the level widths; the
    targets; and the flat places of a (d_k, d_k) block's strict lower triangle and of their mirrors.
    """
    i, i2, x = gram
    d, s = dims[k], math.prod(dims[k + 1 :])
    ai, aj = i // s % d, i2 // s % d
    low = ai >= aj
    if _ENTRY_FLOPS * np.count_nonzero(low) >= budget:
        return None
    oi, oj = ((j // (s * d) * s + j % s)[low] for j in (i, i2))
    targets, group, sizes = np.unique((ai * d + aj)[low], return_inverse=True, return_counts=True)
    by_size = np.argsort(-sizes, kind="stable")
    rank = np.argsort(by_size)  # each group's place, largest first
    order = np.argsort(group, kind="stable")
    level = np.empty_like(order)
    level[order] = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    entry = np.argsort(level * sizes.size + rank[group])
    a, b = np.tril_indices(d, -1)  # a > b
    return (oi[entry], oj[entry], x[low][entry].astype(complex)[:, None], np.bincount(level).tolist(),
            targets[by_size], a * d + b, b * d + a)


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
        (|beta| = 1 with beta = (1-alpha)/z): Xi = chi_{alpha,1-alpha} exactly;
        on z = 1 - alpha the core of chi is Q's, so its log2 Q is kept as ``log2q``.
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
        # a factor, not eigenpairs (x, v): the ascent contracts F
        s = np.sqrt(x)
        f = v.columns(keep, s) if isinstance(v, ColumnSparse) else v[:, keep] * s[keep]
        return XiEvaluation("boundary-line" if on_line else "commuting", rho.dims, f)
    if on_line:
        f, log2q = _chi_factor(rho, tau, p.alpha, 1.0 - p.alpha)
        return XiEvaluation("boundary-line", rho.dims, f, log2q if p.on_reverse_line else None)
    return _xi_divided_difference(rho, tau, p)


def _xi_divided_difference(rho: HermitianOperator, tau: HermitianOperator, p: AlphaZ) -> XiEvaluation:
    """Xi by the closed form of the resolvent integral, valid for any pair.

    Evaluated in the eigenbasis of tau as phi_beta(t_i, t_j) * chi_ij. On the
    Umegaki line the kernel degenerates to the log-mean kernel applied to rho
    itself. The result is made exactly Hermitian; a non-finite entry raises ValueError.
    """
    dec = eig_hermitian(tau)
    w, u = dec.eigenvalues, dec.vectors
    f, log2q = (None, None) if p.on_umegaki_line else _chi_factor(rho, tau, p.alpha, p.z)
    t = np.where(_support_mask(w), w, 0.0)
    coeff = u.conj().T @ (rho.entries if f is None else f @ f.conj().T) @ u
    m = hermitian_part(np.asarray(u @ (_phi_divided_difference(t, p) * coeff) @ u.conj().T, dtype=complex))
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    m.flags.writeable = False
    return XiEvaluation("divided-difference", rho.dims, log2q=log2q, dense=m)


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


# Bound on the first contraction's output per chunk of restarts: the bras of the earlier parties (of
# the later ones for k = 0) against a dense Xi or F, the entry products for a column-sparse F (16 bytes
# a restart for each entry of Xi on or below party k's diagonal: 64 restarts of AntisymPair(5)'s 1,000
# take 1 MB). 8 MB holds 33 restarts of a dense Xi or a full-rank F at 625 dims and 11 at 1296, wide
# enough for an efficient matrix product; smaller operators run all restarts in one chunk.
_CHUNK_BYTES = 1 << 23

# Multiply-adds of the dense-factor contraction that one entry of the sparse one costs: two gathers,
# two products and a sum on numpy's element loops against a blocked GEMM. Timed on 45 catalog inputs
# at 64 restarts, BLAS 1 thread, the two cross where r (n + d_k^2) is 2 to 5 times the entries: at
# 1.7 and below the sparse one is 1.3-300x slower (every Dicke state), at 5 to 16 it is 2x faster but
# by under 0.025 ms a call (table1's small families; GHZ states tie), above 30 it is 2-150x faster
# (AntisymPair(4..6), MCBD from d = 10, Isotropic from d = 6, Werner from d = 5). Any weight from 2
# to 16 gives the same total over the 45 within 2 %; 16 keeps the inputs below ratio 16 on the
# dense-factor path they took before, so their results stay as they were.
_ENTRY_FLOPS = 16


def _kron_rows(factors: list[np.ndarray], rows: int) -> np.ndarray:
    """Row-wise Kronecker product of (rows, d_j) arrays; a column of ones for none."""
    out = np.ones((rows, 1), dtype=complex)
    for f in factors:
        out = (out[:, :, None] * f[:, None, :]).reshape(rows, -1)
    return out


def _local_matrices(m: np.ndarray, dims: tuple[int, ...], k: int, vecs: list[np.ndarray], factor: bool = False) -> np.ndarray:
    """Party k's local matrices <others| Xi |others>, one (d_k, d_k) block per row of ``vecs``, of a dense
    n x c operand ``m``: Xi itself, or with ``factor`` a factor F of Xi = F F†, as G G† with G = <others| F.

    G = <others| m reads m's own buffer through reshape views, as matrix products against a chunk of
    restarts: for k = 0, the bras of all later parties, one product per party-0 index; otherwise the bras
    of all earlier parties, then those of the later ones. Chunks keep the first product's output within
    _CHUNK_BYTES. Xi's blocks then take the kets of G's columns: the later parties', then the earlier ones'.
    """
    rows, d, c = vecs[0].shape[0], dims[k], m.shape[1]
    pre = _kron_rows(vecs[:k], rows)
    post = _kron_rows(vecs[k + 1 :], rows)
    p, q = pre.shape[1], post.shape[1]
    step = max(1, _CHUNK_BYTES // (16 * d * (q if k else 1) * max(c, 1)))  # c = 0 when the supports are disjoint
    out = np.empty((rows, d, d), dtype=complex)
    for lo in range(0, rows, step):
        s = slice(lo, lo + step)
        if k == 0:
            g = (post[s].conj() @ m.reshape(d, q, c)).swapaxes(0, 1)
        else:
            g = (pre[s].conj() @ m.reshape(p, d * q * c)).reshape(len(pre[s]), d, q, c)
            g = (post[s, None, None].conj() @ g)[:, :, 0] if q > 1 else g[:, :, 0]
        if factor:
            out[s] = g @ g.conj().swapaxes(1, 2)
        else:
            t = g.reshape(-1, d, p * d, q) @ post[s, None, :, None] if q > 1 else g
            out[s] = (pre[s, None, None] @ t.reshape(-1, d, p, d))[:, :, 0]
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
    """Per-party (restarts, d_k) start vectors: row r is a random unit vector per party, from one
    ``standard_normal(2 sum_k d_k)`` draw of ``default_rng([seed, r])`` that holds, party by party,
    the real parts and then the imaginary parts.
    """
    width = 2 * sum(op.dims)
    draws = np.array([np.random.default_rng([seed, r]).standard_normal(width) for r in range(restarts)])
    vecs, at = [], 0
    for d in op.dims:
        x = draws[:, at : at + d] + 1j * draws[:, at + d : at + 2 * d]
        vecs.append(x / np.array([np.linalg.norm(row) for row in x])[:, None])  # as a row alone would be scaled
        at += 2 * d
    return vecs


def max_product_overlap(op: XiEvaluation, restarts: int = 64, seed: int = 0) -> OverlapResult:
    """Maximize <v1...vN| Xi |v1...vN> over product unit vectors, Xi given as an XiEvaluation.

    Alternating maximization: with all local vectors but one fixed, the contraction of Xi (of a factor F
    as F, never as F F†) is a local Hermitian matrix whose top eigenvector is the exact update, so the
    overlap is nondecreasing. That vector is a qubit's closed form, else one solve shifted to the top of one
    ``eigvalsh``, or ``eigh`` where the solve misses it. Every restart r starts from a random product vector
    seeded by ``(seed, r)``; all run in lockstep as one batched ascent. The value is a certified lower bound
    on Lambda^2; the multi-start is a heuristic for the maximum.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if len(op.dims) < 2:
        raise ValueError("need at least two parties; a single-party maximum is just the top eigenvalue")
    vecs = _initial_vectors(op, restarts, seed)
    values, sweeps = _alternating_ascent(op.local_matrices, vecs)
    top = float(np.max(values))
    # the witness: the lowest restart within rounding of the top, so a reordered sum cannot move it
    best = int(np.argmax(values >= top - RAYLEIGH_RTOL * max(1.0, abs(top))))
    return OverlapResult(
        value=top,
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


def is_maximally_correlated(rho: DensityMatrix) -> bool:
    """Whether rho is supported on span{|ii><jj|} for its (d, d) partition, within SUPPORT_CUT * max|entry|."""
    dims = rho.dims
    if len(dims) != 2 or dims[0] != dims[1]:
        return False
    idx = np.ix_(_ii_indices(dims[0]), _ii_indices(dims[0]))
    proj = np.zeros_like(rho.entries)
    proj[idx] = rho.entries[idx]
    return float(np.max(np.abs(rho.entries - proj))) <= SUPPORT_CUT * float(np.max(np.abs(rho.entries)))


def _free_indices(rho: DensityMatrix, free_set: str) -> np.ndarray | None:
    """A free set's basis states as indices, the only place a free-set name becomes them: None for "sep" (no
    finite set), every index for "incoherent", the states |ll> of a maximally correlated rho for "mc-diagonal"."""
    if free_set == "sep":
        return None
    if free_set == "incoherent":
        return np.arange(rho.dim)
    if free_set != "mc-diagonal":
        raise ValueError(f"unknown free set {free_set!r}")
    if not is_maximally_correlated(rho):
        raise ValueError(f"rho is not maximally correlated in the |ii> basis within {SUPPORT_CUT:g} * max|entry|")
    return _ii_indices(rho.dims[0])


def certify_optimizer(
    rho: DensityMatrix, tau: HermitianOperator, p: AlphaZ, free_set: str = "sep", restarts: int = 64, seed: int = 0,
) -> CertificateReport:
    """Certify tau as a minimizer of D_{alpha,z}(rho || .) over a free set: the one certification body.

    Support, Xi, Q and Lambda^2, then the verdict and report. For ``free_set="sep"`` Lambda^2 comes from
    the multi-start product-state search (``restarts``, ``seed``). A finite free set is the mixtures of
    its basis states (:func:`_free_indices`): the computational basis for ``"incoherent"`` (for another
    basis, rotate rho and tau into it first), the states |ll> for ``"mc-diagonal"`` (T_rho of a maximally
    correlated rho, where the condition over all separable states is max_l <ll| Xi |ll> <= Q). There tau
    must be diagonal on those states within SUPPORT_CUT * max|tau|, else a ValueError, and Lambda^2 is
    the largest <b|Xi|b> over them, witnessed by the real (e_j,), or by (e_l, e_l) for b = |ll>.
    margin = q - Lambda^2 is judged against tol_cert = TOL_CERT_REL * q. Both q and, for a certified
    tau, ``value`` = D_{alpha,z}(rho || tau) come from :func:`divergences._d_and_q` (Q = 1 on the
    Umegaki line). ``route`` names the Xi route.
    """
    indices = _free_indices(rho, free_set)
    _require_dpi(p)  # the certification conditions need joint concavity/convexity
    if rho.dims != tau.dims:
        raise ValueError(f"rho has partition {rho.dims} but tau has partition {tau.dims}")
    if indices is not None:
        i, i2, x = _stored_entries(tau)
        free = np.zeros(tau.dim, dtype=bool)
        free[indices] = True
        off = np.where((i == i2) & free[i], x.imag, x)
        if float(np.max(np.abs(off), initial=0.0)) > SUPPORT_CUT * float(np.max(np.abs(x), initial=0.0)):
            raise ValueError(f"tau is not diagonal on the {free_set} basis states within {SUPPORT_CUT:g} * max|entry|")
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
            witness = (np.eye(1, rho.dim, indices[best]).ravel(),)
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
