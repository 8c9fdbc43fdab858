"""Independent oracles for cross-checking the library's fast paths.

Each oracle deliberately avoids the code path it checks: the resolvent
integral is done by adaptive quadrature instead of the divided-difference
kernel, and the coherence scan is a dense one-parameter search instead of
the fixed-point simplex solver. The small helpers at the end (product-state
overlap, golden-section search, simplex projection) exist only for the
tests. The serial Lambda^2 ascent runs one restart at a time with one
3-operand einsum over the whole tensor per party, the reference for the
batched ascent.
"""

import math
import string

import numpy as np
import scipy.integrate

from renyi_ent import AlphaZ, DensityMatrix, d_alpha_z, density, random_density
from renyi_ent.linalg import as_operator
from renyi_ent.certificates import _initial_vectors, chi


def full_rank_state(d: int, seed: int, mix: float = 0.15, dims=None) -> DensityMatrix:
    """Random full-rank state with the smallest eigenvalue bounded away from 0."""
    st = random_density(d, d, seed)
    m = (1.0 - mix) * st.entries + mix * np.eye(d) / d
    return density(m, (d,) if dims is None else dims)


def xi_quadrature(rho: DensityMatrix, tau, p: AlphaZ, epsabs: float = 1e-11) -> np.ndarray:
    """Adaptive quadrature of K * integral chi / (tau + t)^2 t^beta dt.

    Integrates in x = log(t) (both tails then decay exponentially), with the
    bounds chosen so each truncated tail contributes less than epsabs / 4.
    The resolvents are computed by direct inversion, independent of the
    eigenbasis kernel used by the library.
    """
    beta = p.beta
    if p.on_umegaki_line:
        chi_m = rho.entries
        prefactor = 1.0
    else:
        chi_m = chi(rho, tau, p).entries
        prefactor = math.sin(math.pi * beta) / (math.pi * beta)
    tau_m = tau.entries if hasattr(tau, "entries") else np.asarray(tau)
    lam_min = float(np.linalg.eigvalsh(tau_m)[0])
    if lam_min <= 0:
        raise ValueError("quadrature oracle needs a full-rank tau")
    scale = max(float(np.max(np.abs(chi_m))), np.finfo(float).tiny)
    target = epsabs / 4.0
    x_lo = math.log(target * (beta + 1.0) * lam_min**2 / scale) / (beta + 1.0)
    x_hi = math.log(scale / (target * (1.0 - beta))) / (1.0 - beta)
    eye = np.eye(tau_m.shape[0])

    def integrand(x: float) -> np.ndarray:
        t = math.exp(x)
        resolvent = np.linalg.inv(tau_m + t * eye)
        m = resolvent @ chi_m @ resolvent * t ** (beta + 1.0)
        return np.stack([m.real, m.imag])

    val, _ = scipy.integrate.quad_vec(integrand, x_lo, x_hi, epsabs=epsabs, limit=2000)
    return prefactor * (val[0] + 1j * val[1])


def coherence_scan_qubit(rho: DensityMatrix, p: AlphaZ, steps: int = 20001) -> float:
    """Dense scan of D(rho || diag(s, 1-s)) over s for a qubit state."""
    best = math.inf
    for s in np.linspace(0.0, 1.0, steps):
        sigma = density(np.diag([max(s, 0.0), max(1.0 - s, 0.0)]), rho.dims)
        best = min(best, d_alpha_z(rho, sigma, p))
    return best


def product_overlap_value(op, vecs) -> float:
    """Evaluate <v1...vN| op |v1...vN> for per-party vectors."""
    full = vecs[0]
    for v in vecs[1:]:
        full = np.kron(full, v)
    return float((full.conj() @ as_operator(op).entries @ full).real)


def _local_matrix_subscripts(nparties: int) -> list[str]:
    letters = string.ascii_letters
    bra = letters[:nparties]
    ket = letters[nparties : 2 * nparties]
    subs = []
    for k in range(nparties):
        terms = [bra + ket]
        for j in range(nparties):
            if j != k:
                terms.append(bra[j])
                terms.append(ket[j])
        subs.append(",".join(terms) + "->" + bra[k] + ket[k])
    return subs


def product_overlap_serial(op, restarts: int = 64, max_iters: int = 1000, tol: float = 1e-12, seed: int = 0):
    """Alternating Lambda^2 ascent, one restart at a time, from the library's start vectors.

    Returns (values, sweeps, witnesses), one entry per restart; a restart
    stops once its sweep gains at most ``tol * max(1, |value|)``.
    """
    h = as_operator(op)
    dims, n = h.dims, len(h.dims)
    tensor = h.entries.reshape(dims + dims)
    subs = _local_matrix_subscripts(n)
    starts = _initial_vectors(h, restarts, seed)
    values, sweeps, witnesses = [], [], []
    for r in range(restarts):
        vecs = [v[r].copy() for v in starts]
        value, count = -math.inf, 0
        for _ in range(max_iters):
            count += 1
            for k in range(n):
                operands = []
                for j in range(n):
                    if j != k:
                        operands += [vecs[j].conj(), vecs[j]]
                local = np.einsum(subs[k], tensor, *operands)
                w, v = np.linalg.eigh((local + local.conj().T) / 2)
                vecs[k] = v[:, -1]
                new_value = float(w[-1])
            converged = new_value - value <= tol * max(1.0, abs(new_value))
            value = new_value
            if converged:
                break
        values.append(value)
        sweeps.append(count)
        witnesses.append(tuple(vecs))
    return values, sweeps, witnesses


def golden_section_1d(objective, bracket: tuple[float, float], tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section minimization of a unimodal objective on a bracket."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if hi < lo:
        lo, hi = hi, lo
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = objective(x2)
    x = (lo + hi) / 2.0
    return x, objective(x)


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    cond = u + (1.0 - css) / idx > 0
    rho = int(np.nonzero(cond)[0][-1])
    lam = (1.0 - css[rho]) / (rho + 1)
    return np.maximum(v + lam, 0.0)
