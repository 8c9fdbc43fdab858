"""Independent oracles for cross-checking the library's fast paths.

Each oracle deliberately avoids the code path it checks: the resolvent
integral is done by adaptive quadrature instead of the divided-difference
kernel, and the coherence scan is a dense one-parameter search instead of
the fixed-point simplex solver. The small helpers at the end (product-state
overlap, golden-section search, simplex projection) exist only for the
tests. The serial Lambda^2 ascent runs one restart at a time with one
3-operand einsum over the whole tensor per party, the reference for the
batched ascent; the Bloch-angle grid is an exhaustive Lambda^2 reference for
a qubit first party. The support projector, the swap operator with its
symmetric and antisymmetric projectors, and the report JSON round trip are
only used by tests. The MC score table is the scalar form of the
maximally correlated certificate, the reference for its reading of Xi's
diagonal. ``assert_cached_spectrum_is_exact`` checks a spectrum assembled
without ``eigh`` against the entries and ``eigvalsh``. ``commutator_maxnorm``
tests that a pair commutes as a hypothesis, independent of how it was
built, and ``family_reference`` writes the isotropic, MCBD, GHZ and Dicke
states and ansatzes out by their defining formulas, independent of the
eigenbasis the library builds them on.
"""

import json
import math
import string

import numpy as np
import scipy.integrate

from renyi_ent import (
    GHZ,
    MCBD,
    AlphaZ,
    CertificateReport,
    DensityMatrix,
    Dicke,
    Isotropic,
    d_alpha_z,
    density,
    matrix_power,
    random_density,
)
from renyi_ent.linalg import eig_hermitian, hermitian_part
from renyi_ent.certificates import ASCENT_MAX_SWEEPS, ASCENT_TOL, OverlapResult, _chi_entries, _initial_vectors, chi, report_to_dict


def full_rank_state(d: int, seed: int, mix: float = 0.15, dims=None) -> DensityMatrix:
    """Random full-rank state with the smallest eigenvalue bounded away from 0."""
    st = random_density(d, d, seed)
    m = (1.0 - mix) * st.entries + mix * np.eye(d) / d
    return density(m, (d,) if dims is None else dims)


def assert_cached_spectrum_is_exact(op) -> None:
    """The cached spectrum (w, V): V diag(w) V† gives the entries within 1e-13 * max|entry|,
    w is ascending and matches eigvalsh within 1e-13 * max|w|, V is unitary within 1e-13."""
    dec = eig_hermitian(op)
    w, v = dec.eigenvalues, dec.vectors
    assert not w.flags.writeable and not v.flags.writeable
    assert np.all(np.diff(w) >= 0)
    rebuilt = (v * w) @ v.conj().T
    assert np.max(np.abs(rebuilt - op.entries)) <= 1e-13 * np.max(np.abs(op.entries))
    assert np.max(np.abs(w - np.linalg.eigvalsh(op.entries))) <= 1e-13 * np.max(np.abs(w))
    assert np.max(np.abs(v.conj().T @ v - np.eye(op.dim))) <= 1e-13


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
    return float((full.conj() @ op.entries @ full).real)


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


def product_overlap_serial(op, restarts: int = 64, seed: int = 0):
    """Alternating Lambda^2 ascent, one restart at a time, from the library's start vectors.

    Returns (values, sweeps, witnesses), one entry per restart; a restart
    stops once its sweep gains at most ``ASCENT_TOL * max(1, |value|)``, or
    after ``ASCENT_MAX_SWEEPS`` sweeps, the library's own constants.
    """
    dims, n = op.dims, len(op.dims)
    tensor = op.entries.reshape(dims + dims)
    subs = _local_matrix_subscripts(n)
    starts = _initial_vectors(op, restarts, seed)
    values, sweeps, witnesses = [], [], []
    for r in range(restarts):
        vecs = [v[r].copy() for v in starts]
        value, count = -math.inf, 0
        for _ in range(ASCENT_MAX_SWEEPS):
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
            converged = new_value - value <= ASCENT_TOL * max(1.0, abs(new_value))
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


def swap_operator(d: int) -> np.ndarray:
    m = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            m[i * d + j, j * d + i] = 1.0
    return m


def symmetric_projector(d: int) -> np.ndarray:
    return (np.eye(d * d) + swap_operator(d)) / 2


def antisymmetric_projector(d: int) -> np.ndarray:
    return (np.eye(d * d) - swap_operator(d)) / 2


def support_projector(op):
    """Projector onto the eigenvectors with eigenvalue above the support cut."""
    return matrix_power(op, 0.0)


def product_overlap_grid(
    op, steps: int = 400, refine_levels: int = 2
) -> OverlapResult:
    """Exhaustive Bloch-angle grid for Lambda^2 on small bipartite operators.

    The first party must be a qubit: its pure states are gridded over the
    Bloch angles (theta step pi/steps, phi step pi/steps), while the second
    party is solved exactly as the top eigenvector of the contracted local
    matrix. ``refine_levels`` nested zooms around the coarse argmax polish the
    local estimate; the whole search never touches the alternating path.
    Intended as an independent oracle for total dimension <= 16.
    """
    dims = op.dims
    if len(dims) != 2 or dims[0] != 2:
        raise ValueError("grid fallback needs a bipartition with a qubit first party")
    if op.dim > 16:
        raise ValueError("grid fallback is limited to total dimension <= 16")
    tensor = op.entries.reshape(dims + dims)

    def scan(thetas: np.ndarray, phis: np.ndarray) -> tuple[float, float, float]:
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        tt, pp = tt.ravel(), pp.ravel()
        vgrid = np.stack([np.cos(tt / 2), np.sin(tt / 2) * np.exp(1j * pp)], axis=1)
        best_val, best_t, best_p = -math.inf, 0.0, 0.0
        chunk = 65536
        for lo in range(0, vgrid.shape[0], chunk):
            vs = vgrid[lo : lo + chunk]
            local = np.einsum("ga,abcd,gc->gbd", vs.conj(), tensor, vs)
            local = (local + np.conj(np.transpose(local, (0, 2, 1)))) / 2
            vals = np.linalg.eigvalsh(local)[:, -1]
            idx = int(np.argmax(vals))
            if vals[idx] > best_val:
                best_val = float(vals[idx])
                best_t, best_p = float(tt[lo + idx]), float(pp[lo + idx])
        return best_val, best_t, best_p

    step = math.pi / steps
    value, th, ph = scan(
        np.linspace(0.0, math.pi, steps + 1),
        np.arange(2 * steps) * step,
    )
    for _ in range(refine_levels):
        half = step
        step = half / 10
        thetas = np.clip(np.linspace(th - half, th + half, 21), 0.0, math.pi)
        phis = np.linspace(ph - half, ph + half, 21)
        value, th, ph = scan(thetas, phis)

    v1 = np.array([math.cos(th / 2), math.sin(th / 2) * np.exp(1j * ph)])
    local = np.einsum("a,abcd,c->bd", v1.conj(), tensor, v1)
    _, vv = np.linalg.eigh(hermitian_part(local))
    return OverlapResult(value=value, witness=(v1, vv[:, -1]), restart_values=(), restart_sweeps=())


def _decode_float(x):
    if x is None:
        return None
    if isinstance(x, str):
        return {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}[x]
    return float(x)


def report_from_dict(payload: dict) -> CertificateReport:
    witness = tuple(
        np.asarray(v["re"], dtype=float) + 1j * np.asarray(v["im"], dtype=float)
        for v in payload["witness"]
    )
    return CertificateReport(
        alpha=float(payload["alpha"]),
        z=float(payload["z"]),
        free_set=payload["free_set"],
        support_ok=bool(payload["support_ok"]),
        lambda_sq=_decode_float(payload["lambda_sq"]),
        q_value=_decode_float(payload["q_value"]),
        margin=_decode_float(payload["margin"]),
        verdict=payload["verdict"],
        witness=witness,
        tol_cert=float(payload["tol_cert"]),
        route=payload["route"],
        beta=float(payload["beta"]),
        value=_decode_float(payload["value"]),
        restart_values=tuple(payload.get("restart_values", ())),
        restart_hits=int(payload.get("restart_hits", 0)),
        restart_sweeps=tuple(int(n) for n in payload.get("restart_sweeps", ())),
    )


def report_to_json(report: CertificateReport) -> str:
    return json.dumps(report_to_dict(report))


def report_from_json(text: str) -> CertificateReport:
    return report_from_dict(json.loads(text))


def mc_score_lambda(rho: DensityMatrix, tau, p: AlphaZ) -> float:
    """max_l of the MC certificate's scalar score table for tau = sum_l t_l |ll><ll|.

    Scores over the live weights (t_l above 1e-10 * max t, -inf elsewhere):
    rho_ll / t_l on the Umegaki line, <ll| chi_{alpha,1-alpha} |ll> on the
    boundary lines (every l) and t_l^(beta-1) <ll| chi |ll> otherwise.
    """
    d = rho.dims[0]
    idx = np.arange(d) * (d + 1)
    t = np.real(np.diag(tau.entries))[idx]
    live = t > 1e-10 * t.max()
    scores = np.full(d, -math.inf)
    if p.on_umegaki_line:
        scores[live] = np.real(np.diag(rho.entries))[idx][live] / t[live]
    elif p.on_reverse_line or p.on_lower_line:
        scores = np.real(np.diag(_chi_entries(rho, tau, p.alpha, 1.0 - p.alpha)))[idx]
    else:
        diag_chi = np.real(np.diag(_chi_entries(rho, tau, p.alpha, p.z)))[idx]
        scores[live] = t[live] ** (p.beta - 1.0) * diag_chi[live]
    return float(np.max(scores))


def commutator_maxnorm(a, b) -> float:
    """max |[a, b]| over the entries."""
    am, bm = a.entries, b.entries
    return float(np.max(np.abs(am @ bm - bm @ am)))


def _occupation_type_members(N: int, k: tuple[int, ...]) -> dict[tuple[int, ...], list[int]]:
    types = {}
    for flat, idx in enumerate(np.ndindex(*([len(k)] * N))):
        types.setdefault(tuple(np.bincount(idx, minlength=len(k))), []).append(flat)
    return types


def _projector(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def family_reference(family, ansatz: bool = False) -> np.ndarray:
    """The entries of an isotropic, MCBD, GHZ or Dicke state (or, with ``ansatz``, its
    entangled-regime ansatz) from the defining formulas.

    Isotropic: (1-F)/(d^2-1) (1 - Phi) + F Phi with Phi = |Phi+><Phi+|, the ansatz at
    F = 1/d. MCBD: sum_k p_k |psi_k><psi_k| with |psi_k> = d^(-1/2) sum_j e^(2 pi i kj/d) |jj>.
    GHZ: the projector on sum_j |j...j>. The ansatz of both is the even mixture of
    the |j...j>. Dicke: the projector on the sum over the occupation type k; the ansatz
    is the product state (sum_j sqrt(k_j/N) |j>)^(x N) with every block between two
    different occupation types set to zero.
    """
    if isinstance(family, Isotropic):
        d = family.d
        F = 1.0 / d if ansatz else family.F
        phi = _projector(np.eye(d * d)[:, np.arange(d) * (d + 1)].sum(axis=1))
        return (1.0 - F) / (d * d - 1.0) * (np.eye(d * d) - phi) + F * phi
    if isinstance(family, (MCBD, GHZ)):
        d = family.d
        parties = family.M if isinstance(family, GHZ) else 2
        diagonal = np.arange(d) * sum(d**m for m in range(parties))
        if ansatz:
            m = np.zeros((d**parties, d**parties))
            m[diagonal, diagonal] = 1.0 / d
            return m
        if isinstance(family, GHZ):
            v = np.zeros(d**parties)
            v[diagonal] = 1.0
            return _projector(v)
        m = np.zeros((d * d, d * d), dtype=complex)
        for k, w in enumerate(family.p):
            v = np.zeros(d * d, dtype=complex)
            v[diagonal] = np.exp(2j * math.pi * k * np.arange(d) / d)
            m += w * _projector(v)
        return m
    if isinstance(family, Dicke):
        types = _occupation_type_members(family.N, family.k)
        if not ansatz:
            v = np.zeros(len(family.k) ** family.N)
            v[types[family.k]] = 1.0
            return _projector(v)
        amps = np.sqrt(np.asarray(family.k, dtype=float) / family.N)
        product = amps
        for _ in range(family.N - 1):
            product = np.kron(product, amps)
        proj = np.outer(product, product)
        m = np.zeros_like(proj)
        for members in types.values():
            m[np.ix_(members, members)] = proj[np.ix_(members, members)]
        return m
    raise TypeError(f"no reference for {family!r}")
