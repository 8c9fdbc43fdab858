"""Independent oracles for cross-checking the library's fast paths.

Each oracle deliberately avoids the code path it checks: the resolvent
integral is done by adaptive quadrature instead of the divided-difference
kernel, ``phi_reference`` evaluates that kernel by its defining quotients in
40-digit decimal arithmetic, and the coherence scan is a dense one-parameter
search instead of the fixed-point simplex solver. The small helpers at the end (product-state
overlap, golden-section search, simplex projection) exist only for the
tests. The serial Lambda^2 ascent runs one restart at a time with one
3-operand einsum over the whole tensor per party, the reference for the
batched ascent, and ``simplex_serial`` runs the simplex solver's starts one
after another with 1-row objective calls, the reference for its lockstep
starts; the Bloch-angle grid is an exhaustive Lambda^2 reference for
a qubit first party, with its own closed-form qubit top eigenvalue.
``minimize_conditional_mc`` is the second route to an
MC state's value, the conditional entropy on the full d^2-dimensional
operators, which tiles each row of the library's one simplex objective d
times. The generalized ``matrix_power``, the support projector and rank,
``permute_factors``, the swap operator with its symmetric and antisymmetric
projectors, and the report JSON round trip are only used by tests. The MC
score table is the scalar form of the maximally correlated certificate, the
reference for its reading of Xi's diagonal.
``assert_cached_spectrum_is_exact`` checks a spectrum assembled without
``eigh`` against the entries and ``eigvalsh``. ``commutator_maxnorm`` tests
that a pair commutes as a hypothesis, independent of how it was built, and
``family_reference`` writes the isotropic, MCBD, GHZ and Dicke states and
ansatzes out by their defining formulas, independent of the eigenbasis the
library builds them on.
The helpers at the very end have no reader in the package itself: ``wrap``
symmetrizes a matrix into a validated operator, ``as_xi`` hands a dense
operator's entries to the Lambda^2 search as an ``XiEvaluation``,
``factor_matrix`` and ``xi_matrix`` give a product route's F, and Xi as an
operator (F F† formed densely), ``dense_dft_basis`` and ``reference_basis``
are the dense construction of the catalog bases (DFT blocks, ``np.kron`` and
the row permute of ``_permute_rows``) that the column-sparse storage must
reproduce bit for bit, ``witness_overlap`` recomputes a report's Lambda^2 at
its witness as ||F† w||^2 on a dense F, ``entry_plan_reference`` lays out
party k's entry plan by ``np.unravel_index`` and ``np.ravel_multi_index``
(the reference for the stride arithmetic of ``certificates._entry_plan``), and ``chi``,
``q_alpha_z``, ``partial_trace`` and the closed-form Lambda^2 table
``lambda_sq_closed_form`` are the quantities the tests compare against.
"""

import decimal
import itertools
import json
import math
import string
from dataclasses import fields

import numpy as np
import scipy.integrate

from renyi_ent import (
    GHZ,
    MCBD,
    AlphaZ,
    AntisymPair,
    BellDiagonal,
    CertificateReport,
    DensityMatrix,
    Dicke,
    Isotropic,
    PureBipartite,
    Werner,
    XiEvaluation,
    d_alpha_z,
    density,
    random_density,
    xi,
)
from renyi_ent import minimizers
from renyi_ent.catalog import _basis_groups, _log_type_probability, _party_shape
from renyi_ent.divergences import _log2_q, _q_from_log2, _require_dpi
from renyi_ent.linalg import (
    ASCENT_TOL,
    NOISE_REL,
    PROB_ATOL,
    STATIONARY_TOL,
    SUPPORT_CUT,
    ColumnSparse,
    HermitianOperator,
    _joint_spectrum,
    _power,
    _support_mask,
    eig_hermitian,
    hermitian_part,
)
from renyi_ent.certificates import (
    ASCENT_MAX_SWEEPS,
    OverlapResult,
    _chi_factor,
    _free_indices,
    _initial_vectors,
    report_to_dict,
)


def full_rank_state(d: int, seed: int, mix: float = 0.15, dims=None) -> DensityMatrix:
    """Random full-rank state with the smallest eigenvalue bounded away from 0."""
    st = random_density(d, d, seed)
    m = (1.0 - mix) * st.entries + mix * np.eye(d) / d
    return density(m, (d,) if dims is None else dims)


def assert_cached_spectrum_is_exact(op) -> None:
    """The cached spectrum (w, V), in any order: V diag(w) V† gives the entries within 1e-13 * max|entry|,
    sorted w matches eigvalsh within 1e-13 * max|w|, V is unitary within 1e-13."""
    dec = eig_hermitian(op)
    w, v = dec.eigenvalues, dec.vectors
    assert not w.flags.writeable and not v.flags.writeable
    rebuilt = (v * w) @ v.conj().T
    assert np.max(np.abs(rebuilt - op.entries)) <= 1e-13 * np.max(np.abs(op.entries))
    assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(op.entries))) <= 1e-13 * np.max(np.abs(w))
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


def phi_reference(t, beta: float, digits: int = 40) -> np.ndarray:
    """The divided-difference kernel phi_beta on the positive entries of ``t`` in ``digits``-digit
    decimal arithmetic, by its defining quotients: (a^beta - b^beta) / (beta (a - b)), at beta = 0
    (log a - log b) / (a - b), and a^(beta-1) on a = b. Each float is read exactly; the difference
    of close values cancels in the decimal digits, not in the float ones."""
    out = np.zeros((len(t), len(t)))
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        beta_d = decimal.Decimal(beta)
        for i, j in itertools.product(range(len(t)), repeat=2):
            if t[i] > 0 and t[j] > 0:
                a, b = decimal.Decimal(float(t[i])), decimal.Decimal(float(t[j]))
                if a == b:
                    value = a ** (beta_d - 1)
                elif beta == 0:
                    value = (a.ln() - b.ln()) / (a - b)
                else:
                    value = (a**beta_d - b**beta_d) / (beta_d * (a - b))
                out[i, j] = float(value)
    return out


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


def initial_vectors_serial(op, restarts: int, seed: int) -> list[np.ndarray]:
    """The library's start vectors, drawn row by row and party by party from one ``default_rng(seed)``:
    row r of party k is x / ||x||, x = re + i im with re and im two ``standard_normal(d_k)`` draws."""
    vecs = [np.empty((restarts, d), dtype=complex) for d in op.dims]
    rng = np.random.default_rng(seed)
    for r in range(restarts):
        for v in vecs:
            x = rng.standard_normal(v.shape[1]) + 1j * rng.standard_normal(v.shape[1])
            v[r] = x / np.linalg.norm(x)
    return vecs


def product_overlap_serial(op, restarts: int = 64, seed: int = 0):
    """Alternating Lambda^2 ascent, one restart at a time, from the library's start vectors.

    Returns (values, sweeps, witnesses), one entry per restart; a restart
    stops once its sweep gains at most ``ASCENT_TOL * max(1, |value|)``, or
    after ``ASCENT_MAX_SWEEPS`` sweeps, the library's own constants.
    """
    dims, n = op.dims, len(op.dims)
    tensor = op.entries.reshape(dims + dims)
    subs = _local_matrix_subscripts(n)
    starts = _initial_vectors(as_xi(op), restarts, seed)
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


def _simplex_evaluate(f, w: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(f(w), r, stationarity gap max_j r_j - 1 over the support of w) from a 1-row objective call."""
    values, grads = f(w[None, :])
    r = np.maximum(-math.log(2.0) * grads[0], 0.0)
    live = w > 0
    gap = float(np.max(r[live])) - 1.0 if np.any(live) else math.inf
    return float(values[0]), r, gap


def _simplex_fixed_point(f, w0: np.ndarray, theta0: float) -> tuple[float, np.ndarray, int, str]:
    """One run of w <- normalize(w r^theta) from ``w0``: (value, w, steps, stop reason)."""
    w = np.maximum(np.asarray(w0, dtype=float), 0.0)
    w = w / w.sum()
    fw, r, gap = _simplex_evaluate(f, w)
    if not math.isfinite(fw):
        w = np.full_like(w, 1.0 / w.size)
        fw, r, gap = _simplex_evaluate(f, w)
        if not math.isfinite(fw):
            return fw, w, 0, "no-descent"
    for it in range(minimizers.MAX_ITERS):
        if gap <= STATIONARY_TOL:
            return fw, w, it, "stationary"
        theta = theta0
        noise = NOISE_REL * max(1.0, abs(fw))
        while True:
            step = w * r**theta
            step /= step.sum()
            fs, rs, gs = _simplex_evaluate(f, step)
            if fs <= fw or (fs <= fw + noise and gs < gap):
                break
            theta /= 2.0
            if theta < minimizers._MIN_THETA:
                return fw, w, it, "no-descent"
        w, fw, r, gap = step, fs, rs, gs
    return fw, w, minimizers.MAX_ITERS, "stationary" if gap <= STATIONARY_TOL else "max-iters"


def simplex_serial(problem, opts=None, warm=None) -> minimizers.SimplexSolution:
    """The multi-start fixed-point solve with its starts run one after another, 1-row calls only.

    Same starts, acceptance test, theta schedule, stopping tests and tie rule
    as :func:`minimizers.minimize_simplex`, read from the library's constants.
    """
    opts = opts or minimizers.SolverOptions()
    d = problem.dimension
    rng = np.random.default_rng(opts.seed)
    starts = []
    if warm is not None:
        starts.append(np.asarray(warm, dtype=float))
    while len(starts) < opts.starts:
        starts.append(rng.dirichlet(np.ones(d)))
    best = (math.inf, np.full(d, 1.0 / d), "no-descent")
    values, steps, reasons = [], [], []
    for s0 in starts:
        val, s, it, reason = _simplex_fixed_point(problem.objective, s0, problem.theta)
        values.append(val)
        steps.append(it)
        reasons.append(reason)
        if val < best[0]:
            best = (val, s, reason)
    return minimizers.SimplexSolution(best[0], best[1], tuple(values), tuple(steps), best[2], tuple(reasons))


def tiled_objective(rho_matrix: np.ndarray, p: AlphaZ, reps: int):
    """D_{alpha,z}(rho || diag(s tiled ``reps`` times)) and its gradient in s, for rows s.

    The library's one objective on the tiled rows; the gradient of a tiled
    weight is the sum over its blocks.
    """
    f = minimizers._diag_objective(rho_matrix, p)

    def tiled(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, grads = f(np.tile(S, (1, reps)))
        return values, grads.reshape(grads.shape[0], reps, -1).sum(axis=1)

    return tiled


def minimize_conditional_mc(rho: DensityMatrix, p: AlphaZ, opts=None) -> minimizers.SimplexSolution:
    """min_s D_{alpha,z}(rho || I_A (x) diag(s)) for a maximally correlated rho.

    Evaluated on the full (d^2)-dimensional operators, deliberately not
    through the compressed route of ``minimize_mc``, so comparing the two is a
    genuine two-route check of the conditional-entropy identity. Warm-started
    at rho's mass per B index; the solve goes through the module attribute
    ``minimizers.minimize_simplex``.
    """
    _free_indices(rho, "mc-diagonal")  # the certificate's maximal-correlation check
    _require_dpi(p)
    d = rho.dims[0]
    warm = np.maximum(np.real(np.diag(rho.entries)).reshape(d, d).sum(axis=0), 0.0)
    problem = minimizers.SimplexProblem(tiled_objective(rho.entries, p, d), d, min(1.0, 1.0 / p.alpha))
    run = minimizers.minimize_simplex(problem, opts, warm / warm.sum())
    return run._replace(sigma=density(np.diag(run.weights), (d,)))


def conditional_entropy_mc(rho: DensityMatrix, p: AlphaZ, opts=None) -> float:
    """H_up(A|B) = -min_{sigma_B} D_{alpha,z}(rho || I_A (x) sigma_B) for MC rho."""
    return -minimize_conditional_mc(rho, p, opts).value


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


def matrix_power(op, p: float) -> HermitianOperator:
    """Generalized matrix power of a psd operator.

    Eigenvalues at or below ``SUPPORT_CUT * lambda_max`` map to zero for any
    exponent; the rest map to ``lam ** p``. ``p == 0`` gives the support
    projector, and an all-zero input returns the zero operator.
    """
    return wrap(_power(op, p), op.dims)


def support_projector(op):
    """Projector onto the eigenvectors with eigenvalue above the support cut."""
    return matrix_power(op, 0.0)


def support_rank(op) -> int:
    return int(np.count_nonzero(_support_mask(eig_hermitian(op).eigenvalues)))


def _permute_rows(v: np.ndarray, dims: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """Rows of ``v``, indexed by the tensor factors ``dims``, with factor ``perm[j]`` moved to j."""
    return v.reshape(dims + (-1,)).transpose(perm + (len(dims),)).reshape(v.shape)


def permute_factors(op, perm) -> HermitianOperator:
    """Physically reorder tensor factors so factor ``perm[j]`` becomes factor ``j``; a state stays a state.

    The eigenvectors' rows move like the entries, so the spectrum stays known.
    """
    dims, n = op.dims, len(op.dims)
    perm = tuple(int(j) for j in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}, got {perm}")
    axes = perm + tuple(p + n for p in perm)
    dec = eig_hermitian(op)
    spectrum = (dec.eigenvalues, _permute_rows(dec.vectors, dims, perm))
    return type(op)(
        lambda _: op.entries.reshape(dims + dims).transpose(axes).reshape(op.dim, op.dim),
        tuple(dims[p] for p in perm),
        spectrum,
    )


def qubit_top_eigenvalue(m: np.ndarray) -> np.ndarray:
    """Top eigenvalue (a + c)/2 + hypot((a - c)/2, |b|) of each Hermitian [[a, b], [b*, c]] in a (..., 2, 2) batch."""
    a, c = m[..., 0, 0].real, m[..., 1, 1].real
    return (a + c) / 2 + np.hypot((a - c) / 2, np.abs(m[..., 1, 0]))


def product_overlap_grid(
    op, steps: int = 400, refine_levels: int = 2
) -> OverlapResult:
    """Exhaustive Bloch-angle grid for Lambda^2 on small bipartite operators.

    The first party must be a qubit: its pure states are gridded over the
    Bloch angles (theta step pi/steps, phi step pi/steps), while the second
    party is solved exactly as the top eigenvector of the contracted local
    matrix (a qubit second party by :func:`qubit_top_eigenvalue`).
    ``refine_levels`` nested zooms around the coarse argmax polish the local
    estimate; the whole search never touches the alternating path.
    Intended as an independent oracle for total dimension <= 16.
    """
    dims = op.dims
    if len(dims) != 2 or dims[0] != 2:
        raise ValueError("grid fallback needs a bipartition with a qubit first party")
    if op.dim > 16:
        raise ValueError("grid fallback is limited to total dimension <= 16")
    tensor = op.entries.reshape(dims + dims)
    # rows (a, c), columns (b, d): local[g] = sum_ac conj(v_ga) v_gc tensor[a, b, c, d], one matrix product
    by_pair = tensor.transpose(0, 2, 1, 3).reshape(4, -1)

    def scan(thetas: np.ndarray, phis: np.ndarray) -> tuple[float, float, float]:
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        tt, pp = tt.ravel(), pp.ravel()
        vgrid = np.stack([np.cos(tt / 2), np.sin(tt / 2) * np.exp(1j * pp)], axis=1)
        best_val, best_t, best_p = -math.inf, 0.0, 0.0
        chunk = 65536
        for lo in range(0, vgrid.shape[0], chunk):
            vs = vgrid[lo : lo + chunk]
            outer = (vs.conj()[:, :, None] * vs[:, None, :]).reshape(-1, 4)
            local = (outer @ by_pair).reshape(-1, dims[1], dims[1])
            # each reads one triangle: no Hermitian part needed
            vals = qubit_top_eigenvalue(local) if dims[1] == 2 else np.linalg.eigvalsh(local)[:, -1]
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


def _decode(x):
    """Undo report_to_dict's encoding of one value: a list back to a tuple, "inf"/"-inf"/"nan" back to floats."""
    if isinstance(x, list):
        return tuple(_decode(v) for v in x)
    return float(x) if x in ("inf", "-inf", "nan") else x


def report_from_dict(payload: dict) -> CertificateReport:
    """The report of a :func:`report_to_dict` payload, field by field of CertificateReport."""
    values = {f.name: _decode(payload[f.name]) for f in fields(CertificateReport)}
    values["witness"] = tuple(
        np.asarray(v["re"], dtype=float) + 1j * np.asarray(v["im"], dtype=float) for v in payload["witness"]
    )
    return CertificateReport(**values)


def report_to_json(report: CertificateReport) -> str:
    return json.dumps(report_to_dict(report))


def report_from_json(text: str) -> CertificateReport:
    return report_from_dict(json.loads(text))


def _chi_diagonal(rho: DensityMatrix, tau, alpha: float, z: float) -> np.ndarray:
    """<i| chi |i> for every basis state i, from the dense sandwich a C^(z-1) a by generalized powers.

    C = a tau^((1-alpha)/z) a and a = rho^(alpha/2z); no eigenvector factor of C is formed,
    and z may be negative (the lower boundary line's chi_{alpha,1-alpha}).
    """
    a = _power(rho, alpha / (2.0 * z))
    core = wrap(hermitian_part(a @ _power(tau, (1.0 - alpha) / z) @ a), rho.dims)
    return np.real(np.diag(a @ _power(core, z - 1.0) @ a))


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
        scores = _chi_diagonal(rho, tau, p.alpha, 1.0 - p.alpha)[idx]
    else:
        diag_chi = _chi_diagonal(rho, tau, p.alpha, p.z)[idx]
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


def wrap(matrix: np.ndarray, dims) -> HermitianOperator:
    """Symmetrize a numerically-Hermitian matrix and wrap it."""
    return HermitianOperator(hermitian_part(np.asarray(matrix, dtype=complex)), dims)


def as_xi(op) -> XiEvaluation:
    """A dense operator as the XiEvaluation the Lambda^2 search takes (its dense route)."""
    return XiEvaluation("dense", op.dims, dense=op.entries)


def dense_array(a):
    """A column-sparse array scattered into zeros here (not by its ``toarray``); a dense one as it is."""
    if not isinstance(a, ColumnSparse):
        return a
    out = np.zeros(a.shape, dtype=a.vals.dtype)
    out[a.rows, a.cols] = a.vals
    return out


def factor_matrix(ev: XiEvaluation) -> np.ndarray | None:
    """A product route's factor F as a dense n x r array (None on the divided-difference route)."""
    return dense_array(ev.factor)


def xi_matrix(ev: XiEvaluation) -> HermitianOperator:
    """Xi as a dense operator: ``ev.dense`` wrapped, or F F† formed from a product route's factor F."""
    f = factor_matrix(ev)
    return wrap(ev.dense if f is None else f @ f.conj().T, ev.dims)


def dense_dft_basis(dim: int, groups) -> np.ndarray:
    """A catalog eigenbasis as a dense n x n array, built entry by entry group by group.

    Orthonormal columns of C^dim, group by group, then e_i for each index in no group: a group g of n
    indices gives n^(-1/2) sum_j w^(kj) e_(g_j), k = 0..n-1, w = exp(2 pi i / n); real when no group
    has more than two members.
    """
    groups = [*groups, *([i] for i in sorted(set(range(dim)).difference(*groups)))]
    real = max(map(len, groups)) <= 2
    v = np.zeros((dim, dim), dtype=float if real else complex)
    col = 0
    for g in groups:
        k = np.arange(len(g))
        dft = np.exp(2j * math.pi * np.outer(k, k) / len(g)) / math.sqrt(len(g))
        v[g, col : col + len(g)] = dft.real if real else dft
        col += len(g)
    return v


def reference_basis(family) -> np.ndarray:
    """The eigenbasis of build(family) by the dense construction: :func:`dense_dft_basis` on the family's
    index groups; for an AntisymPair, np.kron of the Werner(0, d) basis with itself, rows permuted into
    the merged order (a1, b1, a2, b2)."""
    if isinstance(family, AntisymPair):
        v, d = reference_basis(Werner(0.0, family.d)), family.d
        return _permute_rows(np.kron(v, v), (d, d, d, d), (0, 2, 1, 3))
    d, parties = _party_shape(family)
    return dense_dft_basis(d**parties, [list(g) for block in _basis_groups(family) for g in block])


def entry_plan_reference(gram, dims: tuple[int, ...], k: int) -> tuple:
    """Party k's entry plan with no budget, each row's party indices read by ``np.unravel_index`` and the
    others' flat index by ``np.ravel_multi_index``: the entries (i, i') with a_i >= a_i', grouped by target
    a_i d_k + a_i' in (i, i') order, the groups largest first, laid out level by level; the level widths,
    the targets, and a (d_k, d_k) block's strict lower triangle and its mirror as flat places."""
    i, i2, x = gram
    di, dj = np.unravel_index(i, dims), np.unravel_index(i2, dims)
    low = di[k] >= dj[k]
    oi, oj = (np.ravel_multi_index(d[:k] + d[k + 1 :], dims[:k] + dims[k + 1 :])[low] for d in (di, dj))
    targets, group, sizes = np.unique((di[k] * dims[k] + dj[k])[low], return_inverse=True, return_counts=True)
    by_size = np.argsort(-sizes, kind="stable")
    rank = np.argsort(by_size)
    order = np.argsort(group, kind="stable")
    level = np.empty_like(order)
    level[order] = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    entry = np.argsort(level * sizes.size + rank[group])
    d = dims[k]
    a, b = np.tril_indices(d, -1)
    return oi[entry], oj[entry], x[low][entry].astype(complex)[:, None], np.bincount(level).tolist(), targets[by_size], a * d + b, b * d + a


def witness_overlap(rho, tau, p: AlphaZ, witness) -> float:
    """<w| Xi |w> for a product witness w = w_1 (x) ... (x) w_N, recomputed without the library's contractions.

    On a shared basis V this is ||F† w||^2 with F = V[:, keep] sqrt((r/t)^alpha), V formed densely from
    the basis's nonzeros here and keep both supports; otherwise ||F† w||^2 for a dense product-route
    factor, or w† Xi w for the divided-difference route.
    """
    w = np.ones(1, dtype=complex)
    for v in witness:
        w = np.kron(w, v)
    joint = _joint_spectrum(rho, tau)
    if joint is not None:
        r, t, basis = joint
        keep = (r > SUPPORT_CUT * r.max()) & (t > SUPPORT_CUT * t.max())
        f = dense_array(basis)[:, keep] * np.sqrt((r[keep] / t[keep]) ** p.alpha)
    else:
        ev = xi(rho, tau, p)
        if ev.factor is None:
            return float((w.conj() @ ev.dense @ w).real)
        f = ev.factor
    g = f.conj().T @ w
    return float((g.conj() @ g).real)


def chi(rho: DensityMatrix, tau, p: AlphaZ) -> HermitianOperator:
    """The sandwich operator rho^(a/2z) (rho^(a/2z) tau^((1-a)/z) rho^(a/2z))^(z-1) rho^(a/2z).

    All powers are generalized inverses. alpha = 1 is rejected; that limit is
    handled inside ``xi``.
    """
    if p.on_umegaki_line:
        raise ValueError("chi is not defined at alpha = 1; xi handles that limit")
    f = _chi_factor(rho, tau, p.alpha, p.z)[0]
    return wrap(f @ f.conj().T, rho.dims)


def q_alpha_z(rho: DensityMatrix, sigma, p: AlphaZ) -> float:
    """The trace functional Q = Tr(rho^(a/2z) sigma^((1-a)/z) rho^(a/2z))^z.

    Negative powers are generalized inverses. Returns 0 when alpha < 1 and the
    states are orthogonal, and ``inf`` (Q undefined through exp((a-1)D) with
    D = inf) when alpha > 1 and supp(rho) is not contained in supp(sigma).
    Raises for alpha = 1; use ``d_umegaki``.
    """
    if p.on_umegaki_line:
        raise ValueError("Q_{alpha,z} is not defined on alpha = 1; use d_umegaki")
    return _q_from_log2(_log2_q(rho, sigma, p))


def partial_trace(op, keep) -> HermitianOperator:
    """Trace out all factors not in ``keep``; ``dims`` restricts to ``keep``."""
    n = len(op.dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must be a non-empty set of factor indices")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices must lie in 0..{n - 1}, got {keep}")
    dims = op.dims
    t = op.entries.reshape(dims + dims)
    remaining = n
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + remaining)
        remaining -= 1
    kept_dims = tuple(dims[k] for k in keep)
    d = math.prod(kept_dims)
    return HermitianOperator(t.reshape(d, d), kept_dims)


def lambda_sq_closed_form(family) -> float:
    """Maximum product-state overlap of the family state, where known.

    Validity ranges: the Werner formula needs p <= (d+1)/(2d) and the
    isotropic one F >= 1/d^2; outside those the formula is not claimed and a
    ValueError is raised.
    """
    if isinstance(family, BellDiagonal):
        lam = sorted(family.lambdas, reverse=True)
        return (lam[0] + lam[1]) / 2.0
    if isinstance(family, Werner):
        p, d = family.p, family.d
        if p > (d + 1.0) / (2.0 * d) + PROB_ATOL:
            raise ValueError(f"Werner Lambda^2 formula needs p <= (d+1)/(2d), got p = {p}")
        return p / (d * (d + 1.0)) + (1.0 - p) / (d * (d - 1.0))
    if isinstance(family, Isotropic):
        F, d = family.F, family.d
        if F < 1.0 / d**2 - PROB_ATOL:
            raise ValueError(f"isotropic Lambda^2 formula needs F >= 1/d^2, got F = {F}")
        return (F * d + 1.0) / (d * (d + 1.0))
    if isinstance(family, Dicke):
        return math.exp(_log_type_probability(family.k, family.k))
    if isinstance(family, MCBD):
        return 1.0 / family.d
    if isinstance(family, AntisymPair):
        d = family.d
        return (d - 1.0) / (2.0 * d) * (2.0 / (d * (d - 1.0))) ** 2
    # for pure states the product-basis state |l...l> at the largest Schmidt
    # weight attains it
    if isinstance(family, GHZ):
        return 1.0 / family.d
    if isinstance(family, PureBipartite):
        return float(max(family.p))
    raise TypeError(f"no closed-form Lambda^2 for {family!r}")
