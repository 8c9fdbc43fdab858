"""Command-line surface: divergence evaluation, optimizer certification,
Table-1 reproduction, and additivity / counterexample experiments.

All commands are deterministic given their flags (seeds are explicit), but for the timing fields (``wall_ms``,
``table1``'s ``(N ms)``, ``sweep``'s ``wall_ms`` column), and print machine-readable JSON, where an uncertified
value prints as null, or write CSV. Nonzero exit codes occur exactly when input is malformed or a stated tolerance fails.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
import time

import numpy as np

from .catalog import (
    AntisymPair,
    BellDiagonal,
    Dicke,
    GHZ,
    Isotropic,
    MaximallyCorrelated,
    MCBD,
    PureBipartite,
    StateFamily,
    Werner,
    _DESCRIPTORS,
    _party_shape,
    ansatz_optimizer,
    build,
    closed_form_value,
    family_label,
    parse_family,
)
from .certificates import CertificateReport, _encode_float, certify_optimizer, report_to_dict
from .divergences import AlphaZ, _d_and_q, _require_dpi
from .linalg import (
    TABLE1_TOL,
    DensityMatrix,
    HermitianOperator,
    _fmt,
    eig_hermitian,
    load_density_json,
    load_operator_json,
    random_density,
    require_psd,
    tensor_product_merged,
)
from .minimizers import SolverOptions, minimize_mc

DEFAULT_GRID: tuple[tuple[float, float], ...] = (
    (0.3, 0.8),
    (0.5, 0.5),
    (0.5, 1.0),
    (0.9, 0.9),
    (1.0, 1.0),
    (1.5, 1.0),
    (1.5, 1.5),
    (2.0, 2.0),
    (3.0, 2.5),
)

DEFAULT_TABLE1_FAMILIES: tuple[StateFamily, ...] = (
    BellDiagonal((0.75, 0.25, 0.0, 0.0)),
    Werner(0.2, 3),
    Isotropic(0.8, 3),
    Dicke(3, (2, 1)),
    MCBD((0.5, 0.3, 0.2)),
    PureBipartite((0.9, 0.1)),
    GHZ(3, 3),
)

CERTIFY_DIM_CAP = 2000  # total matrix dimension of any state the CLI builds; the pair state is d^4-dimensional
COUNT_CAP = 10_000  # bound on --restarts, --starts and sweep steps, each checked before anything is allocated


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Write the CSV to ``path`` with csv's \\r\\n line ends, or to stdout with \\n when ``path`` is empty."""
    with open(path, "w", newline="", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh, lineterminator="\r\n" if path else "\n")
        writer.writerow(header)
        writer.writerows([_fmt(x) for x in row] for row in rows)


def _capped_dim(label: str, local: int, parties: int) -> int:
    """local^parties, the dimension of a state about to be built; a ValueError above CERTIFY_DIM_CAP.

    Past cap.bit_length() parties of dimension >= 2 the cap is exceeded and the exponent is clipped
    there; more parties are refused even of one level, so no huge power or party tuple is formed.
    """
    dim = local ** min(parties, CERTIFY_DIM_CAP.bit_length())
    if dim > CERTIFY_DIM_CAP:
        raise ValueError(f"{label} is {local}^{parties}-dimensional, above the dense cap of {CERTIFY_DIM_CAP}")
    if parties > CERTIFY_DIM_CAP.bit_length():
        raise ValueError(f"{label} has {parties} parties, above the party cap of {CERTIFY_DIM_CAP.bit_length()}")
    return dim


def _build(family: StateFamily) -> DensityMatrix:
    """The family's state, its size checked against CERTIFY_DIM_CAP before anything is allocated."""
    _capped_dim(family_label(family), *_party_shape(family))
    return build(family)


def _load_state(arg: str) -> tuple[StateFamily | None, DensityMatrix]:
    """A state argument: a family descriptor (it holds ':' and does not end in .json) or a matrix file.

    Returns (family, state); the family is None for a matrix file.
    """
    if ":" in arg and not arg.lower().endswith(".json"):
        family = parse_family(arg)
        return family, _build(family)
    return None, _load_psd(arg, state=True)


def _certify_ansatz(
    family: StateFamily, p: AlphaZ, args
) -> tuple[DensityMatrix, DensityMatrix, CertificateReport, int]:
    """Build the family and certify its ansatz with --restarts/--seed: (rho, tau, report, wall_ms)."""
    start = time.perf_counter()
    rho = _build(family)
    tau = ansatz_optimizer(family, p)
    report = certify_optimizer(rho, tau, p, restarts=args.restarts, seed=args.seed)
    return rho, tau, report, int(round(1000 * (time.perf_counter() - start)))


def _value_or_nan(report: CertificateReport) -> float:
    """The certified value, nan when the report carries none."""
    return math.nan if report.value is None else report.value


def _print_json(payload: dict) -> None:
    """Print the payload through the one JSON encoder, :func:`certificates._encode_float`."""
    print(json.dumps(_encode_float(payload), indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _load_psd(path: str, state: bool) -> HermitianOperator:
    """A psd matrix file (a unit-trace state if ``state``); a ValueError names the file."""
    try:
        if state:
            return load_density_json(path)
        op = load_operator_json(path)
        require_psd(eig_hermitian(op).eigenvalues)
        return op
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_eval(args) -> int:
    p = AlphaZ(args.alpha, args.z)
    rho = _load_psd(args.rho, state=True)
    sigma = _load_psd(args.sigma, state=False)
    d, q = _d_and_q(rho, sigma, p)
    if not p.in_dpi_region:
        print(
            f"warning: (alpha, z) = ({p.alpha}, {p.z}) is outside the DPI region",
            file=sys.stderr,
        )
    _print_json({"d": d, "q": q, "dpi": p.in_dpi_region})
    return 0


def cmd_value(args) -> int:
    p = AlphaZ(args.alpha, args.z)
    family = parse_family(args.family)
    value = closed_form_value(family, p)
    _print_json({"family": family_label(family), "alpha": p.alpha, "z": p.z, "value": value})
    return 0


def cmd_certify(args) -> int:
    p = AlphaZ(args.alpha, args.z)
    family, rho = _load_state(args.rho)
    if args.tau != "ansatz":
        tau = _load_psd(args.tau, state=True)
    elif family is None:
        raise ValueError("tau = 'ansatz' needs rho given as a family descriptor")
    else:
        tau = ansatz_optimizer(family, p)
    report = certify_optimizer(rho, tau, p, free_set=args.free, restarts=args.restarts, seed=args.seed)
    _print_json(report_to_dict(report))
    return 0


def _grid_from_arg(grid_arg: str) -> list[AlphaZ]:
    if grid_arg == "default":
        return [AlphaZ(a, z) for a, z in DEFAULT_GRID]
    with open(grid_arg, "r", encoding="utf-8") as fh:
        points = json.load(fh)
    if not isinstance(points, list) or not all(
        isinstance(pt, list) and len(pt) == 2 and all(type(x) in (int, float) for x in pt)
        for pt in points
    ):
        raise ValueError("grid file must hold a JSON list of [alpha, z] number pairs")
    if not points:  # else table1 checks nothing and exits 0
        raise ValueError(f"grid file {grid_arg} holds no [alpha, z] pair")
    return [AlphaZ(float(a), float(z)) for a, z in points]


def cmd_table1(args) -> int:
    grid = _grid_from_arg(args.grid)
    for p in grid:  # the whole grid is refused, naming its first point outside the region
        _require_dpi(p)
    rows = []
    failures = []
    for family in DEFAULT_TABLE1_FAMILIES:
        label = family_label(family)
        for p in grid:
            _, _, report, wall_ms = _certify_ansatz(family, p, args)
            closed = closed_form_value(family, p)
            certified = _value_or_nan(report)
            rows.append([label, p.alpha, p.z, closed, certified, report.margin])
            ok = report.verdict == "certified-optimal" and abs(certified - closed) <= TABLE1_TOL
            status = "ok" if ok else "FAIL"
            print(
                f"{status} {label} alpha={_fmt(p.alpha)} z={_fmt(p.z)} "
                f"closed={_fmt(closed)} certified={_fmt(certified)} "
                f"margin={_fmt(report.margin)} ({wall_ms} ms)"
            )
            if not ok:
                failures.append((label, p.alpha, p.z, closed, certified, report.verdict))
    if args.out:
        _write_csv(args.out, ["family", "alpha", "z", "closed_form", "certified_value", "margin"], rows)
    if failures:
        print(f"{len(failures)} row(s) failed the 1e{math.log10(TABLE1_TOL):.0f} reproduction check:", file=sys.stderr)
        for item in failures:
            print(f"  {item}", file=sys.stderr)
        return 1
    return 0


def cmd_counterexample(args) -> int:
    p = AlphaZ(args.alpha, args.z)
    d = args.d
    closed_pair = closed_form_value(AntisymPair(d), p)
    certifiable = d**4 <= CERTIFY_DIM_CAP
    if certifiable:
        start, werner = time.perf_counter(), Werner(0.0, d)  # the additivity pair of werner:p=0,d=D with itself
        pair = _pair(*[(werner, family_label(werner), (d, d))] * 2, p, args)
        value_single, verdict_single = pair["marginal_1"]["value"], pair["marginal_1"]["verdict"]
        value_pair, verdict_pair = pair["joint"]["value"], pair["joint"]["verdict"]
        wall_ms = int(round(1000 * (time.perf_counter() - start)))
    else:
        # beyond the supported dense dimension: report the closed forms only
        value_single, value_pair = 1.0, closed_pair
        verdict_single = verdict_pair = "skipped-dimension-cap"
        wall_ms = 0
    both = value_pair is not None and value_single is not None

    payload = {
        "d": d,
        "alpha": p.alpha,
        "z": p.z,
        "single": value_single,
        "pair": value_pair,
        "single_verdict": verdict_single,
        "pair_verdict": verdict_pair,
        "closed_single": 1.0,
        "closed_pair": closed_pair,
        # 'gap' is the extra cost of the second copy; additivity would make it
        # equal to 'single', so 'additivity_defect' is what vanishes at d = 2
        "gap": value_pair - value_single if both else None,
        "additivity_defect": value_pair - 2.0 * value_single if both else None,
        "wall_ms": wall_ms,
    }
    _print_json(payload)
    if certifiable and (verdict_single != "certified-optimal" or verdict_pair != "certified-optimal"):
        print("counterexample ansatz failed certification", file=sys.stderr)
        return 1
    return 0


def _random_seed(descriptor: str) -> int:
    """The SEED of a random:SEED descriptor; a ValueError naming it unless SEED is a non-negative integer."""
    seed = descriptor.split(":", 1)[1]
    with contextlib.suppress(ValueError):  # int() refuses a run of digits beyond its length limit
        if seed.isascii() and seed.isdigit():
            return int(seed)
    raise ValueError(f"{descriptor!r}: random:SEED (the family or --other) needs a non-negative integer SEED")


def _marginal(descriptor: str, args) -> tuple[StateFamily | int, str, tuple[int, ...]]:
    """An additivity marginal's key (its parsed family, or the SEED of random:SEED, prefix in any case, so that two
    spellings of one state compare equal), label and party dimensions, checked against the cap before any build."""
    if descriptor[:7].lower() == "random:":
        key, label, shape = _random_seed(descriptor), descriptor, (args.other_dim, 2)
        if args.other_dim < 1:
            raise ValueError(f"--other-dim must be >= 1, got {args.other_dim}")
    else:
        key = parse_family(descriptor)
        label, shape = family_label(key), _party_shape(key)
    _capped_dim(label, *shape)
    return key, label, (shape[0],) * shape[1]


def _certified(key: StateFamily | int, p: AlphaZ, args) -> tuple[DensityMatrix, DensityMatrix, float | None, str]:
    """Build and certify a marginal from its key: (rho, tau, value, verdict), the value None when uncertified.
    A family certifies its ansatz; a SEED solves its random maximally correlated state with minimize_mc."""
    if isinstance(key, StateFamily):
        rho, tau, report, _ = _certify_ansatz(key, p, args)
        return rho, tau, report.value, report.verdict
    coeff = random_density(args.other_dim, args.other_dim, key).entries
    rho = build(MaximallyCorrelated(tuple(tuple(x for x in row) for row in coeff)))
    solution = minimize_mc(rho, p, SolverOptions(starts=args.starts, seed=args.seed))
    verdict = solution.certificate.verdict
    return rho, solution.sigma, solution.value if verdict == "certified-optimal" else None, verdict


def _pair(first: tuple, second: tuple, p: AlphaZ, args) -> dict:
    """The additivity payload of two :func:`_marginal` results: each certified (once if the keys are equal), then their
    merged product, against the antisym-pair ansatz for two p = 0 Werner states, else the marginal optimizers' product."""
    (key1, label1, dims1), (key2, label2, dims2) = first, second
    if len(dims1) != len(dims2):  # tensor_product_merged's message, before either marginal is built
        raise ValueError(f"party counts differ: {dims1} vs {dims2}; cannot merge parties")
    _capped_dim("the joint state", dims1[0] * dims2[0], len(dims1))
    rho1, tau1, v1, verdict1 = _certified(key1, p, args)
    rho2, tau2, v2, verdict2 = (rho1, tau1, v1, verdict1) if key1 == key2 else _certified(key2, p, args)
    start = time.perf_counter()
    joint = tensor_product_merged(rho1, rho2)
    antisym_route = key1 == key2 and isinstance(key1, Werner) and key1.p == 0.0
    tau_joint = ansatz_optimizer(AntisymPair(key1.d), p) if antisym_route else tensor_product_merged(tau1, tau2)
    report_joint = certify_optimizer(joint, tau_joint, p, restarts=args.restarts, seed=args.seed)
    wall_ms = int(round(1000 * (time.perf_counter() - start)))  # the joint's build and certification
    return {
        "alpha": p.alpha,
        "z": p.z,
        "marginal_1": {"family": label1, "value": v1, "verdict": verdict1},
        "marginal_2": {"family": label2, "value": v2, "verdict": verdict2},
        "joint": {
            "value": report_joint.value,
            "verdict": report_joint.verdict,
            "ansatz": "antisym-pair" if antisym_route else "product-of-marginals",
            "margin": report_joint.margin,
        },
        "defect": None if None in (report_joint.value, v1, v2) else report_joint.value - (v1 + v2),
        "wall_ms": wall_ms,
    }


def cmd_additivity(args) -> int:
    p = AlphaZ(args.alpha, args.z)
    _print_json(_pair(_marginal(args.family, args), _marginal(args.other, args), p, args))
    return 0


def _replace_param(family: StateFamily, name: str, value: float) -> StateFamily:
    """The family with its scalar float descriptor parameter ``name`` set to ``value``."""
    _, _, params = _DESCRIPTORS[type(family)]
    fields = {key: field for key, field, kind in params if kind is float}
    if name not in fields:
        raise ValueError(f"family {family_label(family)!r} has no sweepable parameter {name!r}")
    return dataclasses.replace(family, **{fields[name]: value})


def cmd_sweep(args) -> int:
    name, _, span = args.param.partition("=")
    try:
        lo_s, hi_s, steps_s = span.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError as exc:
        raise ValueError(f"malformed --param range {args.param!r}; expected name=lo:hi:steps") from exc
    if not math.isfinite(hi - lo) or not 1 <= steps <= COUNT_CAP:
        raise ValueError(f"--param range {args.param!r} needs finite lo, hi and hi - lo, and steps in 1..{COUNT_CAP}")
    family = parse_family(args.family)
    values = np.linspace(lo, hi, steps)
    rows = []
    for x in values:
        if name in ("alpha", "z"):
            p = AlphaZ(x if name == "alpha" else args.alpha, x if name == "z" else args.z)
            fam_x = family
        else:
            p = AlphaZ(args.alpha, args.z)
            fam_x = _replace_param(family, name, float(x))
        _, _, report, wall_ms = _certify_ansatz(fam_x, p, args)
        closed = closed_form_value(fam_x, p)
        certified = _value_or_nan(report)
        rows.append(
            [family_label(fam_x), name, float(x), p.alpha, p.z, closed, certified, report.margin, report.verdict, wall_ms]
        )
    header = ["family", "param", "param_value", "alpha", "z", "closed_form", "certified_value", "margin", "verdict", "wall_ms"]
    _write_csv(args.out, header, rows)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_alpha_z(sub):
    sub.add_argument("--alpha", type=float, default=1.0)
    sub.add_argument("--z", type=float, default=1.0)


def _add_search_opts(sub):
    sub.add_argument("--restarts", type=int, default=64)
    sub.add_argument("--seed", type=int, default=0)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ValueError, so :func:`main` prints them as one line, exit 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="renyi-ent",
        description="alpha-z Renyi relative entropies and entanglement-monotone certification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("eval", help="evaluate D and Q between two matrix files")
    s.add_argument("rho")
    s.add_argument("sigma")
    _add_alpha_z(s)
    s.set_defaults(func=cmd_eval)

    s = subs.add_parser("value", help="closed-form monotone value of a named family")
    s.add_argument("family")
    _add_alpha_z(s)
    s.set_defaults(func=cmd_value)

    s = subs.add_parser("certify", help="certify a candidate optimizer")
    s.add_argument("rho", help="matrix file or family descriptor")
    s.add_argument("tau", help="matrix file or the literal 'ansatz'")
    _add_alpha_z(s)
    s.add_argument("--free", choices=("sep", "incoherent"), default="sep")
    _add_search_opts(s)
    s.set_defaults(func=cmd_certify)

    s = subs.add_parser("table1", help="reproduce the closed-form table over the (alpha, z) grid")
    s.add_argument("--grid", default="default", help="'default' or a JSON file of [alpha, z] pairs")
    s.add_argument("--out", default="", help="CSV output path")
    _add_search_opts(s)
    s.set_defaults(func=cmd_table1)

    s = subs.add_parser("counterexample", help="antisymmetric-state non-additivity experiment")
    s.add_argument("--d", type=int, default=3)
    _add_alpha_z(s)
    _add_search_opts(s)
    s.set_defaults(func=cmd_counterexample)

    s = subs.add_parser("additivity", help="certify a product ansatz for a tensor pair")
    s.add_argument("family")
    s.add_argument("--other", required=True, help="family descriptor or random:SEED (random MC state)")
    s.add_argument("--other-dim", type=int, default=2, help="local dimension for random MC states")
    s.add_argument("--starts", type=int, default=8, help="solver starts for random MC marginals")
    _add_alpha_z(s)
    _add_search_opts(s)
    s.set_defaults(func=cmd_additivity)

    s = subs.add_parser("sweep", help="sweep a family parameter (or alpha/z) to CSV")
    s.add_argument("family")
    s.add_argument("--param", required=True, help="name=lo:hi:steps")
    _add_alpha_z(s)
    s.add_argument("--out", default="", help="CSV output path")
    _add_search_opts(s)
    s.set_defaults(func=cmd_sweep)

    return parser


def _check_counts(args) -> None:
    """Reject --restarts or --starts outside 1..COUNT_CAP and a negative --seed, naming the flag."""
    for name in ("restarts", "starts"):
        n = getattr(args, name, 1)
        if not 1 <= n <= COUNT_CAP:
            raise ValueError(f"--{name} must lie in 1..{COUNT_CAP}, got {n}")
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_counts(args)
        return args.func(args)
    except (ValueError, OverflowError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
