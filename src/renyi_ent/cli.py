"""Command-line surface: divergence evaluation, optimizer certification,
Table-1 reproduction, and additivity / counterexample experiments.

All commands are deterministic given their flags (seeds are explicit) and
print machine-readable JSON or write CSV. Nonzero exit codes occur exactly
when input is malformed or a stated tolerance fails.
"""

from __future__ import annotations

import argparse
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
    ansatz_optimizer,
    build,
    closed_form_value,
    family_label,
    parse_family,
)
from .certificates import _encode_float, certify_optimizer, report_to_dict
from .divergences import AlphaZ, d_alpha_z, q_alpha_z
from .linalg import (
    DensityMatrix,
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

TABLE1_TOL = 1e-6


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.12g}"
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _load_state(descriptor: str) -> DensityMatrix:
    """A state argument is either a matrix-file path or a family descriptor."""
    if ":" in descriptor and not descriptor.lower().endswith(".json"):
        return build(parse_family(descriptor))
    return load_density_json(descriptor)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    p = AlphaZ(args.alpha, args.z)
    rho = load_density_json(args.rho)
    sigma = load_operator_json(args.sigma)
    require_psd(eig_hermitian(sigma).eigenvalues)
    d = d_alpha_z(rho, sigma, p)
    q = 1.0 if p.on_umegaki_line else q_alpha_z(rho, sigma, p)
    if not p.in_dpi_region:
        print(
            f"warning: (alpha, z) = ({p.alpha}, {p.z}) is outside the DPI region",
            file=sys.stderr,
        )
    _print_json({"d": _encode_float(d), "q": _encode_float(q), "dpi": p.in_dpi_region})
    return 0


def cmd_value(args) -> int:
    p = AlphaZ(args.alpha, args.z)
    family = parse_family(args.family)
    value = closed_form_value(family, p)
    _print_json({"family": family_label(family), "alpha": p.alpha, "z": p.z, "value": value})
    return 0


def cmd_certify(args) -> int:
    p = AlphaZ(args.alpha, args.z)
    rho = _load_state(args.rho)
    if args.tau == "ansatz":
        if ":" not in args.rho:
            raise ValueError("tau = 'ansatz' needs rho given as a family descriptor")
        tau = ansatz_optimizer(parse_family(args.rho), p)
    else:
        tau = load_density_json(args.tau)
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
    try:
        return [AlphaZ(float(a), float(z)) for a, z in points]
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ValueError(f"grid value out of range: {exc}") from exc


def cmd_table1(args) -> int:
    grid = [p for p in _grid_from_arg(args.grid) if p.in_dpi_region]
    rows = []
    failures = []
    for family in DEFAULT_TABLE1_FAMILIES:
        rho = build(family)
        label = family_label(family)
        for p in grid:
            start = time.perf_counter()
            tau = ansatz_optimizer(family, p)
            report = certify_optimizer(
                rho, tau, p, restarts=args.restarts, seed=args.seed
            )
            wall_ms = int(round(1000 * (time.perf_counter() - start)))
            closed = closed_form_value(family, p)
            certified = report.value if report.value is not None else math.nan
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
        _write_csv(
            args.out,
            ["family", "alpha", "z", "closed_form", "certified_value", "margin"],
            rows,
        )
    if failures:
        print(f"{len(failures)} row(s) failed the 1e-6 reproduction check:", file=sys.stderr)
        for item in failures:
            print(f"  {item}", file=sys.stderr)
        return 1
    return 0


CERTIFY_DIM_CAP = 2000  # total matrix dimension; the pair state is d^4-dimensional


def cmd_counterexample(args) -> int:
    p = AlphaZ(args.alpha, args.z)
    d = args.d
    pair_family = AntisymPair(d)
    closed_pair = closed_form_value(pair_family, p)
    start = time.perf_counter()
    certifiable = d**4 <= CERTIFY_DIM_CAP
    if certifiable:
        single = build(Werner(0.0, d))
        tau_single = ansatz_optimizer(Werner(0.0, d), p)
        report_single = certify_optimizer(single, tau_single, p, restarts=args.restarts, seed=args.seed)
        pair = build(pair_family)
        tau_pair = ansatz_optimizer(pair_family, p)
        report_pair = certify_optimizer(pair, tau_pair, p, restarts=args.restarts, seed=args.seed)
        value_single, verdict_single = report_single.value, report_single.verdict
        value_pair, verdict_pair = report_pair.value, report_pair.verdict
    else:
        # beyond the supported dense dimension: report the closed forms only
        value_single, value_pair = 1.0, closed_pair
        verdict_single = verdict_pair = "skipped-dimension-cap"
    wall_ms = int(round(1000 * (time.perf_counter() - start)))
    both = value_pair is not None and value_single is not None

    payload = {
        "d": d,
        "alpha": p.alpha,
        "z": p.z,
        "single": _encode_float(value_single),
        "pair": _encode_float(value_pair),
        "single_verdict": verdict_single,
        "pair_verdict": verdict_pair,
        "closed_single": 1.0,
        "closed_pair": closed_pair,
        # 'gap' is the extra cost of the second copy; additivity would make it
        # equal to 'single', so 'additivity_defect' is what vanishes at d = 2
        "gap": _encode_float(value_pair - value_single if both else None),
        "additivity_defect": _encode_float(value_pair - 2.0 * value_single if both else None),
        "wall_ms": wall_ms,
    }
    _print_json(payload)
    if certifiable and (verdict_single != "certified-optimal" or verdict_pair != "certified-optimal"):
        print("counterexample ansatz failed certification", file=sys.stderr)
        return 1
    return 0


def _marginal_with_ansatz(descriptor: str, p: AlphaZ, args) -> tuple[str, DensityMatrix, DensityMatrix, float, str]:
    """Resolve a marginal: returns (label, rho, tau, value, verdict)."""
    if descriptor.startswith("random:"):
        seed = int(descriptor.split(":", 1)[1])
        d = args.other_dim
        if d < 1:
            raise ValueError(f"--other-dim must be >= 1, got {d}")
        coeff = random_density(d, d, seed).entries
        family = MaximallyCorrelated(tuple(tuple(x for x in row) for row in coeff))
        rho = build(family)
        solution = minimize_mc(rho, p, SolverOptions(starts=args.starts, seed=args.seed))
        verdict = solution.certificate.verdict if solution.certificate else "inconclusive"
        return (descriptor, rho, solution.sigma, solution.value, verdict)
    family = parse_family(descriptor)
    rho = build(family)
    tau = ansatz_optimizer(family, p)
    report = certify_optimizer(rho, tau, p, restarts=args.restarts, seed=args.seed)
    value = report.value if report.value is not None else math.nan
    return (family_label(family), rho, tau, value, report.verdict)


def cmd_additivity(args) -> int:
    p = AlphaZ(args.alpha, args.z)
    label1, rho1, tau1, v1, verdict1 = _marginal_with_ansatz(args.family, p, args)
    label2, rho2, tau2, v2, verdict2 = _marginal_with_ansatz(args.other, p, args)

    start = time.perf_counter()
    joint = DensityMatrix(tensor_product_merged(rho1, rho2))
    antisym_route = (
        args.family == args.other
        and not args.other.startswith("random:")
        and isinstance(parse_family(args.family), Werner)
        and parse_family(args.family).p == 0.0
    )
    if antisym_route:
        d = parse_family(args.family).d
        tau_joint = ansatz_optimizer(AntisymPair(d), p)
    else:
        tau_joint = DensityMatrix(tensor_product_merged(tau1, tau2))
    report_joint = certify_optimizer(joint, tau_joint, p, restarts=args.restarts, seed=args.seed)
    wall_ms = int(round(1000 * (time.perf_counter() - start)))

    joint_value = report_joint.value
    defect = None if joint_value is None else joint_value - (v1 + v2)
    payload = {
        "alpha": p.alpha,
        "z": p.z,
        "marginal_1": {"family": label1, "value": _encode_float(v1), "verdict": verdict1},
        "marginal_2": {"family": label2, "value": _encode_float(v2), "verdict": verdict2},
        "joint": {
            "value": _encode_float(joint_value),
            "verdict": report_joint.verdict,
            "ansatz": "antisym-pair" if antisym_route else "product-of-marginals",
            "margin": _encode_float(report_joint.margin),
        },
        "defect": _encode_float(defect),
        "wall_ms": wall_ms,
    }
    _print_json(payload)
    return 0


def _replace_param(family: StateFamily, name: str, value: float) -> StateFamily:
    if isinstance(family, Werner) and name == "p":
        return dataclasses.replace(family, p=value)
    if isinstance(family, Isotropic) and name == "F":
        return dataclasses.replace(family, F=value)
    raise ValueError(f"family {family_label(family)!r} has no sweepable parameter {name!r}")


def cmd_sweep(args) -> int:
    name, _, span = args.param.partition("=")
    try:
        lo_s, hi_s, steps_s = span.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError as exc:
        raise ValueError(f"malformed --param range {args.param!r}; expected name=lo:hi:steps") from exc
    if not math.isfinite(hi - lo) or steps < 1:
        raise ValueError(f"--param range {args.param!r} needs finite lo, hi and hi - lo, and steps >= 1")
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
        start = time.perf_counter()
        rho = build(fam_x)
        tau = ansatz_optimizer(fam_x, p)
        report = certify_optimizer(rho, tau, p, restarts=args.restarts, seed=args.seed)
        closed = closed_form_value(fam_x, p)
        certified = report.value if report.value is not None else math.nan
        wall_ms = int(round(1000 * (time.perf_counter() - start)))
        rows.append(
            [family_label(fam_x), name, float(x), p.alpha, p.z, closed, certified, report.margin, report.verdict, wall_ms]
        )
    header = ["family", "param", "param_value", "alpha", "z", "closed_form", "certified_value", "margin", "verdict", "wall_ms"]
    if args.out:
        _write_csv(args.out, header, rows)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(_fmt(x) for x in row))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_alpha_z(sub, alpha_default=1.0, z_default=1.0):
    sub.add_argument("--alpha", type=float, default=alpha_default)
    sub.add_argument("--z", type=float, default=z_default)


def _add_search_opts(sub):
    sub.add_argument("--restarts", type=int, default=64)
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
