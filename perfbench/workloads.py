"""The three benchmark workloads: inputs from a seed, one pass, and its checker.

Every workload is a closed loop with one caller: the next pass starts only
after the previous one returned. ``make_inputs`` is what ``setup_s`` times in
a fresh interpreter; ``run_pass`` is what the pass timers cover; ``check``
compares the outputs with references computed outside the timed region.

A check has three outcomes per operation. An operation *fails* when it
raises, reports a failure (a nonzero CLI exit code, which the CLI gives for
every verdict that is not ``certified-optimal``) or returns a value that
disagrees with its reference; it is *wrong* in the last case, and a run is
``correct`` only if no operation was wrong. It is *certified* when every
verdict it returned is ``certified-optimal``. A library solve returns its
verdict as part of a normal result, so an uncertified solve that returned the
right value is not a failure: it lowers ``certified_frac`` instead.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import renyi_ent
from renyi_ent import cli

VALUE_TOL = 1e-6  # table1 rows and the counterexample values
DEFECT_TOL = 1e-5  # coherence additivity |v_joint - v1 - v2|
CERTIFIED = "certified-optimal"

TABLE1_FAMILIES = (
    "bell:lam=0.75|0.25|0|0",
    "werner:p=0.2,d=3",
    "isotropic:F=0.8,d=3",
    "dicke:N=3,k=2|1",
    "mcbd:p=0.5|0.3|0.2",
    "pure:p=0.9|0.1",
    "ghz:d=3,M=3",
)
TABLE1_GRID = (
    (0.3, 0.8), (0.5, 0.5), (0.5, 1.0), (0.9, 0.9), (1.0, 1.0),
    (1.5, 1.0), (1.5, 1.5), (2.0, 2.0), (3.0, 2.5),
)
ANTISYM_D, ANTISYM_ALPHA, ANTISYM_Z = 5, 2.0, 2.0
SIMPLEX_POINTS = ((0.7, 0.7), (1.0, 1.0), (2.0, 2.0))
SIMPLEX_MC_DIMS = (2, 3)
SIMPLEX_MIX = 0.15  # weight of I/d mixed into each Ginibre coherence state
SIMPLEX_POOL = 64  # input sets, one per (cycle, point); a 45 s run uses about 30


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    certified: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, value_ok: bool, note: str, certified: bool | None = None) -> None:
        """One operation; ``certified`` defaults to ``ok`` for the CLI workloads."""
        certified = ok if certified is None else certified
        self.attempted += 1
        self.certified += certified
        if not ok or not value_ok:
            self.failed += 1
        if not value_ok:
            self.wrong += 1
        if not ok or not value_ok or not certified:
            self.notes.append(note)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.certified += other.certified
        self.notes.extend(other.notes)


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass k, so each pass draws its own restarts from the run seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol


# ---------------------------------------------------------------------------
# table1: the CLI closed-form table
# ---------------------------------------------------------------------------

_ROW = re.compile(
    r"^(?:ok|FAIL) (\S+) alpha=(\S+) z=(\S+) closed=(\S+) certified=(\S+) margin=(\S+)"
)


def parse_table1(stdout: str) -> list[tuple[str, float, float, float]]:
    """(label, alpha, z, certified value) per printed row."""
    rows = []
    for line in stdout.splitlines():
        m = _ROW.match(line)
        if m:
            label, alpha, z, _closed, certified, _margin = m.groups()
            rows.append((label, float(alpha), float(z), float(certified)))
    return rows


def check_table1(code: int, rows, references: dict) -> Outcome:
    """Every expected row once, certified, within VALUE_TOL of its closed form.

    A certified value is printed only for a ``certified-optimal`` verdict
    (otherwise it reads nan), so a finite value within tolerance covers both.
    """
    out = Outcome()
    seen = {}
    for label, alpha, z, certified in rows:
        seen.setdefault((label, alpha, z), []).append(certified)
    for key, closed in references.items():
        got = seen.pop(key, [])
        ok = len(got) == 1 and _close(got[0], closed, VALUE_TOL)
        out.record(ok, ok, f"table1 {key}: certified {got} vs closed {closed!r}")
    for key in seen:
        out.record(False, False, f"table1 unexpected row {key}")
    if code != 0 and out.failed == 0:
        out.record(False, False, f"table1 exit code {code} with every row correct")
    return out


@dataclass
class Table1Inputs:
    references: dict


def table1_inputs(seed: int) -> Table1Inputs:
    references = {}
    for text in TABLE1_FAMILIES:
        family = renyi_ent.parse_family(text)
        renyi_ent.build(family)
        for a, z in TABLE1_GRID:
            p = renyi_ent.AlphaZ(a, z)
            renyi_ent.ansatz_optimizer(family, p)
            references[(renyi_ent.family_label(family), a, z)] = renyi_ent.closed_form_value(family, p)
    return Table1Inputs(references)


def table1_pass(inputs: Table1Inputs, seed: int, k: int):
    return run_cli(["table1", "--restarts", "64", "--seed", str(pass_seed(seed, k))])


def table1_check(inputs: Table1Inputs, raw) -> Outcome:
    code, stdout = raw
    return check_table1(code, parse_table1(stdout), inputs.references)


# ---------------------------------------------------------------------------
# antisym-d5: the antisymmetric-Werner counterexample at d = 5
# ---------------------------------------------------------------------------


def check_antisym(code: int, payload: dict | None, closed_pair: float) -> Outcome:
    """``single`` must be 1 and ``pair`` the closed form, both certified."""
    out = Outcome()
    payload = payload or {}
    for key, ref in (("single", 1.0), ("pair", closed_pair)):
        value = payload.get(key)
        value_ok = isinstance(value, (int, float)) and _close(float(value), ref, VALUE_TOL)
        verdict = payload.get(f"{key}_verdict")
        ok = value_ok and verdict == CERTIFIED and code == 0
        out.record(ok, value_ok, f"antisym {key}: {value!r} ({verdict}) vs {ref!r}, exit {code}",
                   certified=verdict == CERTIFIED)
    return out


@dataclass
class AntisymInputs:
    closed_pair: float


def antisym_inputs(seed: int) -> AntisymInputs:
    p = renyi_ent.AlphaZ(ANTISYM_ALPHA, ANTISYM_Z)
    single = renyi_ent.Werner(0.0, ANTISYM_D)
    pair = renyi_ent.AntisymPair(ANTISYM_D)
    for family in (single, pair):
        renyi_ent.build(family)
        renyi_ent.ansatz_optimizer(family, p)
    return AntisymInputs(renyi_ent.closed_form_value(pair, p))


def antisym_pass(inputs: AntisymInputs, seed: int, k: int):
    return run_cli([
        "counterexample", "--d", str(ANTISYM_D), "--alpha", str(ANTISYM_ALPHA),
        "--z", str(ANTISYM_Z), "--seed", str(pass_seed(seed, k)),
    ])


def antisym_check(inputs: AntisymInputs, raw) -> Outcome:
    code, stdout = raw
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        payload = None
    return check_antisym(code, payload, inputs.closed_pair)


# ---------------------------------------------------------------------------
# simplex-solve: coherence and maximally-correlated simplex reductions
# ---------------------------------------------------------------------------


@dataclass
class SimplexSet:
    coherence: tuple  # (rho1, rho2, rho1 (x) rho2) as single-party states
    mc: tuple  # maximally correlated states, one per SIMPLEX_MC_DIMS entry
    references: tuple  # alpha = 1 values: coherence states, then mc states


def _entropy_bits(w: np.ndarray) -> float:
    w = w[w > 1e-300]
    return float(-np.sum(w * np.log2(w)))


def umegaki_reference(rho) -> float:
    """S(diag rho) - S(rho): the exact alpha = 1 value of both reductions.

    For the coherence problem this is the relative entropy of coherence; for a
    maximally correlated state rho = sum c_jk |jj><kk| the diagonal of rho
    carries diag(c) and the spectra agree, so it is also the T_rho optimum.
    """
    diag = np.clip(np.real(np.diag(rho.entries)), 0.0, None)
    return _entropy_bits(diag) - _entropy_bits(np.linalg.eigvalsh(rho.entries))


def simplex_set(seed: int, k: int) -> SimplexSet:
    rng = np.random.default_rng([seed, k])
    s1, s2, *mc_seeds = (int(x) for x in rng.integers(0, 2**31, size=2 + len(SIMPLEX_MC_DIMS)))

    def mixed(s):
        m = renyi_ent.random_density(3, 3, s).entries
        return renyi_ent.density((1 - SIMPLEX_MIX) * m + SIMPLEX_MIX * np.eye(3) / 3, (3,))

    r1, r2 = mixed(s1), mixed(s2)
    joint = renyi_ent.density(renyi_ent.tensor_product(r1, r2).entries, (9,))
    mc = []
    for d, s in zip(SIMPLEX_MC_DIMS, mc_seeds):
        coeff = renyi_ent.random_density(d, d, s).entries
        mc.append(renyi_ent.build(renyi_ent.MaximallyCorrelated(tuple(map(tuple, coeff)))))
    states = (r1, r2, joint, *mc)
    return SimplexSet((r1, r2, joint), tuple(mc), tuple(umegaki_reference(r) for r in states))


# One pass is one solver call. A cycle of 15 calls solves three fresh input
# sets, one per point, in this order within a point, so the joint solve can be
# checked against its marginals. A fresh set per point triples the states a run
# draws: a slow state is slow at every point, and run medians over few states
# spread widely. The traced pass covers one cycle.
SIMPLEX_ROLES = ("coherence", 0), ("coherence", 1), ("coherence", 2), *(("mc", i) for i in range(len(SIMPLEX_MC_DIMS)))
SIMPLEX_CYCLE = len(SIMPLEX_POINTS) * len(SIMPLEX_ROLES)


@dataclass
class SimplexInputs:
    sets: list[SimplexSet]
    marginals: list = field(default_factory=list)  # v1, v2 of the current point


def simplex_inputs(seed: int) -> SimplexInputs:
    return SimplexInputs([simplex_set(seed, k) for k in range(SIMPLEX_POOL)])


def simplex_call(k: int):
    """(set index, point index, role) of pass k."""
    cycle, pos = divmod(k, SIMPLEX_CYCLE)
    point, role = divmod(pos, len(SIMPLEX_ROLES))
    return (cycle * len(SIMPLEX_POINTS) + point) % SIMPLEX_POOL, point, SIMPLEX_ROLES[role]


def simplex_pass(inputs: SimplexInputs, seed: int, k: int):
    index, point, (kind, i) = simplex_call(k)
    s = inputs.sets[index]
    p = renyi_ent.AlphaZ(*SIMPLEX_POINTS[point])
    try:
        if kind == "coherence":
            sol = renyi_ent.minimize_incoherent(s.coherence[i], p)
        else:
            sol = renyi_ent.minimize_mc(s.mc[i], p)
    except Exception:  # a raising solve is a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        sol = None
    return k, sol


def check_simplex_call(kind: str, i: int, alpha: float, sol, reference: float, marginals) -> tuple[bool, bool, str]:
    """(certified, value_ok, note) for one solve.

    The value must be finite; at alpha = 1 it must match the closed form; the
    joint coherence solve (i = 2) must be additive within DEFECT_TOL over the
    two marginal values in ``marginals``. ``certified`` is true when the
    attached verdict is ``certified-optimal``.
    """
    value = sol.value if sol is not None else math.nan
    verdict = sol.certificate.verdict if sol is not None and sol.certificate else "error"
    value_ok = math.isfinite(value)
    note = f"{kind}[{i}] at alpha={alpha}: value {value!r}, {verdict}"
    if alpha == 1.0:
        value_ok = value_ok and _close(value, reference, VALUE_TOL)
        note += f", closed form {reference!r}"
    if kind == "coherence" and i == 2:
        defect = abs(value - sum(marginals)) if len(marginals) == 2 else math.nan
        value_ok = value_ok and defect <= DEFECT_TOL
        note += f", defect {defect:.3g}"
    return verdict == CERTIFIED, value_ok, note


def simplex_check(inputs: SimplexInputs, raw) -> Outcome:
    k, sol = raw
    index, point, (kind, i) = simplex_call(k)
    s = inputs.sets[index]
    alpha = SIMPLEX_POINTS[point][0]
    offset = 0 if kind == "coherence" else len(s.coherence)
    if kind == "coherence" and i < 2:
        if i == 0:
            inputs.marginals.clear()
        inputs.marginals.append(sol.value if sol is not None else math.nan)
    certified, value_ok, note = check_simplex_call(kind, i, alpha, sol, s.references[offset + i], inputs.marginals)
    out = Outcome()
    out.record(value_ok, value_ok, f"set {index}: {note}", certified=certified)
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable  # (seed) -> inputs
    run_pass: Callable  # (inputs, seed, k) -> raw output of pass k
    check: Callable  # (inputs, raw) -> Outcome
    cycle: int  # passes that together cover every point once; traced as a unit


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table1", table1_inputs, table1_pass, table1_check, 1),
        Workload("antisym-d5", antisym_inputs, antisym_pass, antisym_check, 1),
        Workload("simplex-solve", simplex_inputs, simplex_pass, simplex_check, SIMPLEX_CYCLE),
    )
}
