"""Fuzzing the CLI with malformed matrix files, family descriptors and grid files.

Every run must either exit 2 with a one-line ``error:`` message (never a
traceback), or exit 0 without a NaN anywhere in its output.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from renyi_ent import AlphaZ, random_density, save_operator_json
from renyi_ent.cli import main

ALPHA_Z = st.sampled_from([("0.5", "0.5"), ("1", "1"), ("2", "2"), ("1.5", "1"), ("3", "1")])

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)
entries = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0])


@st.composite
def near_valid_payloads(draw):
    """Objects with the three expected keys, any of them malformed."""
    n = draw(st.integers(1, 3))
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    payload = {
        "dims": draw(st.lists(st.integers(-1, 4), min_size=0, max_size=2) | json_values),
        "re": draw(square | json_values),
        "im": draw(square | json_values),
    }
    for key in draw(st.sets(st.sampled_from(["dims", "re", "im"]), max_size=1)):
        del payload[key]
    return payload


VALID = random_density(2, 2, seed=3)
matrix_files = st.one_of(
    st.just(None),  # a valid state
    near_valid_payloads(),
    json_values,
    st.text(max_size=20),  # not JSON at all
)

FLOATS = ["0", "0.25", "0.5", "1", "2", "-0.5", "nan", "inf", "-inf", "1e-300", "x", ""]
INTS = ["-1", "0", "1", "2", "3", "1" + "0" * 400, "1.5", "nan", "x", ""]  # 10^400 exceeds the float range
vectors = st.lists(st.sampled_from(FLOATS), min_size=1, max_size=4).map("|".join)
PARAMS = {
    "bell": ("lam", vectors),
    "werner": ("p", st.sampled_from(FLOATS)),
    "isotropic": ("F", st.sampled_from(FLOATS)),
    "mcbd": ("p", vectors),
    "pure": ("p", vectors),
    "dicke": ("k", st.lists(st.sampled_from(INTS), min_size=1, max_size=3).map("|".join)),
}


@st.composite
def descriptors(draw):
    name = draw(st.sampled_from(sorted(PARAMS) + ["ghz", "antisym", "nosuch"]))
    items = []
    if name in PARAMS:
        key, values = PARAMS[name]
        items.append(f"{key}={draw(values)}")
    for key in draw(st.sets(st.sampled_from(["d", "N", "M"]), max_size=2)):
        items.append(f"{key}={draw(st.sampled_from(INTS))}")
    if draw(st.booleans()):
        items.append(draw(st.sampled_from(["=", "q", "d==2", ",", "lam"])))
    return f"{name}:{','.join(draw(st.permutations(items)))}"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean(code, out, err):
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code == 0, (code, err)
        assert "nan" not in out.lower(), out


def write_matrix(path, payload):
    if payload is None:
        save_operator_json(VALID, path)
    elif isinstance(payload, str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rho=matrix_files, sigma=matrix_files, az=ALPHA_Z)
def test_eval_on_malformed_matrix_files(rho, sigma, az):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "rho.json"), os.path.join(tmp, "sigma.json")]
        write_matrix(paths[0], rho)
        write_matrix(paths[1], sigma)
        assert_clean(*run_cli(["eval", *paths, "--alpha", az[0], "--z", az[1]]))


def beyond_float_and_party_range(test):
    """Every run covers an integer beyond the float range and a one-level state of many parties."""
    for text in ("isotropic:F=0.5,d=" + INTS[5], "antisym:d=" + INTS[5], "ghz:d=1,M=100000"):
        test = example(text=text, az=("2", "2"))(test)
    return test


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@beyond_float_and_party_range
@given(text=descriptors(), az=ALPHA_Z)
def test_value_on_malformed_descriptors(text, az):
    assert_clean(*run_cli(["value", text, "--alpha", az[0], "--z", az[1]]))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@beyond_float_and_party_range
@given(text=descriptors(), az=ALPHA_Z)
def test_certify_on_malformed_descriptors(text, az):
    assert_clean(*run_cli(["certify", text, "ansatz", "--alpha", az[0], "--z", az[1], "--restarts", "2"]))


grid_numbers = (
    st.integers(-3, 5)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0, 10**400, True, "1", None])
)
grid_files = st.one_of(
    st.lists(st.lists(grid_numbers, max_size=3), max_size=3).map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=20),  # not JSON at all
)


def runs_table(text):
    """Whether ``text`` is a well-formed grid with a point inside the DPI region."""
    try:
        grid = json.loads(text)
    except ValueError:
        return False
    pairs = isinstance(grid, list) and all(
        isinstance(pt, list) and len(pt) == 2 and all(type(x) in (int, float) for x in pt)
        for pt in grid
    )
    if not pairs:
        return False
    try:
        return any(AlphaZ(a, z).in_dpi_region for a, z in grid)
    except (ValueError, OverflowError):
        return False


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=grid_files)
def test_table1_on_malformed_grid_files(text):
    assume(not runs_table(text))  # a well-formed grid is a real table1 run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert_clean(*run_cli(["table1", "--grid", path, "--restarts", "1"]))

