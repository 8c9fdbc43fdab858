import csv
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from renyi_ent import (
    AlphaZ,
    HermitianOperator,
    Werner,
    closed_form_value,
    density,
    pure_density,
    random_density,
    save_operator_json,
)
from renyi_ent import cli
from renyi_ent.certificates import _encode_float
from renyi_ent.cli import main

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(path, rho):
    save_operator_json(rho, str(path))
    return str(path)


class TestEval:
    def test_equal_files_give_zero(self, tmp_path, capsys):
        rho = random_density(3, 3, seed=1)
        path = write_state(tmp_path / "rho.json", rho)
        code, out, _ = run(capsys, ["eval", path, path, "--alpha", "1.5", "--z", "1.0"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["d"]) <= 1e-9
        assert payload["dpi"] is True

    def test_bell_vs_maximally_mixed(self, tmp_path, capsys):
        rho = write_state(tmp_path / "rho.json", pure_density(PHI_PLUS, (2, 2)))
        sigma = write_state(tmp_path / "sigma.json", density(np.eye(4) / 4, (2, 2)))
        code, out, _ = run(capsys, ["eval", rho, sigma, "--alpha", "1", "--z", "1"])
        assert code == 0
        assert abs(json.loads(out)["d"] - 2.0) <= 1e-9

    def test_outside_region_warns_but_evaluates(self, tmp_path, capsys):
        rho = write_state(tmp_path / "rho.json", random_density(2, 2, seed=2))
        sigma = write_state(tmp_path / "sigma.json", random_density(2, 2, seed=3))
        code, out, err = run(capsys, ["eval", rho, sigma, "--alpha", "3", "--z", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["dpi"] is False
        assert math.isfinite(payload["d"])
        assert "outside the DPI region" in err

    def test_dimension_mismatch_exits_2_naming_both(self, tmp_path, capsys):
        rho = write_state(tmp_path / "rho.json", density(np.eye(2) / 2, (2,)))
        sigma = write_state(tmp_path / "sigma.json", density(np.eye(3) / 3, (3,)))
        for alpha, z in [(2.0, 2.0), (0.5, 0.5), (1.0, 1.0)]:
            code, out, err = run(capsys, ["eval", rho, sigma, "--alpha", str(alpha), "--z", str(z)])
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1
            assert "dimension 2 and 3" in err and "matmul" not in err

    def test_one_core_decomposition(self, tmp_path, capsys, monkeypatch):
        # d and q are read from one log2 Q: the alpha-z core is decomposed once
        rho = write_state(tmp_path / "rho.json", random_density(9, 9, seed=11))
        sigma = write_state(tmp_path / "sigma.json", random_density(9, 9, seed=12))
        cores = []
        eigvalsh = np.linalg.eigvalsh

        def counted(m, *args, **kwargs):
            cores.append(np.shape(m))
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        code, out, _ = run(capsys, ["eval", rho, sigma, "--alpha", "2", "--z", "2"])
        assert code == 0 and cores == [(9, 9)]
        payload = json.loads(out)
        assert abs(payload["q"] - 2.0 ** payload["d"]) <= 1e-12 * payload["q"]

    def test_malformed_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, ["eval", str(bad), str(bad)])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("text", ["5", '{"dims": 5, "re": [[1]], "im": [[0]]}'])
    def test_wrong_json_shape_exits_2_with_one_line(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run(capsys, ["eval", str(bad), str(bad)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("which,alpha", [("rho", 1.5), ("sigma", 0.5)])
    def test_nan_entry_exits_2(self, tmp_path, capsys, which, alpha):
        good = random_density(2, 2, seed=4)
        paths = {"rho": write_state(tmp_path / "rho.json", good), "sigma": write_state(tmp_path / "sigma.json", good)}
        payload = json.loads((tmp_path / f"{which}.json").read_text())
        payload["re"][0][1] = payload["re"][1][0] = math.nan
        (tmp_path / f"{which}.json").write_text(json.dumps(payload))
        code, out, err = run(capsys, ["eval", paths["rho"], paths["sigma"], "--alpha", str(alpha), "--z", str(alpha)])
        assert code == 2
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("diag", [(0.6, -0.4), (-0.5, -0.5)], ids=["indefinite", "negative"])
    def test_sigma_not_psd_exits_2_with_one_line(self, tmp_path, capsys, diag):
        rho = write_state(tmp_path / "rho.json", density(np.eye(2) / 2, (2,)))
        sigma = write_state(tmp_path / "sigma.json", HermitianOperator(np.diag(diag), (2,)))
        code, out, err = run(capsys, ["eval", rho, sigma, "--alpha", "2", "--z", "2"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "positive semidefinite" in err


    @pytest.mark.parametrize("transpose", [False, True])
    def test_tiny_non_hermitian_sigma_exits_2_with_one_line(self, tmp_path, capsys, transpose):
        # the Hermiticity bound is relative to max|entry|: a 1e-13-scale sigma
        # whose two triangles differ is rejected, whichever triangle is zero
        rho = write_state(tmp_path / "rho.json", random_density(2, 2, seed=5))
        m = 1e-13 * np.array([[1.0, 1.0], [0.0, 1.0]])
        m = m.T if transpose else m
        sigma = tmp_path / "sigma.json"
        sigma.write_text(json.dumps({"dims": [2], "re": m.tolist(), "im": np.zeros((2, 2)).tolist()}))
        code, out, err = run(capsys, ["eval", rho, str(sigma), "--alpha", "2", "--z", "2"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not Hermitian" in err

    @pytest.mark.parametrize("which", ["rho", "sigma"])
    def test_not_psd_error_names_the_file(self, tmp_path, capsys, which):
        paths = {
            "rho": write_state(tmp_path / "rho.json", density(np.eye(2) / 2, (2,))),
            "sigma": write_state(tmp_path / "sigma.json", density(np.eye(2) / 2, (2,))),
        }
        write_state(tmp_path / f"{which}.json", HermitianOperator(np.diag([0.6, -0.4]), (2,)))
        code, out, err = run(capsys, ["eval", paths["rho"], paths["sigma"], "--alpha", "2", "--z", "2"])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {paths[which]}: not positive semidefinite") and err.count("\n") == 1

    @pytest.mark.parametrize("which", ["rho", "tau"])
    def test_certify_bad_state_file_error_names_the_file(self, tmp_path, capsys, which):
        paths = {
            "rho": write_state(tmp_path / "rho.json", density(np.eye(4) / 4, (2, 2))),
            "tau": write_state(tmp_path / "tau.json", density(np.eye(4) / 4, (2, 2))),
        }
        write_state(tmp_path / f"{which}.json", HermitianOperator(np.diag([0.6, 0.5, 0.3, 0.1]), (2, 2)))
        code, out, err = run(capsys, ["certify", paths["rho"], paths["tau"], "--restarts", "4"])
        assert code == 2 and out == ""
        assert err == f"error: {paths[which]}: trace is 1.500000000000, expected 1\n"


class TestValue:
    @pytest.mark.parametrize(
        "family,alpha,z,expect",
        [
            ("ghz:d=2,M=3", 1.0, 1.0, 1.0),
            ("werner:p=0.8,d=3", 2.0, 2.0, 0.0),
            ("isotropic:F=1,d=3", 0.5, 1.0, math.log2(3)),
            # the power sums 0.8^5000 and 0.5^5001 underflow outside the log domain
            ("werner:p=0.2,d=3", 5000.0, 5000.0, 1.0 + 5000.0 * math.log2(0.8) / 4999.0),
            ("pure:p=0.5|0.5", 0.5, 0.5001, 1.0),
        ],
    )
    def test_examples(self, capsys, family, alpha, z, expect):
        code, out, _ = run(capsys, ["value", family, "--alpha", str(alpha), "--z", str(z)])
        assert code == 0
        assert abs(json.loads(out)["value"] - expect) <= 1e-9

    @pytest.mark.parametrize("alpha", [1e-300, 1e-8, 5e-4, 9.5e-4])
    def test_isotropic_at_small_alpha_matches_certificate(self, capsys, alpha):
        # (d-1)^((alpha-1)/alpha) underflows here; the log-domain power sum does not
        argv = ["iso:F=0.8,d=3", "--alpha", repr(alpha), "--z", "1"]
        code, out, _ = run(capsys, ["value", *argv])
        assert code == 0
        value = json.loads(out)["value"]
        code, out, _ = run(capsys, ["certify", argv[0], "ansatz", *argv[1:]])
        report = json.loads(out)
        assert code == 0 and report["verdict"] == "certified-optimal"
        assert abs(value - report["value"]) <= 1e-12

    def test_unknown_family_exits_nonzero(self, capsys):
        code, _, err = run(capsys, ["value", "nosuch:d=2"])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "family,key",
        [
            ("pure:p=0.5|0.5,d=7", "'d'"),
            ("werner:p=0.2,d=3,q=9", "'q'"),
            ("werner:p=0.2,d=3,d=4", "'d'"),
            ("dicke:N=3", "'k'"),
            ("werner:p=abc,d=3", "'p'"),
            ("dicke:N=3,k=2|x", "'k'"),
        ],
        ids=["unknown", "unknown-last", "repeated", "missing", "bad-float", "bad-int-vector"],
    )
    def test_descriptor_key_errors_exit_2_naming_the_key(self, capsys, family, key):
        code, out, err = run(capsys, ["value", family, "--alpha", "2", "--z", "2"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize("family", ["mcbd:p=nan|1", "pure:p=nan|1", "bell:lam=nan|1|0|0"])
    def test_nan_weight_exits_2(self, capsys, family):
        code, out, err = run(capsys, ["value", family])
        assert code == 2
        assert out == ""
        assert "non-finite" in err


class TestCertify:
    def test_family_with_ansatz(self, capsys):
        code, out, _ = run(
            capsys,
            ["certify", "bell:lam=0.75|0.25|0|0", "ansatz", "--alpha", "1", "--z", "1", "--restarts", "8"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "certified-optimal"
        assert abs(payload["value"] - 0.18872187554) <= 1e-6

    def test_maximally_mixed_refuted(self, tmp_path, capsys):
        tau = write_state(tmp_path / "tau.json", density(np.eye(9) / 9, (3, 3)))
        code, out, _ = run(
            capsys,
            ["certify", "werner:p=0,d=3", tau, "--alpha", "2", "--z", "2", "--restarts", "8"],
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "refuted"

    def test_incoherent_free_set(self, tmp_path, capsys):
        plus = write_state(tmp_path / "plus.json", pure_density(np.array([1.0, 1.0]) / np.sqrt(2), (2,)))
        tau = write_state(tmp_path / "tau.json", density(np.eye(2) / 2, (2,)))
        code, out, _ = run(
            capsys,
            ["certify", plus, tau, "--alpha", "1", "--z", "1", "--free", "incoherent"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "certified-optimal"
        assert abs(payload["value"] - 1.0) <= 1e-9


    def test_partition_mismatch_exits_2_naming_both(self, tmp_path, capsys):
        rho = write_state(tmp_path / "rho.json", random_density(4, 4, 50, dims=(2, 2)))
        tau = write_state(tmp_path / "tau.json", random_density(4, 4, 51))
        code, out, err = run(capsys, ["certify", rho, tau, "--alpha", "2", "--z", "2", "--restarts", "4"])
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "(2, 2)" in err and "(4,)" in err

    def test_overflowing_power_exits_2_with_one_line(self, capsys):
        # alpha = z = 1600 is inside the DPI region, but Xi's eigenvalues
        # (r/t)^alpha reach 1.6^1600 ~ 1e326, outside the float range
        code, out, err = run(capsys, ["certify", "werner:p=0.2,d=3", "ansatz", "--alpha", "1600", "--z", "1600"])
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "exponent" in err


    def test_huge_xi_certifies_without_warnings(self, capsys):
        # Xi's entries reach ~1e183 on the boundary line: the Krylov residual
        # must be scaled before its norm, or its squares overflow
        code, out, err = run(capsys, ["certify", "werner:p=0.2,d=3", "ansatz", "--alpha", "900", "--z", "899"])
        assert code == 0 and err == ""
        assert json.loads(out)["verdict"] == "certified-optimal"
        # at alpha = z = 1000 Xi's eigenvalues (r/t)^alpha reach ~1e204, though
        # t^(-alpha) alone would overflow
        code, out, err = run(capsys, ["certify", "werner:p=0.2,d=3", "ansatz", "--alpha", "1000", "--z", "1000"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["verdict"] == "certified-optimal"
        closed = closed_form_value(Werner(0.2, 3), AlphaZ(1000.0, 1000.0))
        assert abs(report["value"] - closed) <= 1e-9

    def test_no_signed_zero_in_json(self, capsys):
        # log2 Q = 0.0 divided by alpha - 1 < 0 is -0.0; the one JSON encoder prints 0.0
        code, out, _ = run(capsys, ["certify", "iso:F=0.8,d=3", "ansatz", "--alpha", "1e-300", "--z", "1"])
        assert code == 0
        value = json.loads(out)["value"]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert math.copysign(1.0, _encode_float(-0.0)) == 1.0

    def test_ansatz_needs_descriptor_even_for_a_path_with_colon(self, tmp_path, capsys):
        folder = tmp_path / "run:1"
        folder.mkdir()
        rho = write_state(folder / "rho.json", density(np.eye(4) / 4, (2, 2)))
        code, out, err = run(capsys, ["certify", rho, "ansatz"])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "needs rho given as a family descriptor" in err


class TestTable1:
    def test_reduced_grid_run(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([[1.0, 1.0], [2.0, 2.0]]))
        out_csv = tmp_path / "table.csv"
        code, out, _ = run(
            capsys,
            ["table1", "--grid", str(grid), "--out", str(out_csv), "--restarts", "16"],
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 14  # 7 families x 2 grid points
        assert set(rows[0]) == {"family", "alpha", "z", "closed_form", "certified_value", "margin"}
        for row in rows:
            assert abs(float(row["closed_form"]) - float(row["certified_value"])) <= 1e-6
        assert out.count("ok ") == 14

    def test_grid_point_within_line_tolerance_of_alpha_1(self, tmp_path, capsys):
        # the certificate and the closed form both treat it as alpha = 1
        grid = tmp_path / "grid.json"
        grid.write_text("[[1.0000000000005, 1.0]]")
        code, out, _ = run(capsys, ["table1", "--grid", str(grid), "--restarts", "16"])
        assert code == 0
        assert out.count("\nok ") + out.startswith("ok ") == 7 and "FAIL" not in out

    def test_disagreeing_rows_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "closed_form_value", lambda family, p: 5.0)
        grid = tmp_path / "grid.json"
        grid.write_text("[[2.0, 2.0]]")
        code, out, err = run(capsys, ["table1", "--grid", str(grid), "--restarts", "4"])
        assert code == 1
        assert out.count("FAIL ") == 7
        assert err.startswith("7 row(s) failed the 1e-6 reproduction check:")

    @pytest.mark.parametrize("text", ["[1, 2]", "[[1]]", '[["a", 1]]', "[[true, 1]]", '{"alpha": 1}'])
    def test_malformed_grid_exits_2_with_one_line(self, tmp_path, capsys, text):
        grid = tmp_path / "grid.json"
        grid.write_text(text)
        code, out, err = run(capsys, ["table1", "--grid", str(grid), "--restarts", "1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCounterexample:
    def test_d3_values(self, capsys):
        code, out, _ = run(capsys, ["counterexample", "--d", "3", "--restarts", "16"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["single"] - 1.0) <= 1e-9
        assert abs(payload["pair"] - (1.0 + math.log2(1.5))) <= 1e-9
        assert abs(payload["gap"] - math.log2(1.5)) <= 1e-9
        assert payload["single_verdict"] == payload["pair_verdict"] == "certified-optimal"

    def test_uncertified_exits_1_with_null_values(self, capsys, monkeypatch):
        certify = cli.certify_optimizer

        def inconclusive(*args, **kwargs):
            return dataclasses.replace(certify(*args, **kwargs), verdict="inconclusive", value=None)

        monkeypatch.setattr(cli, "certify_optimizer", inconclusive)
        code, out, err = run(capsys, ["counterexample", "--d", "3", "--restarts", "4"])
        assert code == 1
        assert err == "counterexample ansatz failed certification\n"
        payload = json.loads(out)
        assert payload["single"] is None and payload["pair"] is None and payload["gap"] is None
        assert payload["single_verdict"] == payload["pair_verdict"] == "inconclusive"

    def test_d2_additivity(self, capsys):
        code, out, _ = run(capsys, ["counterexample", "--d", "2", "--restarts", "16"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["additivity_defect"]) <= 1e-9

    @pytest.mark.parametrize("restarts", ["0", "-3", "10001", "200000000"])
    def test_no_restarts_exits_2_with_one_line(self, capsys, restarts):
        start = time.perf_counter()
        code, out, err = run(capsys, ["counterexample", "--d", "2", "--restarts", restarts])
        assert time.perf_counter() - start < 1.0  # rejected before any allocation
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "restarts" in err

    def test_d10_reports_closed_form_gap(self, capsys):
        # the pair state would be 10^4-dimensional: certification is skipped
        # beyond the dense-dimension cap, closed forms are still reported
        code, out, _ = run(capsys, ["counterexample", "--d", "10"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pair_verdict"] == "skipped-dimension-cap"
        assert abs(payload["gap"] - math.log2(10.0 / 9.0)) <= 1e-12


class TestAdditivity:
    def test_mc_with_pure_partner(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "additivity", "mcbd:p=0.7|0.3",
                "--other", "pure:p=0.7|0.3",
                "--alpha", "1", "--z", "1", "--restarts", "16",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["joint"]["verdict"] == "certified-optimal"
        assert abs(payload["defect"]) <= 1e-6

    def test_isotropic_with_bell_diagonal(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "additivity", "isotropic:F=0.9,d=2",
                "--other", "bell:lam=0.75|0.25|0|0",
                "--alpha", "2", "--z", "2", "--restarts", "16",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["joint"]["verdict"] == "certified-optimal"
        assert abs(payload["defect"]) <= 1e-6

    def test_antisym_route_subadditive(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "additivity", "werner:p=0,d=3",
                "--other", "werner:p=0,d=3",
                "--alpha", "1", "--z", "1", "--restarts", "16",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["joint"]["ansatz"] == "antisym-pair"
        assert payload["defect"] < -0.4

    def test_random_mc_partner(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "additivity", "pure:p=0.8|0.2",
                "--other", "random:5",
                "--alpha", "1", "--z", "1", "--restarts", "16", "--starts", "2",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["joint"]["verdict"] == "certified-optimal"
        assert abs(payload["defect"]) <= 1e-5

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--starts", "0"), ("--starts", "-3"), ("--other-dim", "0"), ("--other-dim", "-3"),
            ("--starts", "10001"), ("--starts", "20000000"), ("--restarts", "10001"), ("--seed", "-1"),
            ("--other", "random:abc"), ("--other", "random:"), ("--other", "random:1.5"), ("--other", "random:-1"),
        ],
    )
    def test_empty_random_partner_exits_2_with_one_line(self, capsys, flag, value):
        start = time.perf_counter()
        code, out, err = run(
            capsys, ["additivity", "pure:p=0.8|0.2", "--other", "random:5", "--restarts", "2", flag, value]
        )
        assert time.perf_counter() - start < 1.0  # rejected before any allocation
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and flag.lstrip("-") in err


class TestSweep:
    def test_isotropic_f_sweep(self, tmp_path, capsys):
        out_csv = tmp_path / "iso.csv"
        code, _, _ = run(
            capsys,
            [
                "sweep", "isotropic:F=0.5,d=3",
                "--param", "F=0:1:11",
                "--alpha", "1", "--z", "1",
                "--out", str(out_csv), "--restarts", "8",
            ],
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        values = [float(r["closed_form"]) for r in rows]
        params = [float(r["param_value"]) for r in rows]
        assert params == sorted(params)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(v == 0.0 for v, f in zip(values, params) if f <= 1.0 / 3.0)

    def test_werner_p_sweep_zero_above_half(self, tmp_path, capsys):
        out_csv = tmp_path / "werner.csv"
        code, _, _ = run(
            capsys,
            [
                "sweep", "werner:p=0.5,d=3",
                "--param", "p=0:1:11",
                "--alpha", "2", "--z", "2",
                "--out", str(out_csv), "--restarts", "8",
            ],
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if float(row["param_value"]) >= 0.5:
                assert float(row["closed_form"]) == 0.0
                assert abs(float(row["certified_value"])) <= 1e-9

    def test_pure_alpha_sweep_tracks_beta_monotonicity(self, tmp_path, capsys):
        out_csv = tmp_path / "pure.csv"
        code, _, _ = run(
            capsys,
            [
                "sweep", "pure:p=0.8|0.2",
                "--param", "alpha=1.1:2.0:5",
                "--z", "1",
                "--out", str(out_csv), "--restarts", "8",
            ],
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        # along z = 1, beta = 1/alpha decreases in alpha, so H_beta increases
        values = [float(r["closed_form"]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_stdout_is_the_same_csv(self, tmp_path, capsys):
        # the family label holds a comma, so stdout must quote it as the file does
        argv = ["sweep", "isotropic:F=0.5,d=3", "--param", "F=0.2:0.8:2", "--alpha", "1", "--z", "1", "--restarts", "4"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and "\r" not in out
        printed = list(csv.reader(out.splitlines()))
        out_csv = tmp_path / "iso.csv"
        assert run(capsys, argv + ["--out", str(out_csv)])[0] == 0
        with open(out_csv, newline="") as fh:
            written = list(csv.reader(fh))
        assert len(printed) == 3 and all(len(row) == len(printed[0]) == 10 for row in printed)
        assert printed[0][-1] == "wall_ms"
        # every column but the timing agrees
        assert [row[:-1] for row in printed] == [row[:-1] for row in written]

    def test_malformed_param_range(self, capsys):
        code, _, err = run(capsys, ["sweep", "werner:p=0.5,d=3", "--param", "p=0-1-5"])
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "param", ["p=1e400:1:3", "p=0:1e400:3", "alpha=0.5:1e400:2", "p=-1e308:1e308:3", "p=0:1:0", "p=0:1:10001"]
    )
    def test_non_finite_or_empty_range_exits_2_with_one_line(self, capsys, param):
        code, out, err = run(capsys, ["sweep", "werner:p=0.5,d=3", "--param", param])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--param" in err


class TestDimensionCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "ghz:d=10,M=6", "ansatz"],
            ["additivity", "werner:p=0,d=2", "--other", "random:3", "--other-dim", "100000"],
            ["certify", "dicke:N=40,k=20|20", "ansatz"],
            ["sweep", "ghz:d=10,M=6", "--param", "alpha=0.5:2:3"],
            ["additivity", "werner:p=0,d=7", "--other", "werner:p=0,d=7"],
        ],
        ids=["ghz", "random-partner", "dicke", "sweep", "joint"],
    )
    def test_oversized_state_exits_2_without_building(self, capsys, monkeypatch, argv):
        import tracemalloc

        def refuse(*args, **kwargs):
            raise AssertionError("a state above the cap was built")

        for name in ("build", "random_density", "ansatz_optimizer", "tensor_product_merged"):
            monkeypatch.setattr(cli, name, refuse)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "cap of 2000" in err
        assert peak < 2**20

    def test_closed_forms_need_no_cap(self, capsys):
        code, out, _ = run(capsys, ["value", "ghz:d=10,M=6"])
        assert code == 0 and abs(json.loads(out)["value"] - math.log2(10.0)) <= 1e-12


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        rho = random_density(2, 2, seed=9)
        path = write_state(tmp_path / "rho.json", rho)
        proc = subprocess.run(
            [sys.executable, "-m", "renyi_ent.cli", "eval", path, path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert abs(json.loads(proc.stdout)["d"]) <= 1e-9

    def test_runs_without_scipy(self):
        # scipy is a test-only dependency: the package imports and evaluates without it
        import os
        import subprocess
        import sys

        import renyi_ent

        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from renyi_ent import cli\n"
            "sys.exit(cli.main(['value', 'werner:p=0.2,d=3']))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(renyi_ent.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert abs(json.loads(proc.stdout)["value"] - closed_form_value(Werner(0.2, 3), AlphaZ(1.0, 1.0))) <= 1e-12
