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


def write_deep_json(path):
    """A JSON file nested 100,000 levels deep, past the parser's recursion limit."""
    path.write_text("[" * 100_000 + "]" * 100_000)
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

    def test_deeply_nested_file_exits_2_naming_it(self, tmp_path, capsys):
        deep = write_deep_json(tmp_path / "deep.json")
        code, out, err = run(capsys, ["eval", deep, deep])
        assert code == 2 and out == ""
        assert err == f"error: {deep}: JSON file {deep} nests deeper than the parser reads\n"

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

    def test_re_im_shape_mismatch_exits_2_with_one_line(self, tmp_path, capsys):
        rho = write_state(tmp_path / "rho.json", random_density(2, 2, seed=6))
        bad = tmp_path / "sigma.json"
        bad.write_text(json.dumps({"dims": [2], "re": np.eye(2).tolist(), "im": np.zeros((2, 3)).tolist()}))
        code, out, err = run(capsys, ["eval", rho, str(bad), "--alpha", "2", "--z", "2"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "re and im blocks have different shapes" in err

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

    def test_huge_non_hermitian_sigma_exits_2_with_one_line(self, tmp_path, capsys):
        # m - m† overflows here: an imaginary diagonal entry at half the float range
        rho = write_state(tmp_path / "rho.json", density(np.eye(1), (1,)))
        sigma = tmp_path / "sigma.json"
        sigma.write_text(json.dumps({"dims": [1], "re": [[0.0]], "im": [[8.98846567431158e307]]}))
        code, out, err = run(capsys, ["eval", rho, str(sigma), "--alpha", "0.5", "--z", "0.5"])
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
            # beta = z / (z - 1 + alpha) = 1/2, though z - 1 + alpha is past the float range
            ("pure:p=0.5|0.5", 1e308, 1e308, 1.0),
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

    @pytest.mark.parametrize(
        "alpha,expect",
        [
            (2.0, math.log2(1e12) + math.log2(0.64 + 0.04 / (1e12 - 1))),
            (1.0, math.log2(1e12) + 0.8 * math.log2(0.8) + 0.2 * math.log2(0.2 / (1e12 - 1))),
        ],
    )
    def test_isotropic_closed_form_costs_nothing_in_d(self, capsys, alpha, expect):
        # value has no dimension cap, so the closed form must not allocate anything of size d
        start = time.perf_counter()
        code, out, _ = run(capsys, ["value", "iso:F=0.8,d=1000000000000", "--alpha", str(alpha), "--z", str(alpha)])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert abs(json.loads(out)["value"] - expect) <= 1e-9

    @pytest.mark.parametrize(
        "k,expect",
        [
            ((550, 550), 5.3777198541335728376),
            ((700, 200, 100), 9.5399206219401843943),
            ((1000, 1000), 5.8088205439398000068),
            ((10**7, 10**7), 12.452496414875615628),
            ((10**15, 10**15), 25.740208776391377188),
            ((1,) * 1000, 1436.3862804573134712),
        ],
        ids=["550-550", "700-200-100", "1000-1000", "1e7-1e7", "1e15-1e15", "1000-ones"],
    )
    def test_dicke_closed_form_at_any_n(self, capsys, k, expect):
        # the multinomial overflows a float, and 1000 ones put lambda^2 = 1000!/1000^1000 below the float range
        descriptor = f"dicke:N={sum(k)},k=" + "|".join(map(str, k))
        start = time.perf_counter()
        code, out, _ = run(capsys, ["value", descriptor, "--alpha", "2", "--z", "2"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert abs(json.loads(out)["value"] - expect) <= 1e-13 * expect

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

    @pytest.mark.parametrize(
        "family,message",
        [
            ("mcbd:p=0.5|-0.1|0.6", "MCBD weight vector has negative entries"),
            ("werner:p=0.2,d=1", "Werner states need local dimension >= 2"),
        ],
        ids=["negative-weight", "werner-d1"],
    )
    def test_invalid_family_parameters_exit_2_with_one_line(self, capsys, family, message):
        code, out, err = run(capsys, ["value", family, "--alpha", "2", "--z", "2"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

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

    @pytest.mark.parametrize(
        "family,alpha,z",
        [
            ("pure:p=0.5000000000005|0.4999999999995", 0.5, 0.8),
            ("pure:p=0.5000000000005|0.4999999999995", 3.0, 2.5),
            ("pure:p=0.5000000000005|0.4999999999995", 1.5, 1.0),
            ("pure:p=0.500000000003|0.499999999997", 0.5, 0.8),
            ("pure:p=0.500000000003|0.499999999997", 1.5, 1.0),
        ],
    )
    def test_near_degenerate_pure_ansatz_certifies(self, capsys, family, alpha, z):
        # tau's two eigenvalues are a relative 1.1e-12 to 3.2e-11 apart: the divided difference must not cancel
        code, out, _ = run(capsys, ["certify", family, "ansatz", "--alpha", str(alpha), "--z", str(z)])
        report = json.loads(out)
        assert code == 0 and report["route"] == "divided-difference"
        assert report["verdict"] == "certified-optimal"
        assert abs(report["margin"]) <= 1e-12 * report["q_value"]

    def test_maximally_mixed_refuted(self, tmp_path, capsys):
        tau = write_state(tmp_path / "tau.json", density(np.eye(9) / 9, (3, 3)))
        code, out, _ = run(
            capsys,
            ["certify", "werner:p=0,d=3", tau, "--alpha", "2", "--z", "2", "--restarts", "8"],
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "refuted"

    def test_deeply_nested_state_file_exits_2_naming_it(self, tmp_path, capsys):
        deep = write_deep_json(tmp_path / "deep.json")
        code, out, err = run(capsys, ["certify", deep, "ansatz"])
        assert code == 2 and out == ""
        assert err == f"error: {deep}: JSON file {deep} nests deeper than the parser reads\n"

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


    @pytest.mark.parametrize("tau", ["file", "ansatz"])
    def test_incoherent_set_refuses_a_tau_that_is_not_incoherent(self, tmp_path, capsys, tau):
        # rho as its own tau, or the Werner ansatz, is not diagonal, so it is not a candidate at all
        if tau == "file":
            rho = tau = write_state(tmp_path / "rho.json", random_density(3, 3, 7))
        else:
            rho = "werner:p=0.2,d=3"
        for a in ("1", "2"):
            code, out, err = run(capsys, ["certify", rho, tau, "--free", "incoherent", "--alpha", a, "--z", a])
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and "not diagonal" in err

    def test_partition_mismatch_exits_2_naming_both(self, tmp_path, capsys):
        rho = write_state(tmp_path / "rho.json", random_density(4, 4, 50, dims=(2, 2)))
        tau = write_state(tmp_path / "tau.json", random_density(4, 4, 51))
        code, out, err = run(capsys, ["certify", rho, tau, "--alpha", "2", "--z", "2", "--restarts", "4"])
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "(2, 2)" in err and "(4,)" in err

    def test_ansatz_outside_the_dpi_region_exits_2_with_one_line(self, capsys):
        # the pure-state ansatz needs beta = z / (z - 1 + alpha) > 0
        code, out, err = run(capsys, ["certify", "pure:p=0.5|0.5", "ansatz", "--alpha", "0.3", "--z", "0.2"])
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "outside the DPI region" in err

    def test_non_finite_xi_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch):
        from renyi_ent import certificates

        # a kernel that is not finite makes the divided-difference Xi so
        monkeypatch.setattr(certificates, "_phi_divided_difference", lambda t, p: np.full((t.size, t.size), np.nan))
        rho = write_state(tmp_path / "rho.json", random_density(4, 4, 52, dims=(2, 2)))
        tau = write_state(tmp_path / "tau.json", random_density(4, 4, 53, dims=(2, 2)))
        code, out, err = run(capsys, ["certify", rho, tau, "--alpha", "2", "--z", "2", "--restarts", "4"])
        assert code == 2 and out == ""
        assert err == "error: matrix has non-finite entries\n"

    def test_overflowing_power_exits_2_with_one_line(self, capsys):
        # alpha = z = 1600 is inside the DPI region, but Xi's eigenvalues
        # (r/t)^alpha reach 1.6^1600 ~ 1e326, outside the float range
        code, out, err = run(capsys, ["certify", "werner:p=0.2,d=3", "ansatz", "--alpha", "1600", "--z", "1600"])
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "exponent" in err


    def test_huge_xi_certifies_without_warnings(self, capsys):
        # Xi's entries reach ~1e183 on the boundary line, where their squares
        # would overflow: the certification runs without a warning
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

    def test_pure_ansatz_at_a_huge_beta_is_refuted(self, capsys):
        # beta = z / (z - 1 + alpha) = 5001: the ansatz weights must not underflow to 0/0
        code, out, err = run(capsys, ["certify", "pure:p=0.6|0.4", "ansatz", "--alpha", "0.5", "--z", "0.5001"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["verdict"] == "refuted" and report["support_ok"] is False

    @pytest.mark.parametrize("alpha,z", [("1", "1e-17"), ("1", "1e-300"), ("0.999999999999", "1e-12")])
    def test_pure_ansatz_on_the_umegaki_line_at_a_tiny_z_certifies(self, capsys, alpha, z):
        # z - 1 + alpha rounds to 0 at these points; on the line alpha = 1 the ansatz takes beta = 1 whatever z is
        code, out, err = run(capsys, ["certify", "pure:p=0.7|0.3", "ansatz", "--alpha", alpha, "--z", z])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["verdict"] == "certified-optimal"
        _, out, _ = run(capsys, ["value", "pure:p=0.7|0.3", "--alpha", alpha, "--z", z])
        assert abs(report["value"] - json.loads(out)["value"]) <= 1e-12

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

    def test_incoherent_membership_check_forms_no_dense_tau(self, capsys, dense_shapes):
        # the diagonal check reads a catalog tau's entries from its column-sparse spectrum
        descriptor = "mcbd:p=" + "|".join(["0.025"] * 40)  # 1,600 dimensions
        code, out, _ = run(capsys, ["certify", descriptor, "ansatz", "--free", "incoherent", "--alpha", "2", "--z", "2"])
        assert code == 0 and json.loads(out)["verdict"] == "certified-optimal"
        assert all(1600 not in shape for shape in dense_shapes)


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

    @pytest.mark.parametrize("points", [[[3.0, 1.0]], [[3.0, 1.0], [2.0, 2.0]], [[2.0, 2.0], [3.0, 1.0]]])
    def test_grid_point_outside_the_dpi_region_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, points):
        def refuse(*args, **kwargs):
            raise AssertionError("a row was certified")

        monkeypatch.setattr(cli, "certify_optimizer", refuse)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(points))
        code, out, err = run(capsys, ["table1", "--grid", str(grid), "--restarts", "4"])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "(3.0, 1.0)" in err and "outside the DPI region" in err

    def test_deeply_nested_grid_exits_2_naming_it(self, tmp_path, capsys):
        deep, out_csv = write_deep_json(tmp_path / "deep.json"), tmp_path / "t.csv"
        code, out, err = run(capsys, ["table1", "--grid", deep, "--out", str(out_csv)])
        assert code == 2 and out == "" and not out_csv.exists()
        assert err == f"error: JSON file {deep} nests deeper than the parser reads\n"

    def test_empty_grid_exits_2_naming_the_file(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a row was certified")

        monkeypatch.setattr(cli, "certify_optimizer", refuse)
        grid, out_csv = tmp_path / "grid.json", tmp_path / "t.csv"
        grid.write_text("[]")
        code, out, err = run(capsys, ["table1", "--grid", str(grid), "--out", str(out_csv)])
        assert code == 2 and out == "" and not out_csv.exists()
        assert err.startswith("error: ") and err.count("\n") == 1 and str(grid) in err

    @pytest.mark.parametrize(
        "text",
        ["[1, 2]", "[[1]]", '[["a", 1]]', "[[true, 1]]", '{"alpha": 1}', pytest.param("[[1" + "0" * 400 + ", 1]]", id="1e400")],
    )
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

    def test_d4_pair_forms_no_dense_state(self, capsys, dense_shapes):
        # the pair and its ansatz share one eigenbasis: certified from their spectra alone
        code, out, _ = run(capsys, ["counterexample", "--d", "4"])
        assert code == 0 and json.loads(out)["pair_verdict"] == "certified-optimal"
        assert (256, 256) not in dense_shapes

    def test_d5_forms_no_dense_basis(self, capsys, dense_shapes):
        # the catalog bases stay column-sparse, and so does Xi's factor: nothing 625 rows tall is formed
        code, out, _ = run(capsys, ["counterexample", "--d", "5"])
        assert code == 0 and json.loads(out)["pair_verdict"] == "certified-optimal"
        assert all(625 not in shape for shape in dense_shapes)

    def test_werner_d40_ansatz_forms_no_dense_basis(self, capsys, dense_shapes):
        code, out, _ = run(capsys, ["certify", "werner:p=0.2,d=40", "ansatz"])
        assert code == 0 and json.loads(out)["verdict"] == "certified-optimal"
        assert all(1600 not in shape for shape in dense_shapes)

    @pytest.mark.parametrize("alpha_z", ["2", "1"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_is_the_additivity_pair_of_two_antisymmetric_werner_states(self, capsys, d, alpha_z):
        p = ["--alpha", alpha_z, "--z", alpha_z]
        code, out, _ = run(capsys, ["counterexample", "--d", str(d), *p])
        assert code == 0
        counterexample = json.loads(out)
        code, out, _ = run(capsys, ["additivity", f"werner:p=0,d={d}", "--other", f"werner:p=0,d={d}", *p])
        assert code == 0
        additivity = json.loads(out)
        assert counterexample["single"] == additivity["marginal_1"]["value"]
        assert counterexample["pair"] == additivity["joint"]["value"]

    def test_certifies_the_marginal_once_and_the_pair_once(self, capsys, monkeypatch):
        shapes = []
        original = cli.certify_optimizer

        def counted(rho, *args, **kwargs):
            shapes.append(rho.dims)
            return original(rho, *args, **kwargs)

        monkeypatch.setattr(cli, "certify_optimizer", counted)
        code, _, _ = run(capsys, ["counterexample", "--d", "3", "--restarts", "4"])
        assert code == 0 and shapes == [(3, 3), (9, 9)]

    def test_d2_additivity(self, capsys):
        code, out, _ = run(capsys, ["counterexample", "--d", "2", "--restarts", "16"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["additivity_defect"]) <= 1e-9

    @pytest.mark.parametrize("restarts", ["0", "-3", "10001", "200000000", "abc", "1.5"])
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

    def test_repeated_marginal_is_certified_once(self, capsys, monkeypatch):
        # the marginals are compared as states: every spelling takes the pair route and certifies the marginal once
        shapes = []
        original = cli.certify_optimizer

        def counted(rho, *args, **kwargs):
            shapes.append(rho.dims)
            return original(rho, *args, **kwargs)

        monkeypatch.setattr(cli, "certify_optimizer", counted)
        payloads = []
        for spelling in ("werner:p=0,d=3", "werner:p=0.0,d=3", "Werner:p=0,d=3", "werner:d=3,p=0"):
            shapes.clear()
            code, out, _ = run(capsys, ["additivity", spelling, "--other", "werner:p=0,d=3", "--alpha", "2", "--z", "2"])
            assert code == 0 and shapes == [(3, 3), (9, 9)], spelling
            payload = json.loads(out)
            del payload["wall_ms"]
            payloads.append(payload)
        assert payloads == [payloads[0]] * 4
        assert payloads[0]["joint"]["ansatz"] == "antisym-pair" and payloads[0]["joint"]["verdict"] == "certified-optimal"
        assert payloads[0]["joint"]["value"] == 1.5849625007211559 and payloads[0]["defect"] < -0.4

    @pytest.mark.parametrize("other", ["bell:lam=0.7|0.1|0.1|0.1", "random:3"])
    def test_uncertified_values_print_null(self, capsys, monkeypatch, other):
        certify, solve = cli.certify_optimizer, cli.minimize_mc

        def inconclusive(*args, **kwargs):
            return dataclasses.replace(certify(*args, **kwargs), verdict="inconclusive", value=None)

        def inconclusive_solve(*args, **kwargs):
            solution = solve(*args, **kwargs)
            return solution._replace(certificate=dataclasses.replace(solution.certificate, verdict="inconclusive", value=None))

        monkeypatch.setattr(cli, "certify_optimizer", inconclusive)
        monkeypatch.setattr(cli, "minimize_mc", inconclusive_solve)
        code, out, _ = run(capsys, ["additivity", "pure:p=0.8|0.2", "--other", other, "--restarts", "4", "--starts", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["marginal_2"]["verdict"] == "inconclusive"
        assert payload["marginal_1"]["value"] is None and payload["marginal_2"]["value"] is None
        assert payload["joint"]["value"] is None and payload["defect"] is None

    def test_random_prefix_is_case_insensitive(self, capsys):
        payloads = []
        for spelling in ("random:3", "Random:3", "RANDOM:3"):
            code, out, _ = run(capsys, ["additivity", "pure:p=0.8|0.2", "--other", spelling, "--restarts", "4", "--starts", "2"])
            assert code == 0, spelling
            payload = json.loads(out)
            assert payload["marginal_2"].pop("family") == spelling
            del payload["wall_ms"]
            payloads.append(payload)
        assert payloads == [payloads[0]] * 3

    def test_spellings_of_one_random_seed_are_one_state(self, capsys, monkeypatch):
        solves = []
        original = cli.minimize_mc

        def counted(rho, *args, **kwargs):
            solves.append(rho.dims)
            return original(rho, *args, **kwargs)

        monkeypatch.setattr(cli, "minimize_mc", counted)
        code, _, _ = run(capsys, ["additivity", "random:3", "--other", "random:03", "--restarts", "4", "--starts", "2"])
        assert code == 0 and solves == [(2, 2)]

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
            ("--seed", "x"), ("--other-dim", "x"),
            pytest.param("--other", "random:" + "9" * 5000, id="--other-random-5000-digits"),
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

    def test_negative_zero_prints_as_zero(self, capsys):
        # the certified value at alpha = 1e-300 is -0.0, which the JSON encoder writes as 0.0
        argv = ["sweep", "iso:F=0.8,d=3", "--param", "alpha=1e-300:1e-299:2", "--z", "1", "--restarts", "2"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert [row["certified_value"] for row in csv.DictReader(out.splitlines())] == ["0", "0"]

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
        # a vector parameter cannot be swept
        code, out, err = run(capsys, ["sweep", "pure:p=0.8|0.2", "--param", "p=0:1:3"])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "no sweepable parameter 'p'" in err

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

    @pytest.mark.parametrize("descriptor", ["ghz:d=1,M=100000", "dicke:N=100000,k=100000"], ids=["ghz", "dicke"])
    def test_many_parties_of_one_level_exit_2_at_once(self, capsys, monkeypatch, descriptor):
        # 1^M = 1 fits any dimension cap, so the party count has a cap of its own
        def refuse(*args, **kwargs):
            raise AssertionError("a state above the party cap was built")

        for name in ("build", "ansatz_optimizer"):
            monkeypatch.setattr(cli, name, refuse)
        start = time.perf_counter()
        code, out, err = run(capsys, ["certify", descriptor, "ansatz"])
        assert time.perf_counter() - start < 0.1
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "party cap of 11" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["additivity", "ghz:d=2,M=3", "--other", "werner:p=0,d=2"],
            ["additivity", "random:3", "--other", "dicke:N=3,k=2|1"],
        ],
        ids=["ghz-werner", "random-dicke"],
    )
    def test_party_count_mismatch_exits_2_without_building(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a marginal was built or certified")

        for name in ("build", "random_density", "certify_optimizer", "minimize_mc"):
            monkeypatch.setattr(cli, name, refuse)
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: party counts differ: (2, 2") and err.count("\n") == 1

    def test_closed_forms_need_no_cap(self, capsys):
        code, out, _ = run(capsys, ["value", "ghz:d=10,M=6"])
        assert code == 0 and abs(json.loads(out)["value"] - math.log2(10.0)) <= 1e-12


class TestEntryPoint:
    @pytest.mark.parametrize(
        "argv,prefix",
        [
            ([], "error: renyi-ent"),
            (["bogus"], "error: renyi-ent"),
            (["additivity", "pure:p=1"], "error: renyi-ent"),
            # integers beyond the float range
            (["value", "iso:F=0.5,d=1" + "0" * 400], "error: "),
            (["value", "antisym:d=1" + "0" * 400], "error: "),
            (["counterexample", "--d", "1" + "0" * 400], "error: "),
        ],
        ids=["empty", "unknown", "missing", "iso-1e400", "antisym-1e400", "counterexample-1e400"],
    )
    def test_parse_errors_exit_2_with_one_line(self, capsys, argv, prefix):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith(prefix) and err.count("\n") == 1

    def test_module_invocation(self, tmp_path):
        import os
        import subprocess
        import sys

        rho = random_density(2, 2, seed=9)
        path = write_state(tmp_path / "rho.json", rho)
        # the subprocess imports the package from this checkout's src/, installed or not
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "renyi_ent.cli", "eval", path, path],
            capture_output=True,
            text=True,
            env=env,
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
