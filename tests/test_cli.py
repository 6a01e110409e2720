"""CLI golden tests: byte determinism, exit codes, formats, round trips."""

import io
import contextlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from dinicert import (DiniFamily, certify, cli, critical_order,
                      evaluate_criterion, find_zeros, selftest)

GOLDEN = json.loads(pathlib.Path(__file__).with_name("golden_cli.json").read_text())
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_inproc(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_subproc(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "dinicert.cli", *argv],
                          capture_output=True, text=True, env=env)


class TestExitCodes:
    def test_success(self):
        code, out, _ = run_inproc(["zeros", "--a", "1", "--nu", "0.5", "--n", "2"])
        assert code == 0 and out

    def test_validation_failure(self):
        code, _, err = run_inproc(["zeros", "--a", "1", "--nu", "-2"])
        assert code == 2
        assert "nu must exceed -1" in err

    def test_validation_failure_a(self):
        code, _, err = run_inproc(["critical", "--a", "0"])
        assert code == 2
        assert "a must be positive" in err

    def test_numeric_failure(self):
        code, _, err = run_inproc(["critical", "--a", "0.1"])
        assert code == 3
        assert "no sign change" in err

    @pytest.mark.parametrize("a", ["0.3", "0.2", "0.1"])
    def test_critical_order_above_window(self, a):
        # nu_a = 2.546, 4.189 and 9.160 lie above the window (-0.74, 2)
        code, _, err = run_inproc(["critical", "--a", a])
        assert code == 3
        assert err == ("numeric failure: no sign change of the critical equation "
                       f"on [-0.74, 2] for a={a}\n")

    @pytest.mark.parametrize("nu,n", [("0.5", "-5"), ("-0.5", "-3")])
    def test_certify_zero_count_validated(self, nu, n):
        # -5 raised IndexError, -3 exited 0; the goldens pin -1 and 19
        code, out, err = run_inproc(["certify", "--a", "1", "--nu", nu, "--n", n])
        assert (code, out, err) == (2, "", "error: n_terms must lie in [0, 18]\n")

    def test_underflowing_scan_start_fails_loudly(self):
        # 4a(nu + 1) underflows to 0; omega_1 ~ 3.3e-170 is found, but no
        # bracket of width 1e-12 around it stays inside x > 0
        code, out, err = run_inproc(["zeros", "--a", "5e-324", "--nu",
                                     "-0.9999999999999999", "--n", "1"])
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: zero 1 near x=3.3")

    def test_short_table_reports_its_count(self):
        # zero 1 (x = 7.68) cannot be refined to width 1e-14 either, but the
        # count is proved short before any zero is refined
        code, out, err = run_inproc(["zeros", "--a", "1", "--nu", "29", "--n", "9",
                                     "--tol", "1e-14"])
        assert (code, out) == (3, "")
        assert err == ("numeric failure: only 7 sign changes of D_(a=1,nu=29) "
                       "found below x=60, needed 9\n")

    @pytest.mark.parametrize("argv,message", [
        (["zeros", "--a", "inf", "--nu", "0.5"], "a must be finite"),
        (["certify", "--a", "inf", "--nu", "0.5"], "a must be finite"),
        (["critical", "--a", "inf"], "a must be finite"),
        (["sum", "--a", "1", "--nu", "inf"], "nu must be finite"),
    ])
    def test_non_finite_parameters_rejected(self, argv, message):
        # a = inf once made the scan start inf / inf = NaN (exit 1, a
        # traceback), and nu = inf put a Dini zero at radius 1 (exit 3)
        assert run_inproc(argv) == (2, "", f"error: {message}\n")

    def test_empty_check_selection_rejected(self):
        assert run_inproc(["selftest", "--only", ","]) == (
            2, "", "error: no check ids selected\n")

    @pytest.mark.parametrize("samples", ["65537", "2000000000"])
    def test_boundary_samples_bounded(self, monkeypatch, samples):
        # 2e9 samples once meant a list of 2e9 angles and tens of GB of w
        def no_w(*args):
            raise AssertionError("w evaluated")
        monkeypatch.setattr(cli, "w_eval", no_w)
        argv = ["boundary", "--a", "1", "--nu", "0.5", "--samples", samples]
        assert run_inproc(argv) == (2, "", "error: samples must be at most 65536\n")

    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()

    def test_unknown_flag(self):
        code, _, _ = run_inproc(["zeros", "--a", "1", "--nu", "0.5", "--bogus"])
        assert code == 2

    def test_selftest_failure_exit(self, monkeypatch):
        fake = ((99, "always fails", lambda ctx: (False, "forced")),)
        monkeypatch.setattr(selftest, "_CHECKS", fake)
        code, out, _ = run_inproc(["selftest", "--only", "99"])
        assert code == 1
        assert "FAIL" in out

    def test_selftest_pass_exit(self):
        code, out, _ = run_inproc(["selftest", "--only", "3"])
        assert code == 0
        assert "PASS" in out


class TestGoldenBytes:
    def test_subprocess_determinism(self):
        argv = ["zeros", "--a", "1", "--nu", "0.5", "--n", "3"]
        r1, r2 = run_subproc(argv), run_subproc(argv)
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout
        assert r1.stdout.strip()

    def test_inproc_determinism_other_commands(self):
        for argv in (["sum", "--a", "2", "--nu", "0.5"],
                     ["critical", "--a", "2"],
                     ["certify", "--a", "1", "--nu", "0.5"],
                     ["boundary", "--a", "1", "--nu", "0.5", "--samples", "4"]):
            c1, o1, _ = run_inproc(argv)
            c2, o2, _ = run_inproc(argv)
            assert c1 == c2 == 0
            assert o1 == o2


class TestGoldenFile:
    """Argv, exit code, stdout and stderr of each pinned CLI run.  Verdicts,
    exit codes and stderr never move.  A change that moves a float
    re-records the file with ``python tests/record_golden.py`` and lists
    every moved float in CHANGES.md with its ulp distance from 40-digit
    mpmath before and after; the re-record history lives there."""

    @pytest.mark.parametrize("case", GOLDEN, ids=["_".join(c["argv"]) for c in GOLDEN])
    def test_bytes(self, case):
        assert run_inproc(case["argv"]) == (case["code"], case["stdout"],
                                            case["stderr"])


class TestZerosCommand:
    def test_json_payload(self):
        code, out, _ = run_inproc(["zeros", "--a", "1", "--nu", "0.5", "--n", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "zeros"
        assert doc["version"]
        zs = [e["zero"] for e in doc["results"]["entries"]]
        for n, z in enumerate(zs, start=1):
            assert z == pytest.approx((2 * n - 1) * math.pi / 2.0, abs=1e-10)
        assert doc["diagnostics"]["max_residual"] >= 0.0

    def test_csv_single_row(self):
        code, out, _ = run_inproc(["zeros", "--a", "2", "--nu", "0.5",
                                   "--n", "1", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,zero,lo,hi,residual"
        assert len(lines) == 2
        zero = float(lines[1].split(",")[1])
        assert zero == pytest.approx(2.0287578381104342, abs=1e-7)

    def test_roundtrip(self):
        _, out, _ = run_inproc(["zeros", "--a", "1.5", "--nu", "0.3", "--n", "3"])
        results = json.loads(out)["results"]
        table = find_zeros(DiniFamily(1.5, 0.3), 3)
        assert cli._render(table) == cli._render(results)


class TestSumCommand:
    def test_near_threshold(self):
        _, out, _ = run_inproc(["sum", "--a", "1", "--nu", "0.3062"])
        doc = json.loads(out)
        assert abs(doc["results"]["closed_value"] - 1.0) <= 1e-3

    def test_closed_value(self):
        _, out, _ = run_inproc(["sum", "--a", "1", "--nu", "0.5"])
        doc = json.loads(out)
        assert doc["results"]["closed_value"] == pytest.approx(
            math.tan(1.0) / 2.0, abs=1e-10)
        low = doc["results"]["truncated_value"]
        high = low + doc["results"]["tail_bound"]
        assert low <= doc["results"]["closed_value"] <= high

    def test_inapplicable_truncated_route(self):
        code, out, _ = run_inproc(["sum", "--a", "2", "--nu", "-0.9"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["truncated_value"] is None
        assert doc["diagnostics"]["truncated_applicable"] is False

    def test_roundtrip(self):
        _, out, _ = run_inproc(["sum", "--a", "2", "--nu", "1.1"])
        results = json.loads(out)["results"]
        crit = evaluate_criterion(DiniFamily(2, 1.1), n_terms=12)
        assert cli._render(crit) == cli._render(results)


class TestCriticalCommand:
    def test_both_references(self):
        _, out, _ = run_inproc(["critical", "--a", "2"])
        doc = json.loads(out)
        assert doc["results"]["nu_a"] == pytest.approx(-0.1438607404, abs=1e-8)
        _, out, _ = run_inproc(["critical", "--a", "1"])
        doc = json.loads(out)
        assert doc["results"]["nu_a"] == pytest.approx(0.3060766615, abs=1e-8)

    def test_roundtrip(self):
        _, out, _ = run_inproc(["critical", "--a", "2"])
        results = json.loads(out)["results"]
        assert cli._render(critical_order(2.0)) == cli._render(results)


class TestCertifyCommand:
    @pytest.mark.parametrize("a,nu,verdict", [
        ("1", "0.5", "certified"),
        ("1", "0.2", "refuted"),
        ("2", "-0.5", "refuted"),
        ("1", "-0.5", "inapplicable"),
    ])
    def test_verdicts(self, a, nu, verdict):
        code, out, _ = run_inproc(["certify", "--a", a, "--nu", nu])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["verdict"] == verdict

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_certified_with_negative_disk_minimum_refused(self, n):
        # the closed sum reads S = 0.99835 here, while 50-digit mpmath gives
        # 1.0204, and the w series 1 - S(sqrt 0.99) = -1.64e-5: no certificate
        code, out, err = run_inproc(["certify", "--a", "0.00639225", "--nu", "154",
                                     "--n", n])
        assert code == 3 and out == ""
        assert "closed sum S = 0.998" in err and "min Re(z w'/w) = -1.6" in err

    def test_roundtrip(self):
        _, out, _ = run_inproc(["certify", "--a", "1", "--nu", "0.5"])
        results = json.loads(out)["results"]
        rep = certify(DiniFamily(1, 0.5))
        assert cli._render(rep) == cli._render(results)


class TestEvalBoundary:
    def test_eval_value(self):
        _, out, _ = run_inproc(["eval", "--a", "1", "--nu", "0.5",
                                "--z", "0.25"])
        doc = json.loads(out)
        assert doc["results"]["w"]["re"] == pytest.approx(
            0.25 * math.cos(0.5), rel=1e-12)
        assert doc["results"]["w"]["im"] == 0.0

    def test_boundary_rows(self):
        from dinicert import oracle_closed_form
        code, out, _ = run_inproc(["boundary", "--a", "1", "--nu", "0.5",
                                   "--samples", "8"])
        assert code == 0
        rows = json.loads(out)["results"]["samples"]
        assert len(rows) == 8
        assert rows[0]["theta"] == 0.0
        assert rows[0]["w_im"] == 0.0  # w(1) is real
        for row in rows:
            z = complex(math.cos(row["theta"]), math.sin(row["theta"]))
            ref = oracle_closed_form("r_half", z)
            assert row["w_re"] == pytest.approx(ref.real, abs=1e-12)
            assert row["w_im"] == pytest.approx(ref.imag, abs=1e-12)
        # theta and 2 pi - theta rows mirror in the imaginary part
        for k in (1, 2, 3):
            assert rows[k]["w_im"] == pytest.approx(-rows[8 - k]["w_im"],
                                                    abs=1e-14)

    def test_boundary_csv(self):
        code, out, _ = run_inproc(["boundary", "--a", "1", "--nu", "0.5",
                                   "--samples", "4", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "theta,w_re,w_im,starlike_re_at_0p99"
        assert len(lines) == 5


class TestSelftestJson:
    def test_machine_readable(self):
        code, out, _ = run_inproc(["selftest", "--json", "--only", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "selftest"
        assert doc["results"]["checks"][0]["id"] == 3
        assert doc["results"]["checks"][0]["passed"] is True

    def test_numpy_bool_passes_serialize(self, monkeypatch):
        fake = ((98, "numpy verdict", lambda ctx: (np.bool_(True), "ok")),)
        monkeypatch.setattr(selftest, "_CHECKS", fake)
        code, out, _ = run_inproc(["selftest", "--json", "--only", "98"])
        assert code == 0
        assert '"passed": true' in out
        assert json.loads(out)["results"]["checks"][0]["passed"] is True

    def test_unknown_check_id(self):
        code, _, err = run_inproc(["selftest", "--only", "42"])
        assert code == 2
        assert "unknown check ids" in err


class TestOutFile(object):
    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "zeros.json"
        code, out, _ = run_inproc(["--out", str(target),
                                   "zeros", "--a", "1", "--nu", "0.5", "--n", "2"])
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "zeros"
