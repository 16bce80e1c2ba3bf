import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from wright_poisson import cli
from wright_poisson.distribution import MomentReport, new_wright_poisson
from wright_poisson.estimation import CountData, fit_m


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPmf:
    def test_classical_table(self, capsys):
        code, out, _ = run(
            capsys, "pmf", "--alpha", "1", "--beta", "1", "--m", "1",
            "--r-max", "2", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        e = math.exp(-1.0)
        assert [row["r"] for row in rows] == [0, 1, 2]
        assert rows[0]["pmf"] == pytest.approx(e, rel=1e-12)
        assert rows[1]["pmf"] == pytest.approx(e, rel=1e-12)
        assert rows[2]["pmf"] == pytest.approx(e / 2.0, rel=1e-12)

    def test_bad_m_exit_2(self, capsys):
        code, _, err = run(
            capsys, "pmf", "--alpha", "1", "--beta", "1", "--m", "-1",
            "--r-max", "2",
        )
        assert code == 2
        assert "m must be > 0" in err

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_negative_r_max_exit_2(self, capsys, fmt):
        code, out, err = run(
            capsys, "pmf", "--alpha", "1", "--beta", "1", "--m", "1",
            "--r-max", "-1", "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert "--r-max" in err

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_non_convergence_exit_4(self, capsys, fmt):
        code, out, err = run(
            capsys, "pmf", "--alpha", "0.1", "--beta", "1", "--m", "5",
            "--r-max", "2", "--format", fmt,
        )
        assert code == 4
        assert out == ""
        assert "needs about 9.79e+07 terms" in err

    def test_table_reports_final_cdf(self, capsys):
        code, out, err = run(
            capsys, "pmf", "--alpha", "1", "--beta", "1", "--m", "1", "--r-max", "2",
        )
        assert code == 0
        d = new_wright_poisson(1.0, 1.0, 1.0)
        assert [line.split() for line in out.splitlines()] == [["r", "pmf", "cdf"]] + [
            [str(r), f"{d.pmf(r):.11e}", f"{d.cdf(r):.11e}"] for r in range(3)
        ]
        assert err == f"final cdf: {d.cdf(2):.11e}\n"

    def test_csv_header(self, capsys):
        code, out, _ = run(
            capsys, "pmf", "--alpha", "1", "--beta", "1", "--m", "1",
            "--r-max", "1", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "r,pmf,cdf"

    def test_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "pmf", "--alpha", "0.5", "--beta", "1.5", "--m", "2",
            "--r-max", "5", "--format", "json",
        )
        rows = json.loads(out)
        assert json.loads(json.dumps(rows)) == rows


class TestMoments:
    def test_classical(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--alpha", "1", "--beta", "1", "--m", "3",
            "--format", "json",
        )
        assert code == 0
        vals = {row["method"]: row["value"] for row in json.loads(out)}
        assert vals["mean_series"] == pytest.approx(3.0, rel=1e-10)
        assert vals["variance"] == pytest.approx(3.0, rel=1e-9)

    def test_methods_agree(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--alpha", "2", "--beta", "1", "--m", "1",
            "--format", "json",
        )
        assert code == 0
        vals = {row["method"]: row["value"] for row in json.loads(out)}
        assert abs(vals["mean_series"] - vals["mean_closed_i"]) <= 1e-10
        assert abs(vals["mean_series"] - vals["mean_closed_ii"]) <= 1e-10

    def test_disagreement_exit_3(self, capsys, monkeypatch):
        fake = MomentReport(1.0, 1.0, 1.5, 2.0, 2.0, 2.0, 1.0, 0.5)
        monkeypatch.setattr(
            "wright_poisson.distribution.WrightPoisson.moment_report",
            lambda self: fake,
        )
        code, _, err = run(
            capsys, "moments", "--alpha", "1", "--beta", "1", "--m", "1",
        )
        assert code == 3
        assert "disagree" in err


class TestMgf:
    def test_values(self, capsys):
        code, out, _ = run(
            capsys, "mgf", "--alpha", "1", "--beta", "1", "--m", "1",
            "--t", "0", str(math.log(2.0)), "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["mgf"] == pytest.approx(1.0, rel=1e-12)
        assert rows[1]["mgf"] == pytest.approx(math.e, rel=1e-12)

    @pytest.mark.parametrize("ts", [["-1e-3"], ["0.5", "-1e-3", "-2E+1"]])
    def test_negative_t_in_exponent_form(self, capsys, ts):
        code, out, _ = run(
            capsys, "mgf", "--alpha", "1", "--beta", "1", "--m", "1",
            "--t", *ts, "--format", "json",
        )
        assert code == 0
        d = new_wright_poisson(1.0, 1.0, 1.0)
        assert json.loads(out) == [{"t": float(t), "mgf": d.mgf(float(t))} for t in ts]

    def test_negative_shape_in_exponent_form_exit_2(self, capsys):
        code, out, err = run(
            capsys, "mgf", "--alpha", "-1e-3", "--beta", "1", "--m", "1", "--t", "0",
        )
        assert code == 2 and out == ""
        assert "alpha" in err

    def test_overflowing_t_exit_2(self, capsys):
        code, _, err = run(
            capsys, "mgf", "--alpha", "1", "--beta", "1", "--m", "2",
            "--t", "800",
        )
        assert code == 2
        assert "t = 800" in err

    def test_overflowing_mgf_exit_2(self, capsys):
        # e^70 * 1 is finite, but mgf(70) at alpha = 10 is about e^1097
        code, out, err = run(
            capsys, "mgf", "--alpha", "10", "--beta", "1", "--m", "1",
            "--t", "70", "--format", "json",
        )
        assert code == 2 and out == ""
        assert "t = 70.0 is too large" in err

    def test_underflowing_e_t_m_is_pmf_0(self, capsys):
        code, out, _ = run(
            capsys, "mgf", "--alpha", "1", "--beta", "1", "--m", "2",
            "--t", "-800", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)[0]["mgf"] == pytest.approx(math.exp(-2.0), rel=1e-15)


class TestSample:
    def test_deterministic_output(self, capsys):
        args = ("sample", "--alpha", "1", "--beta", "1", "--m", "4",
                "--n", "50", "--seed", "5", "--format", "csv")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_single_draw(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--alpha", "1", "--beta", "1", "--m", "1",
            "--n", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value"
        assert int(lines[1]) >= 0

    def test_table_lists_values_then_moments(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--alpha", "1", "--beta", "1", "--m", "4",
            "--n", "5", "--seed", "3",
        )
        assert code == 0
        values = new_wright_poisson(1.0, 1.0, 4.0).sample(5, 3).values
        *lines, summary = out.splitlines()
        assert lines == [str(v) for v in values]
        assert summary == (
            f"mean {float(values.mean()):.11e} variance {float(values.var()):.11e}"
        )

    def test_json_summary(self, capsys):
        code, out, _ = run(
            capsys, "sample", "--alpha", "1", "--beta", "1", "--m", "4",
            "--n", "2000", "--seed", "1", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["n"] == 2000
        assert len(payload["values"]) == 2000
        assert payload["empirical_mean"] == pytest.approx(
            float(np.mean(payload["values"]))
        )

    def test_negative_seed_exit_2_names_seed(self, capsys):
        code, out, err = run(
            capsys, "sample", "--alpha", "1", "--beta", "1", "--m", "4",
            "--n", "5", "--seed", "-1",
        )
        assert code == 2 and out == ""
        assert "seed must be an integer >= 0" in err


class TestFit:
    def test_m_only(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        counts = rng.poisson(4.0, 5000)
        f = tmp_path / "counts.txt"
        f.write_text("\n".join(str(c) for c in counts) + "\n")
        code, out, _ = run(
            capsys, "fit", str(f), "--mode", "m-only",
            "--alpha", "1", "--beta", "1", "--format", "json",
        )
        assert code == 0
        vals = {row["field"]: row["value"] for row in json.loads(out)}
        assert vals["m"] == pytest.approx(float(counts.mean()), abs=1e-5)

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "fit", "/no/such/file")
        assert code == 2

    def test_directory_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "fit", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_parse_error_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1\n-3\n")
        code, _, err = run(capsys, "fit", str(f), "--mode", "m-only",
                           "--alpha", "1", "--beta", "1")
        assert code == 2
        assert "line 2" in err

    def test_count_past_int64_exit_2(self, capsys, tmp_path):
        f = tmp_path / "big.txt"
        f.write_text(f"{10**23}\n1\n")
        code, _, err = run(capsys, "fit", str(f), "--mode", "m-only",
                           "--alpha", "1", "--beta", "1")
        assert code == 2
        assert str(10**23) in err

    def test_m_only_requires_shapes(self, capsys, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("1\n2\n")
        code, _, _ = run(capsys, "fit", str(f), "--mode", "m-only")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_shape_exit_2(self, capsys, tmp_path, flag, value):
        f = tmp_path / "c.txt"
        f.write_text("1\n2\n")
        shapes = {"--alpha": "1", "--beta": "1", flag: value}
        code, _, err = run(capsys, "fit", str(f), "--mode", "m-only",
                           *(x for kv in shapes.items() for x in kv))
        assert code == 2
        assert f"{flag[2:]} must be > 0" in err

    def test_full_converges(self, capsys, tmp_path):
        counts = np.random.default_rng(314).poisson(4.0, 20_000)
        f = tmp_path / "counts.txt"
        f.write_text("\n".join(str(c) for c in counts) + "\n")
        code, out, _ = run(capsys, "fit", str(f), "--mode", "full", "--format", "json")
        assert code == 0
        vals = {row["field"]: row["value"] for row in json.loads(out)}
        assert vals["converged"] == "True"
        assert vals["profile"] == "full"


class TestRecordRows:
    """moments and fit print one row per field of the library's record, in
    declaration order, whatever the format."""

    @pytest.fixture(params=["moments", "fit"])
    def command(self, request, tmp_path):
        if request.param == "moments":
            argv = ["moments", "--alpha", "0.7", "--beta", "1.3", "--m", "4"]
            return argv, new_wright_poisson(0.7, 1.3, 4.0).moment_report()
        counts = np.random.default_rng(8).poisson(4.0, 500)
        f = tmp_path / "counts.txt"
        f.write_text("\n".join(str(c) for c in counts) + "\n")
        argv = ["fit", str(f), "--mode", "m-only", "--alpha", "1.2", "--beta", "0.9"]
        return argv, fit_m(CountData.from_counts(counts), 1.2, 0.9)

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_names_every_field_in_order(self, capsys, command, fmt):
        argv, record = command
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        if fmt == "json":
            names = [next(iter(row.values())) for row in json.loads(out)]
        else:
            sep = "," if fmt == "csv" else None
            names = [line.split(sep)[0] for line in out.splitlines()[1:]]
        assert names == [f.name for f in dataclasses.fields(record)]

    def test_json_values_are_the_records(self, capsys, command):
        argv, record = command
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        want = {name: str(v) if isinstance(v, bool) else v
                for name, v in dataclasses.asdict(record).items()}
        assert dict(row.values() for row in json.loads(out)) == want


class TestCheck:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--grid-size", "2",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert all(r["passed"] for r in rows)
        names = {r["check"] for r in rows}
        assert "classical-reduction" in names
        assert "normalization" in names

    def test_impossible_tolerance_fails(self, capsys):
        code, _, err = run(capsys, "check", "--grid-size", "1",
                           "--tolerance", "1e-30")
        assert code == 1
        assert "FAIL" in err

    @pytest.mark.parametrize("size", ["-1", "0", "6"])
    def test_grid_size_out_of_range_exit_2(self, capsys, size):
        code, out, err = run(capsys, "check", "--grid-size", size)
        assert code == 2
        assert out == ""
        assert "--grid-size" in err

    def test_report_sorted(self, capsys):
        code, out, _ = run(capsys, "check", "--grid-size", "2",
                           "--format", "json")
        rows = json.loads(out)
        keys = [(r["check"], r["params"]) for r in rows]
        assert keys == sorted(keys)


class TestGlobalBehavior:
    def test_env_var_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_REL_TOL, "1e-6")
        code, out, _ = run(
            capsys, "pmf", "--alpha", "1", "--beta", "1", "--m", "1",
            "--r-max", "0", "--format", "json",
        )
        assert code == 0
        # flag wins over env
        code2, out2, _ = run(
            capsys, "pmf", "--alpha", "1", "--beta", "1", "--m", "1",
            "--r-max", "0", "--rel-tol", "1e-15", "--format", "json",
        )
        assert code2 == 0
        assert json.loads(out2)[0]["pmf"] == pytest.approx(
            math.exp(-1.0), rel=1e-13
        )

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "pmf", "--alpha", "1", "--beta", "1", "--m", "1",
            "--r-max", "1", "--format", "json", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())

    def test_out_to_a_directory_exit_2(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "pmf", "--alpha", "1", "--beta", "1", "--m", "1",
            "--r-max", "1", "--out", str(tmp_path),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_command_exit_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_too_few_max_terms_names_the_option(self, capsys):
        code, out, err = run(
            capsys, "pmf", "--alpha", "1", "--beta", "1", "--m", "1",
            "--r-max", "2", "--max-terms", "5",
        )
        assert code == 2
        assert out == ""
        assert "max_terms must be an integer >= 8, got 5" in err
        assert "min_terms" not in err

    def test_import_leaves_out_scipy_optimize(self):
        # only fit_full needs it, and importing it adds about 0.3 s to every start
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = "import sys, wright_poisson.cli; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.strip() == "False"
