"""End-to-end tests of the command line interface.

Every invocation goes through ``main(argv)`` in-process; outputs land in
pytest temporary directories via --outdir (or the environment variable),
never in the working tree.
"""

import hashlib
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from unitfrechet import cli
from unitfrechet.bivariate import biv_sample, ratio_transform
from unitfrechet.cli import main
from unitfrechet.core import uf_sample
from unitfrechet.errors import NumericalError
from unitfrechet.inference import DataSeries, fit_uf, loglik_uf


def run(*argv):
    return main(list(argv))


def write(path, text):
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        assert run("fit", str(tmp_path / "nope.csv"), "--outdir", str(tmp_path)) == 3
        assert "cannot read" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        src = write(tmp_path / "empty.csv", "")
        assert run("fit", src, "--outdir", str(tmp_path)) == 3
        assert "no data" in capsys.readouterr().err

    def test_header_only_file(self, tmp_path, capsys):
        src = write(tmp_path / "h.csv", "w\n")
        assert run("fit", src, "--outdir", str(tmp_path)) == 3
        assert "no data" in capsys.readouterr().err

    def test_non_numeric_row(self, tmp_path, capsys):
        src = write(tmp_path / "bad.csv", "w\n0.5\nfoo\n")
        assert run("fit", src, "--outdir", str(tmp_path)) == 3
        assert "row 3" in capsys.readouterr().err

    def test_out_of_range_value(self, tmp_path, capsys):
        src = write(tmp_path / "oor.csv", "0.5\n1.5\n")
        assert run("fit", src, "--outdir", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "row 2" in err and "open interval" in err

    def test_non_finite_value(self, tmp_path, capsys):
        # DataSeries' range rule, its position mapped to the file row
        src = write(tmp_path / "nan.csv", "w\n0.5\n\nnan\n")
        assert run("fit", src, "--outdir", str(tmp_path)) == 3
        assert capsys.readouterr().err == "error: row 4: value 2 is not finite: nan\n"

    def test_ratio_column_count(self, tmp_path, capsys):
        src = write(tmp_path / "r.csv", "1.0\n")
        assert run("fit", src, "--ratio", "--outdir", str(tmp_path)) == 3
        assert "expected 2 column(s)" in capsys.readouterr().err

    def test_ratio_nonpositive_pair(self, tmp_path, capsys):
        src = write(tmp_path / "r2.csv", "1.0,2.0\n1.0,-2.0\n")
        assert run("fit", src, "--ratio", "--outdir", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "row 2" in err and "positive" in err

    @pytest.mark.parametrize("header", ("", "x1,x2\n"), ids=("bare", "header"))
    def test_ratio_rounding_to_an_endpoint(self, tmp_path, capsys, header):
        # x2/x1 underflows, so w rounds to 1; the complaint names the file row
        src = write(tmp_path / "r3.csv", header + "1,2\n\n1e308,1e-10\n")
        assert run("fit", src, "--ratio", "--outdir", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert f"row {4 if header else 3}:" in err and "open interval" in err

    def test_ratio_past_the_double_range(self, tmp_path, capsys):
        # x2/x1 overflows, so w rounds to 0, quietly; the complaint names
        # the file row
        src = write(tmp_path / "r4.csv", "1,2\n1e-320,1e308\n")
        assert run("fit", src, "--ratio", "--outdir", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "row 2:" in err and "open interval" in err

    def test_bundled_rejects_ratio(self, tmp_path, capsys):
        assert run("fit", "bundled:uefa", "--ratio", "--outdir", str(tmp_path)) == 3
        assert "univariate" in capsys.readouterr().err

    def test_unknown_model(self, tmp_path, capsys):
        assert (
            run("fit", "bundled:uefa", "--models", "weibull",
                "--outdir", str(tmp_path)) == 2
        )
        assert "unknown model" in capsys.readouterr().err
        # names are case folded before the check, and the first unknown
        # one is named
        assert run("fit", "bundled:uefa", "--models", "UF, Bogus,x",
                   "--outdir", str(tmp_path)) == 2
        assert capsys.readouterr().err == (
            "error: unknown model 'bogus'; choose from uf, beta, kumaraswamy\n"
        )

    def test_sample_zero_n(self, tmp_path, capsys):
        assert (
            run("sample", "--sigma", "1", "--alpha", "2", "--rho", "0.5",
                "-n", "0", "--seed", "1", "--outdir", str(tmp_path)) == 2
        )
        assert capsys.readouterr().err == "error: n must be an integer >= 1, got 0\n"

    @pytest.mark.parametrize(
        "model",
        [("--sigma", "1", "--alpha", "2", "--rho", "0.5"),
         ("--bivariate", "--sigma1", "1", "--sigma2", "2", "--alpha", "2", "--rho", "0.5")],
        ids=["uf", "bivariate"],
    )
    def test_sample_negative_seed(self, tmp_path, capsys, model):
        out = tmp_path / "out"
        assert run("sample", *model, "-n", "5", "--seed", "-1",
                   "--outdir", str(out)) == 2
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    def test_sample_missing_theta(self, tmp_path, capsys):
        assert (
            run("sample", "--sigma", "1", "-n", "5", "--seed", "1",
                "--outdir", str(tmp_path)) == 2
        )

    def test_bivariate_missing_scales(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert (
            run("sample", "--bivariate", "--alpha", "2", "--rho", "0.5",
                "-n", "5", "--seed", "1", "--outdir", str(out)) == 2
        )
        assert "--sigma1" in capsys.readouterr().err
        assert not out.exists()

    def test_moments_mixed_styles(self, capsys):
        assert (
            run("moments", "--sigma1", "1", "--sigma2", "1", "--alpha", "4",
                "--mu1", "1") == 2
        )

    @pytest.mark.parametrize(
        "argv, stray",
        [(("--alpha", "4", "--mu1", "1", "--mu2", "1"), "--alpha"),
         (("--sigma1", "1", "--sigma2", "1", "--alpha", "4", "--rho", "0",
           "--var1", "5"), "--var1"),
         (("--mu1", "1", "--mu2", "1", "--var1", "1", "--var2", "1", "--cov", "0",
           "--rho", "0.5"), "--rho")],
        ids=["alpha-with-direct", "var1-with-margins", "rho-with-direct"],
    )
    def test_moments_other_family_rejected(self, capsys, argv, stray):
        # each input style rejects every flag of the other one, not only
        # the scales and the means
        assert run("moments", *argv) == 2
        captured = capsys.readouterr()
        assert stray in captured.err and captured.out == ""

    def test_moments_shared_flags(self, capsys):
        # --cov, --seed, --mc-n and -p belong to neither input style
        assert run("moments", "--mu1", "1", "--mu2", "2", "--var1", "0.1",
                   "--var2", "0.2", "--cov", "0.01", "--seed", "1",
                   "--mc-n", "5", "-p", "3") == 0
        assert "E(W^3) = " in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, stray",
        [(("--sigma", "1", "--alpha", "2", "--rho", "0.5", "--sigma1", "3"),
          "--sigma1"),
         (("--bivariate", "--sigma", "9", "--sigma1", "1", "--sigma2", "1",
           "--alpha", "2", "--rho", "0.5"), "--sigma")],
        ids=["uf", "bivariate"],
    )
    def test_sample_other_family_rejected(self, tmp_path, capsys, argv, stray):
        out = tmp_path / "out"
        assert run("sample", *argv, "-n", "3", "--seed", "1",
                   "--outdir", str(out)) == 2
        assert f"does not take {stray}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_one_error_names_every_flag(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("sample", "--bivariate", "--sigma", "9", "--alpha", "2",
                   "-n", "3", "--seed", "1", "--outdir", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: bivariate input needs --sigma1, --sigma2, --rho "
            "and does not take --sigma\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", [("quantile", "-p", "0.5"), ("cdf", "-w", "0.5")],
                             ids=["quantile", "cdf"])
    def test_uf_evaluation_missing_flags(self, capsys, command):
        assert run(*command, "--alpha", "2") == 2
        assert capsys.readouterr().err == "error: UF input needs --sigma, --rho\n"

    @pytest.mark.parametrize(
        "command",
        [("sample", "--sigma", "1", "--alpha", "2", "--rho", "0.5", "-n", "3",
          "--seed", "1"),
         ("fit", "bundled:uefa", "--models", "uf")],
        ids=["sample", "fit"],
    )
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
    def test_outdir_on_a_file(self, tmp_path, capsys, command, below):
        # an --outdir that cannot be a directory is a usage error naming
        # the path, not a traceback
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        outdir = blocker / below if below else blocker
        assert run(*command, "--outdir", str(outdir)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot make output directory {outdir}: ")
        assert blocker.read_text() == "x"

    @pytest.mark.parametrize(
        "command, blocked",
        [(("sample", "--sigma", "1", "--alpha", "2", "--rho", "0.5", "-n", "3",
           "--seed", "1"), "sample.csv"),
         (("fit", "bundled:uefa", "--models", "uf"), "report_uf.txt")],
        ids=["sample", "fit"],
    )
    def test_output_file_not_writable(self, tmp_path, capsys, command, blocked):
        # an output file that cannot be written is a usage error naming
        # the file, not a traceback
        (tmp_path / blocked).mkdir()
        assert run(*command, "--outdir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / blocked}: ")

    def test_simulate_outdir_checked_before_the_study(self, tmp_path, monkeypatch,
                                                      capsys):
        cfg = write(tmp_path / "c.json", json.dumps({"thetas": [[1.0, 2.0, 0.5]]}))
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        monkeypatch.setattr(cli, "run_study", lambda config: pytest.fail("study ran"))
        assert run("simulate", "--config", cfg, "--outdir", str(blocker)) == 2
        assert f"output directory {blocker}" in capsys.readouterr().err

    def test_outdir_from_environment_on_a_file(self, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        monkeypatch.setenv("UNITFRECHET_OUTDIR", str(blocker))
        assert run("sample", "--sigma", "1", "--alpha", "2", "--rho", "0.5",
                   "-n", "3", "--seed", "1") == 2
        assert str(blocker) in capsys.readouterr().err

    def test_moments_heavy_tail(self, capsys):
        assert (
            run("moments", "--sigma1", "1", "--sigma2", "1", "--alpha", "1.5",
                "--rho", "0", ) == 2
        )
        assert "alpha <= 2" in capsys.readouterr().err

    def test_moments_past_the_double_range(self, capsys):
        # sigma^2 = 1e600: the margin variances cannot be held, so a usage
        # error, not a traceback
        assert (
            run("moments", "--sigma1", "1e300", "--sigma2", "1e300", "--alpha", "3",
                "--rho", "0") == 2
        )
        assert "leave the double range" in capsys.readouterr().err

    def test_moments_large_scales(self, capsys):
        # the moments of W are scale free: margins at 1e100 print what
        # margins at 1 do
        for scale in ("1", "1e100"):
            assert run("moments", "--sigma1", scale, "--sigma2", scale, "--alpha", "6",
                       "--rho", "0") == 0
        small, large = capsys.readouterr().out.split("E(W)")[1:]
        assert small == large

    def test_moments_error_prints_no_result(self, capsys):
        # every value is formed before any is printed
        assert (
            run("moments", "--sigma1", "1", "--sigma2", "1", "--alpha", "6",
                "--rho", "0.5", "--cov", "0.01", "-p", "nan") == 2
        )
        assert capsys.readouterr().out == ""

    def test_moments_needs_seed_for_mc(self, capsys):
        assert (
            run("moments", "--sigma1", "1", "--sigma2", "1", "--alpha", "4",
                "--rho", "0.5") == 2
        )
        assert "--seed" in capsys.readouterr().err

    def test_moments_negative_seed(self, capsys):
        assert (
            run("moments", "--sigma1", "1", "--sigma2", "1", "--alpha", "4",
                "--rho", "0.5", "--seed", "-3") == 2
        )
        assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -3\n"

    def test_numerical_failure_code(self, tmp_path, monkeypatch, capsys):
        def boom(*a, **k):
            raise NumericalError("synthetic numerical failure")

        monkeypatch.setattr(cli, "uf_quantile", boom)
        assert (
            run("quantile", "-p", "0.5", "--sigma", "1", "--alpha", "1",
                "--rho", "0") == 4
        )
        assert "synthetic" in capsys.readouterr().err

    def test_cdf_nan(self, capsys):
        assert run("cdf", "-w", "nan", "--sigma", "1", "--alpha", "2",
                   "--rho", "0.5") == 2
        assert "NaN" in capsys.readouterr().err

    def test_quantile_p_out_of_range(self, capsys):
        assert (
            run("quantile", "-p", "1.5", "--sigma", "1", "--alpha", "1",
                "--rho", "0") == 2
        )

    def test_simulate_missing_config(self, tmp_path, capsys):
        assert run("simulate", "--config", str(tmp_path / "c.json"),
                   "--outdir", str(tmp_path)) == 3

    def test_simulate_invalid_json(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.json", "{not json")
        assert run("simulate", "--config", cfg, "--outdir", str(tmp_path)) == 3
        assert "invalid JSON" in capsys.readouterr().err

    def test_simulate_config_field_paths(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "c.json",
            json.dumps({
                "thetas": [[1, 2, 0.5], [0, -1, 2]],
                "sample_sizes": [30, 2, 30.7],
                "replications": True,
                "master_seed": 2.9,
                "parallelism": 1.5,
                "bogus": 1,
            }),
        )
        assert run("simulate", "--config", cfg, "--outdir", str(tmp_path)) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: bogus: unknown field",
            "thetas[1][0]: sigma must be finite and > 0, got 0.0",
            "thetas[1][1]: alpha must be finite and > 0, got -1.0",
            "thetas[1][2]: rho must lie in [0, 1], got 2.0",
            "sample_sizes[1] must be an integer >= 4, got 2",
            "sample_sizes[2] must be an integer >= 4, got 30.7",
            "replications must be an integer >= 1, got True",
            "master_seed must be an integer >= 0, got 2.9",
            "parallelism must be an integer >= 1, got 1.5",
        ]

    def test_simulate_theta_past_the_double_range(self, tmp_path, capsys):
        # JSON reads a 401-digit integer exactly; float() cannot hold it
        cfg = write(tmp_path / "c.json", '{"thetas": [[1' + "0" * 400 + ", 2, 0.5]]}")
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--outdir", str(out)) == 3
        err = capsys.readouterr().err
        assert "thetas[0][0]: sigma must be a number within the double range" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestPrintedValues:
    def test_quantile_median(self, capsys):
        assert run("quantile", "-p", "0.5", "--sigma", "3", "--alpha", "1.7",
                   "--rho", "0.9") == 0
        assert capsys.readouterr().out.strip() == "0.75"

    def test_cdf_median(self, capsys):
        assert run("cdf", "-w", "0.5", "--sigma", "1", "--alpha", "9",
                   "--rho", "1") == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_moments_symmetric(self, capsys):
        assert run("moments", "--sigma1", "1", "--sigma2", "1", "--alpha", "4",
                   "--rho", "0") == 0
        out = capsys.readouterr().out
        assert "E(W) = 0.5" in out
        assert "Var(W) = " in out

    def test_moments_extra_exponent(self, capsys):
        assert run("moments", "--sigma1", "1", "--sigma2", "1", "--alpha", "4",
                   "--rho", "0", "-p", "2") == 0
        assert "E(W^2) = " in capsys.readouterr().out

    def test_moments_mc_covariance(self, capsys):
        assert run("moments", "--sigma1", "1", "--sigma2", "1", "--alpha", "4",
                   "--rho", "0.9", "--seed", "3", "--mc-n", "10000") == 0
        captured = capsys.readouterr()
        assert "cov_estimate" in captured.err
        assert "E(W) = 0.5" in captured.out

    def test_version(self, capsys):
        assert run("--version") == 0
        assert "unitfrechet" in capsys.readouterr().out


class TestSample:
    def test_deterministic_bytes(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        args = ("sample", "--sigma", "1", "--alpha", "2", "--rho", "0.5",
                "-n", "1000", "--seed", "7")
        assert run(*args, "--outdir", str(d1)) == 0
        assert run(*args, "--outdir", str(d2)) == 0
        assert (d1 / "sample.csv").read_bytes() == (d2 / "sample.csv").read_bytes()
        assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()

    def test_seed_changes_output(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        common = ("sample", "--sigma", "1", "--alpha", "2", "--rho", "0.5", "-n", "50")
        assert run(*common, "--seed", "7", "--outdir", str(d1)) == 0
        assert run(*common, "--seed", "8", "--outdir", str(d2)) == 0
        assert (d1 / "sample.csv").read_bytes() != (d2 / "sample.csv").read_bytes()

    def test_roundtrip_exact(self, tmp_path, capsys):
        assert run("sample", "--sigma", "0.8", "--alpha", "1.5", "--rho", "0.3",
                   "-n", "50", "--seed", "11", "--outdir", str(tmp_path)) == 0
        lines = (tmp_path / "sample.csv").read_text().splitlines()
        assert lines[0] == "w"
        parsed = np.array([float(v) for v in lines[1:]])
        direct = uf_sample((0.8, 1.5, 0.3), 50, 11)
        assert np.array_equal(parsed, direct)

    def test_bivariate_file(self, tmp_path, capsys):
        assert run("sample", "--bivariate", "--sigma1", "1", "--sigma2", "2",
                   "--alpha", "2", "--rho", "0.7", "-n", "20", "--seed", "5",
                   "--outdir", str(tmp_path)) == 0
        lines = (tmp_path / "sample.csv").read_text().splitlines()
        assert lines[0] == "x1,x2"
        parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(parsed, biv_sample((1.0, 2.0, 2.0, 0.7), 20, 5))

    def test_manifest_digest_invariant(self, tmp_path, capsys):
        uf_dir, biv_dir = tmp_path / "uf", tmp_path / "biv"
        assert run("sample", "--sigma", "1", "--alpha", "2", "--rho", "0.5",
                   "-n", "10", "--seed", "9", "--outdir", str(uf_dir)) == 0
        assert run("sample", "--bivariate", "--sigma1", "1", "--sigma2", "2",
                   "--alpha", "3", "--rho", "0.7", "-n", "12", "--seed", "4",
                   "--outdir", str(biv_dir)) == 0
        expected = {
            uf_dir: {"bivariate": False, "sigma": 1.0, "alpha": 2.0, "rho": 0.5,
                     "n": 10, "seed": 9},
            biv_dir: {"bivariate": True, "sigma1": 1.0, "sigma2": 2.0,
                      "alpha": 3.0, "rho": 0.7, "n": 12, "seed": 4},
        }
        for outdir, options in expected.items():
            doc = json.loads((outdir / "manifest.json").read_text())
            assert doc["command"] == "sample"
            assert doc["master_seed"] == options["seed"]
            assert doc["options"] == options
            # bools stay bools, integers integers and floats floats
            assert {k: type(v) for k, v in doc["options"].items()} == {
                k: type(v) for k, v in options.items()
            }
            recomputed = hashlib.sha256(
                json.dumps(doc["options"], sort_keys=True).encode()
            ).hexdigest()
            assert doc["input_digest"] == recomputed


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = main(["fit", "bundled:uefa", "--outdir", str(out)])
    assert code == 0
    return out


class TestFit:

    def test_all_outputs_exist(self, fit_dir):
        names = {p.name for p in fit_dir.iterdir()}
        for model in ("uf", "beta", "kumaraswamy"):
            assert f"report_{model}.txt" in names
            assert f"residuals_{model}.csv" in names
            assert f"plot_pdf_{model}.csv" in names
            assert f"plot_cdf_{model}.csv" in names
            assert f"plot_qq_{model}.csv" in names
        assert {"plot_hist.csv", "plot_ecdf.csv", "comparison.csv",
                "manifest.json"} <= names

    def test_comparison_table(self, fit_dir):
        lines = (fit_dir / "comparison.csv").read_text().splitlines()
        assert lines[0] == (
            "rank,model,k_params,loglik,aic,bic,ks_stat,ks_pvalue,"
            "converged,boundary_hit"
        )
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[1] for r in rows] == ["kumaraswamy", "beta", "uf"]
        logliks = {r[1]: float(r[3]) for r in rows}
        assert_allclose(logliks["uf"], 4.935275506594081, rtol=1e-9)
        assert_allclose(logliks["beta"], 4.94035797480469, rtol=1e-9)
        assert_allclose(logliks["kumaraswamy"], 4.985622379038308, rtol=1e-9)
        assert all(r[8] == "true" for r in rows)

    def test_report_machine_block(self, fit_dir):
        text = (fit_dir / "report_uf.txt").read_text()
        assert "--- machine readable ---" in text
        doc = json.loads(text.split("--- machine readable ---", 1)[1])
        assert doc["model"] == "uf"
        assert doc["n"] == 37
        assert doc["boundary_hit"] is True
        assert_allclose(doc["theta_hat"][0], 0.7956563513998594, rtol=1e-6)
        assert doc["theta_hat"][2] == 0.0

    @pytest.mark.parametrize("model", ["uf", "beta"])
    def test_report_layout(self, fit_dir, model):
        # pins every byte of the report given its values: labels, line
        # order and number formats of the text block, key order and
        # layout of the JSON block
        text = (fit_dir / f"report_{model}.txt").read_text()
        head, block = text.split("\n\n--- machine readable ---\n")
        doc = json.loads(block)
        assert list(doc) == [
            "model", "n", "param_names", "theta_hat", "loglik", "aic", "bic",
            "k_params", "ks_stat", "ks_pvalue", "converged", "boundary_hit",
            "iterations", "message",
        ]
        assert block == json.dumps(doc, indent=2) + "\n"
        theta = "  ".join(
            f"{name}={value:.10g}"
            for name, value in zip(doc["param_names"], doc["theta_hat"])
        )
        rows = [
            ("model", doc["model"]),
            ("n", str(doc["n"])),
            ("theta_hat", theta),
            *((key, f"{doc[key]:.10g}") for key in ("loglik", "aic", "bic")),
            ("k_params", str(doc["k_params"])),
            *((key, f"{doc[key]:.10g}") for key in ("ks_stat", "ks_pvalue")),
            ("converged", json.dumps(doc["converged"])),
            ("boundary_hit", json.dumps(doc["boundary_hit"])),
            ("iterations", str(doc["iterations"])),
            ("message", doc["message"]),
        ]
        assert head == "\n".join(f"{key:<13} {value}" for key, value in rows)

    def test_residual_and_plot_sizes(self, fit_dir):
        assert len((fit_dir / "residuals_uf.csv").read_text().splitlines()) == 38
        assert len((fit_dir / "plot_pdf_uf.csv").read_text().splitlines()) == 402
        assert len((fit_dir / "plot_ecdf.csv").read_text().splitlines()) == 38
        # Sturges for n=37: ceil(log2(37)) + 1 = 7 bins
        assert len((fit_dir / "plot_hist.csv").read_text().splitlines()) == 8
        headers = {
            "plot_hist.csv": "bin_left,bin_right,density",
            "plot_ecdf.csv": "w,ecdf",
            "comparison.csv": "rank,model,k_params,loglik,aic,bic,ks_stat,"
                              "ks_pvalue,converged,boundary_hit",
        }
        for model in ("uf", "beta", "kumaraswamy"):
            headers[f"residuals_{model}.csv"] = "index,w,residual"
            headers[f"plot_pdf_{model}.csv"] = "w,pdf"
            headers[f"plot_cdf_{model}.csv"] = "w,cdf"
            headers[f"plot_qq_{model}.csv"] = "theoretical,sample"
        text_columns = {
            "model": {"uf", "beta", "kumaraswamy"},
            "converged": {"true", "false"},
            "boundary_hit": {"true", "false"},
        }
        assert {p.name for p in fit_dir.glob("*.csv")} == set(headers)
        for name, header in headers.items():
            lines = (fit_dir / name).read_text().splitlines()
            assert lines[0] == header, name
            columns = header.split(",")
            for line in lines[1:]:
                cells = line.split(",")
                assert len(cells) == len(columns), (name, line)
                for column, cell in zip(columns, cells):
                    if column in text_columns:
                        assert cell in text_columns[column], (name, cell)
                    else:
                        # every number is written at full precision
                        assert cell == "%.17g" % float(cell), (name, cell)

    def test_manifest_digest_invariant(self, fit_dir, uefa):
        doc = json.loads((fit_dir / "manifest.json").read_text())
        assert doc["command"] == "fit"
        recomputed = hashlib.sha256(
            "\n".join("%.17g" % v for v in uefa.values).encode()
        ).hexdigest()
        assert doc["input_digest"] == recomputed

    def test_stdout_blocks(self, tmp_path, capsys):
        assert main(["fit", "bundled:uefa", "--models", "uf",
                     "--outdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "descriptives" in out
        assert "0.454351" in out  # mean to 6 significant digits
        assert "model ranking" in out

    def test_kumaraswamy_with_underflowing_scan(self, tmp_path, capsys):
        # every w^a of this sample is below rounding against 1 at large
        # shapes, where b(a) = -n / sum log(1 - w^a) can come out
        # infinite; the fit still finishes with exit 0
        from unitfrechet.simulation import replication_seed

        w = uf_sample((0.5, 4.0, 0.2), 50, replication_seed(7, 1, 50, 1))
        src = write(tmp_path / "w.csv", "".join(f"{float(v)!r}\n" for v in w))
        assert run("fit", src, "--models", "kumaraswamy",
                   "--outdir", str(tmp_path / "out")) == 0
        report = (tmp_path / "out" / "report_kumaraswamy.txt").read_text()
        assert '"converged": true' in report

    def test_near_constant_data(self, tmp_path, capsys):
        # a range one double wide holds one histogram bin, and a
        # Kumaraswamy fit whose b overflows is reported, not raised
        src = write(tmp_path / "w.csv", "0.5\n0.5\n0.5\n0.5000000000000001\n")
        out = tmp_path / "out"
        assert run("fit", src, "--models", "uf,kumaraswamy", "--outdir", str(out)) == 0
        assert (out / "plot_hist.csv").read_text().splitlines() == [
            "bin_left,bin_right,density", "0.5,0.50000000000000011,9007199254740992"]
        report = (out / "report_kumaraswamy.txt").read_text()
        assert '"converged": false' in report and '"ks_stat": NaN' in report

    def test_near_constant_beta_is_not_ranked_or_plotted(self, tmp_path, capsys):
        # the Beta fit's shapes near 3e31 leave its log-likelihood as
        # rounding error: the fit reports none, so it ranks behind the UF
        # fit and gets no plots, whose density would overflow to inf (and
        # warn). The Kumaraswamy fit's finite loglik at b = inf belongs to
        # no model either: it sinks too, behind Beta in the given order
        src = write(tmp_path / "w.csv", "0.5\n0.5\n0.5\n0.5000000000000001\n")
        out = tmp_path / "out"
        assert run("fit", src, "--outdir", str(out)) == 0
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["uf", "beta", "kumaraswamy"]
        assert not list(out.glob("plot_*_beta.csv"))
        assert not list(out.glob("plot_*_kumaraswamy.csv"))
        for path in out.glob("*.csv"):
            assert "inf" not in path.read_text(), path.name

    def test_outdir_from_environment(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "envout"
        monkeypatch.setenv("UNITFRECHET_OUTDIR", str(target))
        assert main(["fit", "bundled:uefa", "--models", "beta"]) == 0
        assert (target / "report_beta.txt").exists()


class TestSimulateCli:
    def test_small_study_outputs(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "c.json",
            json.dumps({
                "thetas": [[1.0, 2.0, 0.5]],
                "sample_sizes": [30],
                "replications": 3,
                "master_seed": 9,
            }),
        )
        assert run("simulate", "--config", cfg, "--outdir", str(tmp_path)) == 0
        lines = (tmp_path / "simreport.csv").read_text().splitlines()
        assert lines[0] == "theta_index,n,param,rb,mse,rmse,failures"
        assert len(lines) == 4  # one cell, three parameters
        cells = json.loads((tmp_path / "cells.json").read_text())
        assert len(cells) == 1
        cell = cells[0]
        assert cell["theta"] == [1.0, 2.0, 0.5]
        assert cell["failures"] + cell["used"] == 3
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["master_seed"] == 9
        # sha256 of the config's canonical JSON, defaults filled in
        assert doc["input_digest"] == (
            "593e49a5277cd8fdc357fddbca4f8de16c448c41e7997c222acf27f750cfa057"
        )

    def test_study_file_layouts(self, tmp_path, capsys):
        # cells.json and the simreport.csv header are derived from
        # CellResult and SimReport.iter_rows; their layouts are fixed here
        cfg = write(
            tmp_path / "c.json",
            json.dumps({"thetas": [[1.0, 2.0, 0.5], [0.5, 1.0, 0.0]],
                        "sample_sizes": [30, 31], "replications": 2}),
        )
        assert run("simulate", "--config", cfg, "--outdir", str(tmp_path)) == 0
        header = (tmp_path / "simreport.csv").read_text().splitlines()[0]
        assert header == "theta_index,n,param,rb,mse,rmse,failures"
        cells = json.loads((tmp_path / "cells.json").read_text())
        assert len(cells) == 4
        for cell in cells:
            assert list(cell) == [
                "theta_index", "theta", "n", "rb", "mse", "rmse",
                "failures", "boundary", "used",
            ]

    def test_parallelism_does_not_change_results(self, tmp_path, capsys):
        base = {
            "thetas": [[1.0, 2.0, 0.5]],
            "sample_sizes": [30, 40],
            "replications": 3,
            "master_seed": 13,
        }
        d1, d2 = tmp_path / "serial", tmp_path / "parallel"
        c1 = write(tmp_path / "c1.json", json.dumps({**base, "parallelism": 1}))
        c2 = write(tmp_path / "c2.json", json.dumps({**base, "parallelism": 2}))
        assert run("simulate", "--config", c1, "--outdir", str(d1)) == 0
        assert run("simulate", "--config", c2, "--outdir", str(d2)) == 0
        assert (d1 / "simreport.csv").read_bytes() == (d2 / "simreport.csv").read_bytes()
        assert (d1 / "cells.json").read_bytes() == (d2 / "cells.json").read_bytes()

    def test_sharded_simulate_byte_identical(self, tmp_path, capsys):
        # 7 replications per cell do not divide evenly into shards
        base = {
            "thetas": [[1.0, 2.0, 0.5], [0.5, 1.0, 0.2]],
            "sample_sizes": [30, 40],
            "replications": 7,
            "master_seed": 21,
        }
        d1, d3 = tmp_path / "p1", tmp_path / "p3"
        c1 = write(tmp_path / "c1.json", json.dumps({**base, "parallelism": 1}))
        c3 = write(tmp_path / "c3.json", json.dumps({**base, "parallelism": 3}))
        assert run("simulate", "--config", c1, "--outdir", str(d1)) == 0
        assert run("simulate", "--config", c3, "--outdir", str(d3)) == 0
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d3.iterdir())
        assert len(names) > 1
        for name in names:
            # the manifest names the config file and digests parallelism
            if name != "manifest.json":
                assert (d1 / name).read_bytes() == (d3 / name).read_bytes(), name


class TestEndToEnd:
    def test_bivariate_sample_ratio_fit_recovers(self, tmp_path, capsys):
        # sampling (1,2,2,0.7) and fitting the ratio column through the
        # CLI must give the library's fit of the same pairs. At n = 5000
        # the (alpha, rho) estimates spread too widely for a 10% band on
        # the truth to hold on most seeds, so the checks are what every
        # draw must satisfy: the fit is at least as likely as the truth,
        # and sigma1/sigma2 = 0.5, which the data pin down, is recovered
        assert run("sample", "--bivariate", "--sigma1", "1", "--sigma2", "2",
                   "--alpha", "2", "--rho", "0.7", "-n", "5000", "--seed", "6",
                   "--outdir", str(tmp_path)) == 0
        assert run("fit", str(tmp_path / "sample.csv"), "--ratio",
                   "--models", "uf", "--outdir", str(tmp_path)) == 0
        text = (tmp_path / "report_uf.txt").read_text()
        doc = json.loads(text.split("--- machine readable ---", 1)[1])
        data = DataSeries(tuple(
            ratio_transform(biv_sample((1.0, 2.0, 2.0, 0.7), 5000, 6)).tolist()
        ))
        theta_hat = doc["theta_hat"]
        assert theta_hat == list(fit_uf(data).theta_hat)
        assert loglik_uf(theta_hat, data) >= loglik_uf((0.5, 2.0, 0.7), data)
        assert abs(theta_hat[0] - 0.5) / 0.5 < 0.10

    def test_ratio_of_huge_pairs(self, tmp_path):
        # x1 + x2 overflows for these rows; the ratio must not
        src = write(tmp_path / "huge.csv", "x1,x2\n1e308,1e308\n1e308,5e307\n1,3\n")
        data = cli._read_series(src, ratio=True)
        assert_allclose(data.array, [0.5, 2.0 / 3.0, 0.25], rtol=1e-15)
