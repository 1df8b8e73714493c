"""Command-line interface: dispatch, determinism, artifacts, exit codes."""

import csv
import json
import os

import pytest

from simlab import cli
from simlab.cli import main
from simlab.distances import NonFiniteDensityError
from simlab.fourier import FourierSeries, series_to_json
from simlab.model import load
from simlab.shifts import raised_cosine_density, shift_to_json


@pytest.fixture()
def truth_files(tmp_path):
    theta = FourierSeries.from_dict({1: 1.0 + 0j, 2: 0.5 + 0j}, cutoff=2)
    theta_path = tmp_path / "theta.json"
    g_path = tmp_path / "g.json"
    theta_path.write_text(json.dumps(series_to_json(theta)))
    g_path.write_text(json.dumps(shift_to_json(raised_cosine_density(256))))
    return str(theta_path), str(g_path)


class TestSimulateCommand:
    def test_writes_dataset_and_config(self, tmp_path, truth_files):
        theta_path, g_path = truth_files
        out = tmp_path / "obs.json"
        code = main(
            [
                "simulate",
                "--theta", theta_path,
                "--g", g_path,
                "--n", "12",
                "--cutoff", "3",
                "--sigma", "1.0",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        obs = load(str(out))
        assert obs.n == 12
        assert (tmp_path / "run.json").exists()

    def test_missing_out_fails(self, truth_files, capsys):
        theta_path, g_path = truth_files
        code = main(
            ["simulate", "--theta", theta_path, "--g", g_path, "--n", "3",
             "--cutoff", "1"]
        )
        assert code == 1

    def test_same_seed_byte_identical(self, tmp_path, truth_files):
        theta_path, g_path = truth_files
        args = [
            "simulate", "--theta", theta_path, "--g", g_path,
            "--n", "6", "--cutoff", "2", "--seed", "9",
        ]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_flag_fails(self, truth_files):
        theta_path, g_path = truth_files
        code = main(["simulate", "--theta", theta_path, "--bogus", "1"])
        assert code == 1

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
    def test_bad_sigma_rejected(self, tmp_path, truth_files, capsys, sigma):
        theta_path, g_path = truth_files
        out = tmp_path / "obs.json"
        code = main(
            ["simulate", "--theta", theta_path, "--g", g_path, "--n", "3",
             "--cutoff", "1", "--sigma", sigma, "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "which,doc,fieldname",
        [
            ("g", '{"kind": "discrete", "atoms": [0.5, 1.0]}', "atoms"),
            ("g", '{"kind": "grid"}', "values"),
            ("theta", '{"cutoff": 0, "coeffs": [[1.0]]}', "coeffs"),
        ],
    )
    def test_malformed_input_json_rejected(
        self, tmp_path, truth_files, capsys, which, doc, fieldname
    ):
        theta_path, g_path = truth_files
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        paths = {"theta": theta_path, "g": g_path, which: str(bad)}
        code = main(
            ["simulate", "--theta", paths["theta"], "--g", paths["g"], "--n", "3",
             "--cutoff", "1", "--out", str(tmp_path / "obs.json")]
        )
        assert code == 1
        assert f"field '{fieldname}'" in capsys.readouterr().err

    def test_bad_threads_rejected(self, tmp_path, truth_files):
        theta_path, g_path = truth_files
        code = main(
            ["simulate", "--theta", theta_path, "--g", g_path, "--n", "3",
             "--cutoff", "1", "--threads", "0", "--out", str(tmp_path / "x.json")]
        )
        assert code == 1


class TestPriorSampleCommand:
    @pytest.mark.parametrize(
        "kind,config",
        [
            ("sieve", "n = 100\npreset = adaptive\nl_max = 8\n"),
            ("dp", "mass = 1.0\ntruncation = 40\nbase_grid = 128\n"),
            ("smooth", "nu = 1.5\nradius = 2.0\ngrid = 256\n"),
        ],
    )
    def test_draws_written(self, tmp_path, kind, config):
        cfg = tmp_path / "prior.cfg"
        cfg.write_text(config)
        out = tmp_path / "draws"
        code = main(
            ["prior-sample", "--kind", kind, "--config", str(cfg),
             "--count", "3", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        files = sorted(os.listdir(out))
        assert files == ["draw_0000.json", "draw_0001.json", "draw_0002.json",
                         "run.json"]

    def test_manual_preset_needs_mu_and_zeta(self, tmp_path, capsys):
        cfg = tmp_path / "prior.cfg"
        cfg.write_text("n = 100\npreset = manual\nmu = 0.3\n")
        code = main(
            ["prior-sample", "--kind", "sieve", "--config", str(cfg),
             "--count", "1", "--out", str(tmp_path / "draws")]
        )
        assert code == 1
        assert "zeta" in capsys.readouterr().err


class TestVerifyCommand:
    def test_report_all_pass(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            ["verify", "--suite", "distances", "--seed", "7",
             "--instances", "4", "--samples", "8000", "--out", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        assert all(row["pass"] == "True" for row in rows)

    def test_unknown_suite(self, tmp_path):
        code = main(
            ["verify", "--suite", "nope", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 1

    def test_non_finite_density_is_numerical_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        def failing_rows(*args):
            raise NonFiniteDensityError("non-finite density ratio in TV/H2 estimate")

        monkeypatch.setattr(cli, "distance_verification_rows", failing_rows)
        code = main(
            ["verify", "--suite", "distances", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["verify", "--suite", "distances", "--seed", "3",
                "--instances", "2", "--samples", "4000"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBesselTableCommand:
    def test_table_contents(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(
            ["bessel-table", "--n-max", "2", "--a-max", "1.0", "--step", "0.5",
             "--out", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9  # n in {0,1,2} x a in {0, 0.5, 1.0}
        first = rows[0]
        assert float(first["bessel_i"]) == 1.0


class TestFanoNetCommand:
    def test_net_and_certificate(self, tmp_path):
        out = tmp_path / "net"
        code = main(
            ["fano-net", "--p", "6", "--s", "1.0", "--beta", "2.5",
             "--nu", "1.5", "--A", "2.0", "--certify", "--samples", "20000",
             "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "net.json").read_text())
        assert doc["p"] == 6
        assert len(doc["fs"]) == 6
        with open(out / "certificate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6


class TestPosteriorCommand:
    def test_end_to_end(self, tmp_path, truth_files):
        theta_path, g_path = truth_files
        data = tmp_path / "obs.json"
        assert main(
            ["simulate", "--theta", theta_path, "--g", g_path, "--n", "10",
             "--cutoff", "2", "--seed", "3", "--out", str(data)]
        ) == 0
        prior = tmp_path / "prior.cfg"
        prior.write_text(
            "g_prior = dp\npreset = adaptive\nl_max = 2\n"
            "mass = 1.0\ntruncation = 30\nbase_grid = 128\n"
        )
        out = tmp_path / "post"
        code = main(
            ["posterior", "--data", str(data), "--prior", str(prior),
             "--steps", "60", "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "mean_theta_aligned" in summary
        ensemble = json.loads((out / "ensemble.json").read_text())
        weights = [s["weight"] for s in ensemble["samples"]]
        assert abs(sum(weights) - 1.0) < 1e-9

    def test_non_unit_noise_refused(self, tmp_path, truth_files, capsys):
        theta_path, g_path = truth_files
        data = tmp_path / "obs.json"
        assert main(
            ["simulate", "--theta", theta_path, "--g", g_path, "--n", "10",
             "--cutoff", "2", "--sigma", "3", "--seed", "3", "--out", str(data)]
        ) == 0
        prior = tmp_path / "prior.cfg"
        prior.write_text("g_prior = dp\npreset = adaptive\nl_max = 2\n")
        out = tmp_path / "post"
        code = main(
            ["posterior", "--data", str(data), "--prior", str(prior),
             "--steps", "10", "--seed", "4", "--out", str(out)]
        )
        assert code == 1
        assert "sigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("seed", 1.9),
            ("true_shifts", [0.5] * 9 + [1.5]),
            ("true_shifts", [0.5] * 9 + [float("nan")]),
            ("true_shifts", ["x"] * 10),
            ("sigma", "1"),
        ],
    )
    def test_malformed_dataset_field_named(self, tmp_path, truth_files, capsys, key, bad):
        theta_path, g_path = truth_files
        data = tmp_path / "obs.json"
        assert main(
            ["simulate", "--theta", theta_path, "--g", g_path, "--n", "10",
             "--cutoff", "2", "--seed", "3", "--out", str(data)]
        ) == 0
        doc = json.loads(data.read_text())
        doc[key] = bad
        data.write_text(json.dumps(doc))
        prior = tmp_path / "prior.cfg"
        prior.write_text("g_prior = dp\npreset = adaptive\nl_max = 2\n")
        out = tmp_path / "post"
        code = main(
            ["posterior", "--data", str(data), "--prior", str(prior),
             "--steps", "10", "--seed", "4", "--out", str(out)]
        )
        assert code == 1
        assert f"field '{key}'" in capsys.readouterr().err
        assert not out.exists()


class TestContractionCommand:
    def test_small_run(self, tmp_path, truth_files):
        theta_path, g_path = truth_files
        truth_dir = tmp_path / "truth"
        truth_dir.mkdir()
        os.rename(theta_path, truth_dir / "theta.json")
        os.rename(g_path, truth_dir / "g.json")
        out = tmp_path / "table.csv"
        code = main(
            ["contraction", "--truth", str(truth_dir), "--ns", "12,25",
             "--steps", "40", "--cutoff", "2", "--no-control",
             "--seed", "6", "--out", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["n"] for row in rows] == ["12", "25"]
        assert float(rows[0]["eps_n"]) > 0
