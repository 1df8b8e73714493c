"""Command-line interface: dispatch, determinism, artifacts, exit codes."""

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simlab import cli
from simlab.cli import distance_verification_rows, main
from simlab.distances import N_SIGMA, DistanceEstimate, NonFiniteDensityError
from simlab.fourier import FourierSeries, series_to_json
from simlab.model import load
from simlab.nets import FanoCertificate
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

    @pytest.mark.parametrize("theta", ["missing.json", ".", "text.json"])
    def test_unreadable_theta_is_one_error_line(self, tmp_path, truth_files, capsys, theta):
        (tmp_path / "text.json").write_text("not json")
        path = str(tmp_path / theta)
        code = main(["simulate", "--theta", path, "--g", truth_files[1], "--n", "3",
                     "--cutoff", "1", "--out", str(tmp_path / "obs.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    def test_bad_threads_rejected(self, tmp_path, truth_files, capsys):
        # simulate runs no threads, so it takes no --threads at all
        theta_path, g_path = truth_files
        code = main(
            ["simulate", "--theta", theta_path, "--g", g_path, "--n", "3",
             "--cutoff", "1", "--threads", "2", "--out", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists() and not (tmp_path / "run.json").exists()


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
            ["verify", "--seed", "7", "--instances", "4", "--samples", "8000", "--out", str(out)]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        assert all(row["pass"] == "True" for row in rows)

    def test_non_finite_density_is_numerical_failure(
        self, tmp_path, monkeypatch, capsys
    ):
        def failing_rows(*args):
            raise NonFiniteDensityError("non-finite density ratio in TV/H2 estimate")

        monkeypatch.setattr(cli, "distance_verification_rows", failing_rows)
        code = main(["verify", "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "run.json").exists()

    def test_failing_check_exits_2_with_config(self, tmp_path, monkeypatch):
        def one_failing_row(*args):
            return [["tv_shape_0", 0.5, 0.1, 0.01, False]]

        monkeypatch.setattr(cli, "distance_verification_rows", one_failing_row)
        code = main(["verify", "--out", str(tmp_path / "r.csv")])
        assert code == 2
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["command"] == "verify" and run["instances"] == 20

    def test_rows_independent_of_workers(self):
        rows = [distance_verification_rows(3, 1_000, np.random.default_rng(11), workers)
                for workers in (1, 2, 5)]
        assert len(rows[0]) == 15 and rows[1] == rows[0] and rows[2] == rows[0]

    def test_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["verify", "--seed", "3", "--instances", "2", "--samples", "4000"]
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

    def test_last_node_is_a_max(self, tmp_path):
        # 3 * 0.1 rounds to 0.30000000000000004
        out = tmp_path / "table.csv"
        assert main(["bessel-table", "--n-max", "0", "--a-max", "0.3", "--step", "0.1",
                     "--out", str(out)]) == 0
        with open(out) as fh:
            assert [row["a"] for row in csv.DictReader(fh)][-1] == "0.3"

    # at a step of a_max / 11 the grid's last node rounds past a_max
    @pytest.mark.parametrize("step", ["100", repr(math.log(sys.float_info.max) / 11)])
    def test_largest_a_max_is_finite(self, tmp_path, step):
        out = tmp_path / "table.csv"
        a_max = repr(math.log(sys.float_info.max))
        assert a_max == "709.782712893384"
        assert main(["bessel-table", "--n-max", "2", "--a-max", a_max, "--step", step,
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert max(float(row["a"]) for row in rows) <= float(a_max)
        assert all(math.isfinite(float(row[k])) for row in rows for k in ("bessel_i", "a_n"))


class TestFanoNetCommand:
    @pytest.mark.parametrize("beta", ["1.0", "0.8"])
    def test_beta_at_most_one_refused(self, tmp_path, capsys, beta):
        # beta > nu + 1/2 holds, but zeta(beta) is infinite or negative
        out = tmp_path / "net"
        code = main(["fano-net", "--p", "4", "--nu", "0.2", "--beta", beta,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: field 'beta': ") and err.count("\n") == 1
        assert not out.exists()

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
        # z: the gap in combined standard errors, empty for the reference itself
        assert list(rows[0]) == ["j", "matched_tv", "matched_se", "mismatched_tv",
                                 "mismatched_se", "z", "matched_below_mismatched"]
        assert rows[0]["z"] == ""
        for row in rows[1:]:
            m, mm = float(row["matched_tv"]), float(row["mismatched_tv"])
            se = math.hypot(float(row["matched_se"]), float(row["mismatched_se"]))
            assert float(row["z"]) == pytest.approx((mm - m) / se, rel=1e-12)
            assert (row["matched_below_mismatched"] == "True") == (float(row["z"]) > -N_SIGMA)

    @pytest.mark.parametrize("z, verdict", [(0.4, "True"), (-1.9, "True"), (-3.2, "False")])
    def test_verdict_reads_its_error_bars(self, tmp_path, monkeypatch, z, verdict):
        # matched below mismatched within N_SIGMA combined standard errors,
        # the rule of the verify report's checks
        m = DistanceEstimate(0.015, 3e-4)
        mm = DistanceEstimate(0.015 + z * 5e-4, 4e-4)
        ref = DistanceEstimate(0.0, 0.0)
        monkeypatch.setattr(cli, "fano_tv_certificate",
                            lambda *args: FanoCertificate([ref, m], [ref, mm]))
        out = tmp_path / "net"
        assert main(["fano-net", "--p", "4", "--s", "1.0", "--beta", "2.5", "--nu", "1.5",
                     "--A", "2.0", "--certify", "--out", str(out)]) == 0
        with open(out / "certificate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[1]["z"]) == pytest.approx(z, rel=1e-9)
        assert [row["matched_below_mismatched"] for row in rows] == ["True", verdict]

    def test_underflowing_net_refused_without_certificate(self, tmp_path, capsys):
        # at s = beta = 400 every perturbation underflows: all members are the
        # reference and every TV estimate is 0 +- 0, a certificate of nothing
        out = tmp_path / "net"
        assert main(
            ["fano-net", "--p", "4", "--s", "400", "--beta", "400", "--nu", "1.5",
             "--A", "2.0", "--certify", "--samples", "50", "--seed", "1", "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: member 2 ")
        assert "double precision" in err[0] and "--s or --beta" in err[0]
        assert not (out / "certificate.csv").exists()


@pytest.mark.parametrize(
    "argv, out, output",
    [
        (["fano-net", "--p", "4", "--certify", "--samples", "3000", "--seed", "2"],
         "net", "net/certificate.csv"),
        (["verify", "--instances", "3", "--samples", "1500", "--seed", "7"],
         "report.csv", "report.csv"),
    ],
    ids=["fano-net", "verify"],
)
def test_threads_leave_outputs_byte_identical(tmp_path, argv, out, output):
    written = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        assert main(argv + ["--threads", threads, "--out", str(tmp_path / threads / out)]) == 0
        written.append((tmp_path / threads / output).read_bytes())
    assert written[0] == written[1]


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

    @pytest.mark.parametrize("control", [[], ["--no-control"]])
    def test_empty_ns_refused(self, tmp_path, capsys, control):
        # without a sample size the table would hold only its header (or
        # only the control row)
        out = tmp_path / "table.csv"
        code = main(["contraction", "--truth", str(tmp_path), "--ns", ",", *control,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: --ns ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("ns", ["0", "1", "-5", "12,12", "25,12"])
    def test_bad_ns_refused(self, tmp_path, capsys, ns):
        # sizes below 2 or out of order are refused before the truth is read
        out = tmp_path / "table.csv"
        code = main(["contraction", "--truth", str(tmp_path), "--ns", ns, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: --ns ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


def _prior_sample(tmp_path, kind, text):
    cfg = tmp_path / "prior.cfg"
    cfg.write_text(text)
    return main(["prior-sample", "--kind", kind, "--config", str(cfg),
                 "--count", "1", "--out", str(tmp_path / "draws")])


class TestConfigValues:
    @pytest.mark.parametrize(
        "kind, text, key",
        [
            ("dp", "truncation = 1.9\n", "truncation"),
            ("dp", "mass = abc\n", "mass"),
            ("dp", "mass = inf\n", "mass"),
            ("dp", "base_grid = 1\n", "base_grid"),
            ("dp", "base_amplitude = nan\n", "base_amplitude"),
            ("sieve", "l_max = x\n", "l_max"),
            ("sieve", "c = nan\n", "c"),
            ("sieve", "c = -5\n", "c"),
            ("sieve", "preset = nonadaptive\ns = -1\n", "s"),
            ("sieve", "preset = other\n", "preset"),
            ("smooth", "nu = 1.5\nradius = 2\ngrid = 1.5\n", "grid"),
            ("smooth", "nu = inf\nradius = 2\n", "nu"),
            ("smooth", "nu = 1.5\nradius = nan\n", "radius"),
            ("smooth", "nu = 1.5\nradius = 2\nmax_rejections = -1\n", "max_rejections"),
            ("smooth", "nu = 1.5\n", "radius"),
        ],
    )
    def test_bad_value_names_its_key(self, tmp_path, capsys, kind, text, key):
        assert _prior_sample(tmp_path, kind, text) == 1
        err = capsys.readouterr().err
        assert f"field '{key}'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "draws").exists()


class TestConfigKeys:
    @pytest.mark.parametrize(
        "kind, text, key",
        [
            ("dp", "trunction = 5\n", "trunction"),
            ("dp", "n = 100\n", "n"),
            ("smooth", "nu = 1.5\nradius = 2\nmass = 1\n", "mass"),
            ("sieve", "n = 100\nmu = 0.3\n", "mu"),
            ("sieve", "preset = adaptive\ns = 2\n", "s"),
        ],
    )
    def test_unread_key_refused(self, tmp_path, capsys, kind, text, key):
        assert _prior_sample(tmp_path, kind, text) == 1
        assert f"field '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            ("g_prior = dp\ntrunction = 5\n", "trunction"),
            ("g_prior = dp\nn = 100\n", "n"),
            ("g_prior = smooth\nnu = 1.5\nradius = 2\ngrid = 64\n", "grid"),
            ("g_prior = dp\nnu = 1.5\n", "nu"),
            ("g_prior = other\n", "g_prior"),
        ],
    )
    def test_posterior_unread_key_refused(self, tmp_path, text, key):
        path = tmp_path / "prior.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"field '{key}'"):
            cli.prior_from_config(str(path), "posterior", 50)

    def test_every_read_key_accepted(self, tmp_path):
        path = tmp_path / "prior.cfg"
        path.write_text(
            "g_prior = dp\npreset = manual\nmu = 0.3\nzeta = 1\nc = 0.5\n"
            "rho = 1.2\nl_max = 3\nmass = 2\ntruncation = 7\nbase_grid = 32\n"
            "base_amplitude = 0.5\n"
        )
        prior = cli.prior_from_config(str(path), "posterior", 50)
        assert prior.sieve.mu == 0.3 and prior.sieve.l_max == 3
        assert prior.shift_prior.total_mass == 2.0
        assert prior.shift_prior.truncation == 7

    def test_absent_keys_take_dataclass_defaults(self, tmp_path):
        path = tmp_path / "prior.cfg"
        path.write_text("nu = 1.5\nradius = 2\n")
        prior = cli.prior_from_config(str(path), "smooth")
        assert prior == cli.SmoothPriorConfig(nu=1.5, radius=2.0)

    KEYS = [
        "g_prior", "preset", "n", "s", "mu", "zeta", "c", "rho", "l_max", "mass",
        "truncation", "base_grid", "base_amplitude", "nu", "radius", "grid",
        "max_rejections", "trunction",
    ]
    VALUES = [
        "0", "-1", "1", "2", "1.5", "20", "nan", "inf", "-inf", "1e3", "abc", "",
        "adaptive", "nonadaptive", "manual", "dp", "smooth",
    ]

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["sieve", "dp", "smooth", "posterior"]),
        n=st.sampled_from([1, 2, 50]),
        lines=st.lists(
            st.tuples(
                st.sampled_from(KEYS)
                | st.text("abcxyz_ ", min_size=1, max_size=6).filter(str.strip),
                st.sampled_from(VALUES),
            ),
            max_size=8,
        ),
    )
    def test_config_loads_or_names_a_key(self, kind, n, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "prior.cfg")
            with open(path, "w") as fh:
                fh.write("".join(f"{k} = {v}\n" for k, v in lines))
            try:
                cli.prior_from_config(path, kind, n)
            except ValueError as exc:
                named = re.search(r"field '([^']*)'", str(exc))
                assert named, str(exc)
                # a key of the text, or a required one it lacks
                known = {k.strip() for k, _ in lines} | {"nu", "radius", "mu", "zeta", "n"}
                assert named.group(1) in known, str(exc)


class TestFlagSets:
    # every flag a subcommand takes is read by it
    FLAGS = {
        "simulate": "--theta --g --n --cutoff --sigma --seed --out",
        "prior-sample": "--kind --config --count --seed --out",
        "posterior": "--data --prior --steps --seed --out",
        "contraction": "--truth --ns --s --sigma --cutoff --steps --control-n"
                       " --no-control --seed --out",
        "fano-net": "--p --s --beta --nu --A --certify --samples --seed --threads --out",
        "verify": "--instances --samples --seed --threads --out",
        "bessel-table": "--n-max --a-max --step --out",
    }

    def test_each_subcommand_has_exactly_its_flags(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: sorted(flag for action in p._actions for flag in action.option_strings
                         if flag not in ("-h", "--help"))
            for name, p in sub.choices.items()
        }
        assert got == {name: sorted(flags.split()) for name, flags in self.FLAGS.items()}

    # simulate's --threads: TestSimulateCommand::test_bad_threads_rejected
    @pytest.mark.parametrize(
        "argv, flag",
        [(["bessel-table", "--seed", "1"], "--seed"),
         (["verify", "--suite", "distances"], "--suite")],
    )
    def test_flag_not_read_is_refused(self, tmp_path, capsys, argv, flag):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert f"unrecognized arguments: {flag} " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestFlagBounds:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["contraction", "--truth", "t", "--ns", "12", "--s", "-1"], "--s"),
            (["contraction", "--truth", "t", "--ns", "12", "--s", "nan"], "--s"),
            (["contraction", "--truth", "t", "--ns", "12", "--cutoff", "0"], "--cutoff"),
            (["bessel-table", "--step", "0"], "--step"),
            (["bessel-table", "--n-max", "-1"], "--n-max"),
            (["bessel-table", "--a-max", "inf"], "--a-max"),
            (["verify", "--instances", "0"], "--instances"),
            (["prior-sample", "--kind", "dp", "--config", "c", "--count", "0"], "--count"),
            (["fano-net", "--samples", "1"], "--samples"),
            (["fano-net", "--beta", "nan"], "--beta"),
            (["fano-net", "--threads", "0"], "--threads"),
            (["simulate", "--theta", "t", "--g", "g", "--n", "3", "--cutoff", "1",
              "--seed", "-1"], "--seed"),
            # e^1000 overflows a double
            (["bessel-table", "--n-max", "2", "--a-max", "1000", "--step", "500"],
             "--a-max"),
            (["bessel-table", "--a-max", "709.79"], "--a-max"),
        ],
    )
    def test_bad_flag_named(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not out.exists()

    def test_posterior_refuses_cutoff_zero(self, tmp_path, truth_files, capsys):
        theta_path, g_path = truth_files
        data = tmp_path / "obs.json"
        assert main(
            ["simulate", "--theta", theta_path, "--g", g_path, "--n", "10",
             "--cutoff", "0", "--seed", "3", "--out", str(data)]
        ) == 0
        prior = tmp_path / "prior.cfg"
        prior.write_text("g_prior = dp\npreset = adaptive\nl_max = 2\n")
        out = tmp_path / "post"
        code = main(
            ["posterior", "--data", str(data), "--prior", str(prior),
             "--steps", "10", "--seed", "4", "--out", str(out)]
        )
        assert code == 1
        assert "field 'cutoff'" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Input files of a small valid run of every subcommand."""
    root = tmp_path_factory.mktemp("fuzz")
    theta = FourierSeries.from_dict({1: 1.0 + 0j, 2: 0.5 + 0j}, cutoff=2)
    (root / "truth").mkdir()
    for path in (root / "theta.json", root / "truth" / "theta.json"):
        path.write_text(json.dumps(series_to_json(theta)))
    for path in (root / "g.json", root / "truth" / "g.json"):
        path.write_text(json.dumps(shift_to_json(raised_cosine_density(64))))
    (root / "dp.cfg").write_text("mass = 1\ntruncation = 10\nbase_grid = 64\n")
    (root / "post.cfg").write_text(
        "g_prior = dp\nl_max = 2\ntruncation = 10\nbase_grid = 64\n"
    )
    assert main(["simulate", "--theta", str(root / "theta.json"), "--g",
                 str(root / "g.json"), "--n", "10", "--cutoff", "2",
                 "--out", str(root / "obs.json")]) == 0
    return root


# subcommand -> (fixed arguments, {numeric flag: valid value}); paths are
# relative to the fuzz input directory
FUZZ_RUNS = {
    "simulate": (["--theta", "theta.json", "--g", "g.json"],
                 {"--n": "4", "--cutoff": "2", "--sigma": "1.0", "--seed": "1"}),
    "prior-sample": (["--kind", "dp", "--config", "dp.cfg"],
                     {"--count": "2", "--seed": "1"}),
    "posterior": (["--data", "obs.json", "--prior", "post.cfg"],
                  {"--steps": "3", "--seed": "1"}),
    "contraction": (["--truth", "truth", "--no-control"],
                    {"--ns": "12", "--s": "1.0", "--sigma": "1.0", "--cutoff": "2",
                     "--steps": "3", "--control-n": "20", "--seed": "1"}),
    "fano-net": (["--certify"],
                 {"--p": "2", "--s": "1.0", "--beta": "2.5", "--nu": "1.5",
                  "--A": "2.0", "--samples": "200", "--seed": "1", "--threads": "1"}),
    "verify": ([], {"--instances": "1", "--samples": "200", "--seed": "1",
                    "--threads": "1"}),
    "bessel-table": ([], {"--n-max": "2", "--a-max": "1.0", "--step": "0.5"}),
}
FUZZ_FLAGS = [
    (command, flag) for command, (_, numeric) in FUZZ_RUNS.items() for flag in numeric
]


class TestCliFuzz:
    @settings(max_examples=120, deadline=None)
    @given(
        target=st.sampled_from(FUZZ_FLAGS),
        value=st.sampled_from(["0", "-1", "1.5", "nan", "inf", "-inf"]),
    )
    def test_one_bad_flag_never_tracebacks(self, fuzz_inputs, target, value):
        command, flag = target
        fixed, numeric = FUZZ_RUNS[command]
        flags = {**numeric, flag: value}
        cwd = os.getcwd()
        err = io.StringIO()
        with tempfile.TemporaryDirectory(dir=fuzz_inputs) as out:
            argv = [command, *fixed, *itertools.chain(*flags.items())]
            try:
                os.chdir(fuzz_inputs)
                with contextlib.redirect_stderr(err):
                    code = main(argv + ["--out", os.path.join(out, "result")])
            finally:
                os.chdir(cwd)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy's optimizer and zeta load inside the nets routines that use them,
    # so a command's start does not pay for them
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "import sys, simlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert "scipy.optimize" not in out.stdout and "scipy.special" not in out.stdout
