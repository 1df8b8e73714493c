"""Command-line interface: dispatch, determinism, artifacts, exit codes."""

import contextlib
import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert not (tmp_path / "run.json").exists()

    def test_failing_check_exits_2_with_config(self, tmp_path, monkeypatch):
        def one_failing_row(*args):
            return [["tv_shape_0", 0.5, 0.1, 0.01, False]]

        monkeypatch.setattr(cli, "distance_verification_rows", one_failing_row)
        code = main(
            ["verify", "--suite", "distances", "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2
        run = json.loads((tmp_path / "run.json").read_text())
        assert run["command"] == "verify" and run["suite"] == "distances"

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
            (["verify", "--suite", "distances", "--instances", "0"], "--instances"),
            (["prior-sample", "--kind", "dp", "--config", "c", "--count", "0"], "--count"),
            (["fano-net", "--samples", "1"], "--samples"),
            (["fano-net", "--beta", "nan"], "--beta"),
            (["simulate", "--theta", "t", "--g", "g", "--n", "3", "--cutoff", "1",
              "--threads", "0"], "--threads"),
            (["simulate", "--theta", "t", "--g", "g", "--n", "3", "--cutoff", "1",
              "--seed", "-1"], "--seed"),
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
                 {"--n": "4", "--cutoff": "2", "--sigma": "1.0"}),
    "prior-sample": (["--kind", "dp", "--config", "dp.cfg"], {"--count": "2"}),
    "posterior": (["--data", "obs.json", "--prior", "post.cfg"], {"--steps": "3"}),
    "contraction": (["--truth", "truth", "--no-control"],
                    {"--ns": "12", "--s": "1.0", "--sigma": "1.0", "--cutoff": "2",
                     "--steps": "3", "--control-n": "20"}),
    "fano-net": (["--certify"],
                 {"--p": "2", "--s": "1.0", "--beta": "2.5", "--nu": "1.5",
                  "--A": "2.0", "--samples": "200"}),
    "verify": (["--suite", "distances"], {"--instances": "1", "--samples": "200"}),
    "bessel-table": ([], {"--n-max": "2", "--a-max": "1.0", "--step": "0.5"}),
}
FUZZ_FLAGS = [
    (command, flag)
    for command, (_, numeric) in FUZZ_RUNS.items()
    for flag in itertools.chain(numeric, ["--seed", "--threads"])
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
        flags = {**numeric, "--seed": "1", "--threads": "1", flag: value}
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
