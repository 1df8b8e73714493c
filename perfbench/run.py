"""simlab benchmark: one workload per process, seeded, timed, checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run sets up the workload several times (inputs generated from
``--seed``, then a warm-up), repeats passes of fixed size until the next
pass would end after ``--seconds``, checks every output, and prints
``# ``-prefixed notes followed by one JSON result line.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones: it
alternates traced and untraced passes, so the tracing overhead is
measured in the same process.  ``--workload all`` runs every workload in
its own process and prints all their notes and results.  See README.md
in this directory for what each workload and metric is for.
"""

import os
import sys
import time

T0 = time.perf_counter()

# Fixed for both commits of any comparison, and at most nproc.  One thread
# is also the steadiest setting on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import ess as ess_mod
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    from simlab import cli, fourier, mixture, model, nets, posterior, priors, shifts
except ImportError:  # checked in main(): the checkout has no simlab sources
    fourier = None
WORKLOADS = ("certify", "contraction-dp", "posterior-smooth")
SETUPS = 3


@dataclass
class Pass:
    """One timed pass: its operations, their checks and the work done."""

    seconds: float
    attempted: int
    failed: int
    draws: int
    sampler_s: float
    ess: float = 0.0
    bytes_written: int = 0
    traced: bool = False


def _report_failure(what: str) -> None:
    print(f"benchmark: {what} failed", file=sys.stderr)
    traceback.print_exc()


class Certify:
    """Criterion-8 Fano TV certificate: 16 mc_distance calls per pass."""

    samples = 30_000
    members = 8

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self):
        self.net = nets.make_fano_net(self.members, 1.0, 2.5, 1.5, 2.0)
        nets.fano_tv_certificate(self.net, 2_000, np.random.default_rng([self.seed, 1 << 20]))

    def run_pass(self, i: int) -> Pass:
        ops = 2 * self.members
        start = time.perf_counter()
        try:
            cert = nets.fano_tv_certificate(self.net, self.samples, np.random.default_rng([self.seed, i]))
        except Exception:
            _report_failure("fano_tv_certificate")
            seconds = time.perf_counter() - start
            return Pass(seconds, ops, ops, 0, seconds)
        seconds = time.perf_counter() - start
        failed = 0
        for j, (m, mm) in enumerate(zip(cert.matched, cert.mismatched)):
            # member 1 is the reference itself, so only 2..8 are ordered
            ordered = j == 0 or m.value < mm.value
            failed += not (_unit_interval(m.value) and ordered)
            failed += not _unit_interval(mm.value)
        draws = sum(e.samples for e in cert.matched + cert.mismatched)
        return Pass(seconds, ops, failed, draws, seconds)


def _unit_interval(x: float) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 1.0


def _truth():
    return fourier.FourierSeries.from_dict({1: 1.0 + 0j, 2: 0.5 + 0j}, cutoff=2), shifts.raised_cosine_density()


class ContractionDP:
    """Criterion-7 shrinkage rows: simulate, DP Gibbs chain, ball mass."""

    n = 800
    cutoff = 4
    steps = 600
    max_kept = 80
    mc_samples = 2_000
    radius = 0.3

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def setup(self):
        self.theta, self.g = _truth()
        self.truth = mixture.MixtureLaw(self.theta, self.g)
        self.prior = posterior.PriorConfig(
            priors.SievePriorConfig.adaptive(self.n),
            priors.DirichletPriorConfig(shifts.uniform_density(512), total_mass=1.0, truncation=100),
        )
        rng = np.random.default_rng([self.seed, 1 << 20])
        obs = model.simulate(self.theta, self.g, 50, self.cutoff, seed=self.seed)
        ens = posterior.gibbs_posterior(obs, self.prior, 12, rng, max_kept=8)
        posterior.ball_mass(ens, self.truth, self.radius, "H", 500, rng)

    def run_pass(self, i: int) -> Pass:
        data_seq, chain_seq, mc_seq = np.random.SeedSequence([self.seed, i]).spawn(3)
        start = time.perf_counter()
        sampler_s = 0.0
        try:
            obs = model.simulate(self.theta, self.g, self.n, self.cutoff,
                                 seed=int(data_seq.generate_state(1)[0]))
            t = time.perf_counter()
            ens = posterior.gibbs_posterior(obs, self.prior, self.steps,
                                            np.random.default_rng(chain_seq), max_kept=self.max_kept)
            sampler_s = time.perf_counter() - t
            mass = posterior.ball_mass(ens, self.truth, self.radius, "H", self.mc_samples,
                                       np.random.default_rng(mc_seq))
            mean = ens.mean_theta(aligned=True).coeffs
            ok = (abs(float(ens.weights.sum()) - 1.0) <= 1e-9 and 0.0 <= mass <= 1.0
                  and bool(np.all(np.isfinite(mean))))
            ess = ess_mod.bulk_ess([abs(theta.coeff(1)) for theta, _, _ in ens.samples])
        except Exception:
            _report_failure("contraction row")
            seconds = time.perf_counter() - start
            return Pass(seconds, 1, 1, 0, sampler_s or seconds)
        seconds = time.perf_counter() - start
        return Pass(seconds, 1, int(not ok), self.steps, sampler_s, ess)


class PosteriorSmooth:
    """The ``simlab posterior`` CLI with the smooth prior on a saved dataset."""

    n = 400
    cutoff = 4
    steps = 150
    kept = 100

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.data = work / "data.json"
        self.prior = work / "prior.cfg"

    def setup(self):
        theta, g = _truth()
        obs = model.simulate(theta, g, self.n, self.cutoff, seed=self.seed)
        model.save(obs, str(self.data))
        self.prior.write_text("g_prior = smooth\npreset = adaptive\nnu = 1\nradius = 5\n")
        code = cli.main(self._argv(6, 1 << 20, self.work / "warm"))
        if code != 0:
            raise RuntimeError(f"warm-up posterior run exited with {code}")

    def _argv(self, steps: int, seed: int, out: Path) -> list:
        return ["posterior", "--data", str(self.data), "--prior", str(self.prior),
                "--steps", str(steps), "--seed", str(seed), "--out", str(out)]

    def run_pass(self, i: int) -> Pass:
        out = self.work / f"pass{i}"
        seed = int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])
        start = time.perf_counter()
        try:
            code = cli.main(self._argv(self.steps, seed, out))
            seconds = time.perf_counter() - start
            written = sum(f.stat().st_size for f in out.iterdir())
            samples = json.loads((out / "ensemble.json").read_text())["samples"]
            summary = json.loads((out / "summary.json").read_text())
            ok = (code == 0 and len(samples) == self.kept
                  and summary["diagnostics"]["kept"] == self.kept)
            ess = ess_mod.bulk_ess([math.hypot(*s["theta"]["coeffs"][s["theta"]["cutoff"] + 1])
                                    for s in samples])
        except Exception:
            _report_failure("posterior CLI run")
            seconds = time.perf_counter() - start
            return Pass(seconds, 1, 1, 0, seconds)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Pass(seconds, 1, int(not ok), self.steps, seconds, ess, written)


CLASSES = dict(zip(WORKLOADS, (Certify, ContractionDP, PosteriorSmooth)))


def machine(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def high_percentile(values: list) -> str:
    """Highest percentile with at least ten samples beyond it, as text."""
    n = len(values)
    if n < 11:
        return f"n/a ({n} samples, need 11)"
    return f"p{100 * (n - 10) / n:.1f} {sorted(values)[-11]:.4f} s ({n} samples)"


def run(name: str, seed: int, seconds: float, trace: bool, bench: dict) -> int:
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(CLASSES[name](seed, work), name, seed, seconds, trace, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, name: str, seed: int, seconds: float, trace: bool, bench: dict) -> int:
    import_s = time.perf_counter() - T0
    setup_tracer = spans.Tracer()
    setups = []
    for _ in range(SETUPS):
        if trace:
            setup_tracer.install()
        start = time.perf_counter()
        try:
            workload.setup()
        except Exception:
            _report_failure("set-up")
            return 2
        finally:
            setup_tracer.uninstall()
        setups.append(time.perf_counter() - start)

    tracer = spans.Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        if traced:
            tracer.install()
        try:
            p = workload.run_pass(len(passes))
        finally:
            tracer.uninstall()
        p.traced = traced
        passes.append(p)
        if len(passes) >= 1 + trace and time.perf_counter() - start + p.seconds > seconds:
            break

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    sampler_s = sum(p.sampler_s for p in passes)
    chains = [p for p in passes if p.ess]
    print(f"# workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print("# machine " + json.dumps(machine(seed), sort_keys=True))
    print(f"# set-ups: import {import_s:.3f} s, then {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"# passes: {len(passes)}, wall {', '.join(f'{p.seconds:.3f}' for p in passes)} s")
    print(f"# wall_s highest percentile: {high_percentile([p.seconds for p in passes])}")
    print(f"# failed_ratio {failed / attempted:.4g} ({failed} of {attempted} operations)")
    if chains:
        ess = sum(p.ess for p in chains)
        print(f"# ess_per_s {ess / sampler_s:.4f} 1/s (bulk-ESS of |theta_1| {ess:.1f} over "
              f"{len(chains)} chains, {sampler_s:.3f} s in the sampler); "
              f"sweeps_per_s {sum(p.draws for p in passes) / sampler_s:.4f} 1/s")
    else:
        print(f"# mc_samples_per_s {sum(p.draws for p in passes) / sampler_s:.1f} 1/s")

    if trace:
        traced = [p for p in passes if p.traced]
        plain = [p for p in passes if not p.traced]
        metrics = spans.layer_metrics(tracer, len(traced), setup_tracer)
        sweeps = sum(p.draws for p in chains)
        metrics["posterior.ess_per_sweep"] = sum(p.ess for p in chains) / sweeps if sweeps else 0.0
        metrics["cli.bytes_written"] = sum(p.bytes_written for p in traced) / len(traced)
        metrics["trace.overhead_s"] = (statistics.median(p.seconds for p in traced)
                                       - statistics.median(p.seconds for p in plain))
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": statistics.median(p.seconds for p in passes),
            "draws_per_s": sum(p.draws for p in passes) / sampler_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree: {sorted(set(metrics) ^ set(units))}")
    for key in sorted(metrics):
        print(f"# {key} {metrics[key]:.6g} {units[key]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if fourier is None or Path(fourier.__file__).resolve().parent != SRC / "simlab":
        print(f"benchmark: no simlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run(args.workload, args.seed, args.seconds, bool(args.trace), bench)


if __name__ == "__main__":
    sys.exit(main())
