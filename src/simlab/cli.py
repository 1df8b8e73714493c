"""Command-line entry point for reproducible experiments.

Every subcommand is deterministic given its flags (the seed included):
outputs are written atomically and the fully resolved configuration is
echoed into the output directory as ``run.json``, which is enough to
reproduce any result.  Exit codes: 0 success, 1 validation error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .distances import (
    DistanceEstimate,
    NonFiniteDensityError,
    N_SIGMA,
    check_sandwich,
    e1_bound,
    e3_bound,
    hellinger_estimate,
    mc_distance,
    tv_bound_f,
    tv_bound_g,
)
from .fourier import FourierSeries, project, series_from_json, series_to_json
from .mixture import MixtureLaw
from .model import DatasetFormatError, load as load_obs, save as save_obs
from .model import simulate, task_map, write_atomic
from .nets import fano_tv_certificate, make_fano_net
from .posterior import (
    ContractionConfig,
    PriorConfig,
    contraction_experiment,
    gibbs_posterior,
)
from .priors import (
    DirichletPriorConfig,
    RejectionLimitError,
    SievePriorConfig,
    SmoothPriorConfig,
    _require,
    parse_flat_config,
    sample_dp,
    sample_f,
    sample_smooth,
)
from .shifts import (
    Discrete,
    GridDensity,
    raised_cosine_density,
    shift_from_json,
    shift_to_json,
)
from .special import bessel_i_scaled_orders

__all__ = ["main"]


class ValidationError(ValueError):
    """Bad flags or malformed input files (exit code 1)."""


def _write_json(path: str, obj) -> None:
    write_atomic(path, json.dumps(obj, sort_keys=True))


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    write_atomic(path, buf.getvalue())


def _echo_run_config(out: str, args: argparse.Namespace) -> None:
    directory = out if os.path.isdir(out) else (os.path.dirname(out) or ".")
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    resolved["version"] = __version__
    _write_json(os.path.join(directory, "run.json"), resolved)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


# smooth-prior keys of a posterior run; prior-sample also reads "grid"
_SMOOTH_KEYS = {"nu": float, "radius": float, "max_rejections": int}


def _read(cfg: dict, kinds: dict, required: tuple = ()) -> dict:
    """Pop the keys of ``kinds`` present in ``cfg``, each converted by its
    type (``int`` or ``float``); a value that does not convert is refused,
    and so is an absent ``required`` key.  Any other absent key is left to
    the config dataclass's default."""
    out = {}
    for key, kind in kinds.items():
        if key in cfg:
            text = cfg.pop(key)
            try:
                out[key] = kind(text)
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise ValidationError(f"field '{key}': expected {what}, got {text!r}")
        elif key in required:
            raise ValidationError(f"field '{key}': missing; {required} are required")
    return out


def _sieve_from_config(cfg: dict, n: int) -> SievePriorConfig:
    preset = cfg.pop("preset", "adaptive")
    kw = _read(cfg, {"c": float, "rho": float, "l_max": int})
    if preset == "adaptive":
        return SievePriorConfig.adaptive(n, **kw)
    if preset == "nonadaptive":
        s = _read(cfg, {"s": float}).get("s", 1.0)
        return SievePriorConfig.non_adaptive(n, s, **kw)
    if preset == "manual":
        kw |= _read(cfg, {"mu": float, "zeta": float}, required=("mu", "zeta"))
        return SievePriorConfig(n=n, **kw)
    raise ValidationError(f"field 'preset': unknown sieve preset {preset!r}")


def _dp_from_config(cfg: dict) -> DirichletPriorConfig:
    kw = _read(cfg, {"mass": float, "truncation": int})
    if "mass" in kw:
        kw["total_mass"] = kw.pop("mass")
    base = _read(cfg, {"base_grid": int, "base_amplitude": float})
    grid, amplitude = base.get("base_grid", 512), base.get("base_amplitude", 0.0)
    _require(grid >= 2, "base_grid", "must be at least 2", grid)
    _require(abs(amplitude) <= 1.0, "base_amplitude", "must lie in [-1, 1]", amplitude)
    # amplitude 0 gives the uniform base density, bit for bit
    return DirichletPriorConfig(raised_cosine_density(grid, amplitude), **kw)


def _smooth_from_config(cfg: dict, kinds: dict) -> SmoothPriorConfig:
    return SmoothPriorConfig(**_read(cfg, kinds, required=("nu", "radius")))


def prior_from_config(path: str, kind: str, n: int | None = None):
    """The prior a flat config file describes, for ``prior-sample --kind``
    ``kind`` or, with ``kind = "posterior"``, the joint prior of a
    posterior run on ``n`` curves.

    The readers pop each key they read, so a key left over was read by
    nothing and is refused by name: ``n`` is read only for ``--kind sieve``
    and ``grid`` not by ``posterior``, which runs the smooth prior on the
    1,024-point shift grid.
    """
    cfg = parse_flat_config(path)
    if kind == "sieve":
        prior = _sieve_from_config(cfg, _read(cfg, {"n": int}).get("n", 100))
    elif kind == "dp":
        prior = _dp_from_config(cfg)
    elif kind == "smooth":
        prior = _smooth_from_config(cfg, _SMOOTH_KEYS | {"grid": int})
    else:
        g_prior = cfg.pop("g_prior", "dp")
        if g_prior not in ("dp", "smooth"):
            raise ValidationError(f"field 'g_prior': unknown g_prior {g_prior!r}")
        sieve = _sieve_from_config(cfg, n)
        if g_prior == "dp":
            prior = PriorConfig(sieve, _dp_from_config(cfg))
        else:
            prior = PriorConfig(sieve, _smooth_from_config(cfg, _SMOOTH_KEYS))
    for key in cfg:
        raise ValidationError(f"field '{key}': not read by a {kind} run")
    return prior


# -- subcommands -------------------------------------------------------------


def _cmd_simulate(args) -> int:
    theta = series_from_json(_load_json(args.theta))
    g = shift_from_json(_load_json(args.g))
    obs = simulate(theta, g, args.n, args.cutoff, sigma=args.sigma, seed=args.seed)
    save_obs(obs, args.out)
    return 0


_PRIOR_SAMPLERS = {
    "sieve": lambda prior, rng: series_to_json(sample_f(prior, rng)),
    "dp": lambda prior, rng: shift_to_json(sample_dp(prior, rng)),
    "smooth": lambda prior, rng: shift_to_json(sample_smooth(prior, rng)),
}


def _cmd_prior_sample(args) -> int:
    prior = prior_from_config(args.config, args.kind)
    rng = np.random.default_rng(args.seed)
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        path = os.path.join(args.out, f"draw_{i:04d}.json")
        _write_json(path, _PRIOR_SAMPLERS[args.kind](prior, rng))
    return 0


def _cmd_posterior(args) -> int:
    try:
        obs = load_obs(args.data)
    except DatasetFormatError as exc:
        raise ValidationError(str(exc)) from exc
    if obs.sigma != 1.0:
        raise ValidationError(f"field 'sigma': posterior needs 1, got {obs.sigma!r}")
    prior = prior_from_config(args.prior, "posterior", obs.n)
    rng = np.random.default_rng(args.seed)
    ens = gibbs_posterior(obs, prior, args.steps, rng)
    os.makedirs(args.out, exist_ok=True)
    mean = ens.mean_theta(aligned=True)
    samples = [
        {
            "theta": series_to_json(theta),
            "g": shift_to_json(g),
            "weight": w,
        }
        for theta, g, w in ens.samples
    ]
    _write_json(os.path.join(args.out, "ensemble.json"), {"samples": samples})
    _write_json(
        os.path.join(args.out, "summary.json"),
        {
            "mean_theta_aligned": series_to_json(mean),
            "diagnostics": ens.diagnostics,
        },
    )
    return 0


def _cmd_contraction(args) -> int:
    try:
        n_list = [int(x) for x in args.ns.split(",") if x]
    except ValueError as exc:
        raise ValidationError(f"bad --ns list: {args.ns!r}") from exc
    if not (n_list and n_list[0] >= 2 and np.all(np.diff(n_list) > 0)):
        raise ValidationError(f"--ns needs increasing sample sizes >= 2, got {args.ns!r}")
    theta = series_from_json(_load_json(os.path.join(args.truth, "theta.json")))
    g = shift_from_json(_load_json(os.path.join(args.truth, "g.json")))
    cfg = ContractionConfig(
        s=args.s,
        sigma=args.sigma,
        cutoff=args.cutoff,
        steps=args.steps,
        control_n=args.control_n,
    )
    rng = np.random.default_rng(args.seed)
    rows = contraction_experiment(
        theta, g, n_list, cfg, rng, include_control=not args.no_control
    )
    header = [
        "n",
        "sigma",
        "eps_n",
        "median_dh",
        "f_err_aligned",
        "f_err_raw",
        "g_err",
    ]
    _write_csv(args.out, header, [[row[h] for h in header] for row in rows])
    return 0


def _cmd_fano_net(args) -> int:
    net = make_fano_net(args.p, args.s, args.beta, args.nu, args.A)
    os.makedirs(args.out, exist_ok=True)
    _write_json(
        os.path.join(args.out, "net.json"),
        {
            "p": net.p,
            "s": net.s,
            "beta": net.beta,
            "nu": net.nu,
            "radius": net.radius,
            "fs": [series_to_json(f) for f in net.fs],
            "gs": [shift_to_json(g) for g in net.gs],
        },
    )
    if args.certify:
        rng = np.random.default_rng(args.seed)
        cert = fano_tv_certificate(net, args.samples, rng, args.threads)
        rows = []
        for j, (m, mm) in enumerate(zip(cert.matched, cert.mismatched), start=1):
            if j > 1 and mm.value == mm.std_error == 0.0:
                raise FloatingPointError(f"member {j} equals member 1 to double precision"
                                         " (mismatched TV 0 +- 0): lower --s or --beta")
            se = math.hypot(m.std_error, mm.std_error)  # 0 for member 1, the reference
            z = (mm.value - m.value) / se if se > 0.0 else ""
            rows.append(
                [j, m.value, m.std_error, mm.value, mm.std_error, z,
                 bool(j == 1 or m.value < mm.value)]
            )
        _write_csv(
            os.path.join(args.out, "certificate.csv"),
            ["j", "matched_tv", "matched_se", "mismatched_tv", "mismatched_se", "z",
             "matched_below_mismatched"],
            rows,
        )
    return 0


def _random_series(rng, cutoff: int) -> FourierSeries:
    coeffs = rng.normal(0, 0.5, 2 * cutoff + 1) + 1j * rng.normal(
        0, 0.5, 2 * cutoff + 1
    )
    return FourierSeries(cutoff, coeffs)


def _random_shift_dist(rng, kind: int):
    if kind == 0:
        k = int(rng.integers(2, 5))
        w = rng.dirichlet(np.ones(k))
        return Discrete(rng.uniform(0, 1, k), w)
    amp = float(rng.uniform(0.0, 0.9))
    phase = float(rng.uniform(0, 1))
    t = np.linspace(0.0, 1.0, 257)
    return GridDensity(1.0 + amp * np.cos(2 * np.pi * (t - phase)))


def _check_row(name: str, est: DistanceEstimate, bound: float) -> list:
    """Report row; the check passes within ``N_SIGMA`` standard errors of the bound."""
    ok = est.value <= bound + N_SIGMA * est.std_error
    return [name, est.value, bound, est.std_error, ok]


def distance_verification_rows(
    instances: int, samples: int, rng: np.random.Generator, workers: int | None = None
) -> list[list]:
    """Random-instance rows for the distance-inequality report; instance ``i``
    draws everything from its own stream (``task_map``) on ``workers`` threads."""

    def instance(i: int, rng: np.random.Generator) -> list[list]:
        cutoff = int(rng.integers(1, 4))
        f = _random_series(rng, cutoff)
        f_tilde = _random_series(rng, cutoff)
        g = _random_shift_dist(rng, int(rng.integers(0, 2)))
        law_f = MixtureLaw(f, g)
        law_ft = MixtureLaw(f_tilde, g)
        tv = mc_distance(law_f, law_ft, "TV", samples, rng)
        g_tilde = _random_shift_dist(rng, int(rng.integers(0, 2)))
        tvg = mc_distance(MixtureLaw(f, g), MixtureLaw(f, g_tilde), "TV", samples, rng)
        level = int(rng.integers(0, cutoff))
        f_l = project(project(f, level), cutoff)
        h2 = mc_distance(MixtureLaw(f, g), MixtureLaw(f_l, g), "H2", samples, rng)
        dh_est = hellinger_estimate(h2)
        report = check_sandwich(law_f, law_ft, samples, rng)
        return [
            _check_row(f"tv_shape_{i}", tv, tv_bound_f(f, f_tilde)),
            _check_row(f"tv_mixing_{i}", tvg, tv_bound_g(f, g, g_tilde)),
            _check_row(f"truncation_{i}", dh_est, e1_bound(f, level)),
            _check_row(f"perturbation_{i}", dh_est, e3_bound(f, f_l)),
            [f"sandwich_{i}", report.tv.value, hellinger_estimate(report.h2).value,
             report.tv.std_error, report.all_ok],
        ]

    per_instance = task_map(instance, range(instances), rng, workers)
    return [row for rows in per_instance for row in rows]


def _cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    rows = distance_verification_rows(args.instances, args.samples, rng, args.threads)
    _write_csv(args.out, ["check", "value", "bound", "std_error", "pass"], rows)
    return 0 if all(r[4] for r in rows) else 2


def _cmd_bessel_table(args) -> int:
    a_values = np.arange(0.0, args.a_max + 1e-12, args.step)
    a_values = np.unique(np.minimum(a_values, args.a_max))  # no node past --a-max
    values = np.exp(a_values)[:, None] * bessel_i_scaled_orders(args.n_max, a_values)
    rows = [
        [n, float(a), float(v), 2.0 * math.pi * float(v)]
        for n, column in enumerate(values.T)
        for a, v in zip(a_values, column)
    ]
    _write_csv(args.out, ["n", "a", "bessel_i", "a_n"], rows)
    return 0


def _bounded(kind, low: float, strict: bool = False, high: float = math.inf):
    """argparse type: a finite ``kind`` value at least ``low`` (above it
    with ``strict``) and at most ``high``; argparse names the flag when it
    is refused."""

    def parse(text: str):
        value = kind(text)
        if math.isfinite(value) and (low < value <= high if strict else low <= value <= high):
            return value
        bound = f"{'>' if strict else '>='} {low}"
        bound += f" and <= {high}" if high < math.inf else ""
        raise argparse.ArgumentTypeError(f"must be finite and {bound}, got {text!r}")

    parse.__name__ = kind.__name__  # argparse's "invalid int value" message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simlab",
        description="Simulation and Bayesian inference for randomly shifted curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed: bool = True, threads: bool = False):
        if seed:
            p.add_argument("--seed", type=_bounded(int, 0), default=0)
        if threads:
            p.add_argument("--threads", type=_bounded(int, 1), default=1,
                           help="worker threads, at most the usable cores;"
                           " the outputs do not depend on the value")
        p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="draw curves from the shifted-curve model")
    p.add_argument("--theta", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--n", type=_bounded(int, 1), required=True)
    p.add_argument("--cutoff", type=_bounded(int, 0), required=True)
    p.add_argument("--sigma", type=_bounded(float, 0.0), default=1.0)
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("prior-sample", help="draw from one of the priors")
    p.add_argument("--kind", choices=("sieve", "dp", "smooth"), required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--count", type=_bounded(int, 1), required=True)
    common(p)
    p.set_defaults(func=_cmd_prior_sample)

    p = sub.add_parser("posterior", help="Gibbs posterior over shape and shifts")
    p.add_argument("--data", required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--steps", type=_bounded(int, 1), default=500)
    common(p)
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("contraction", help="posterior-shrinkage experiment")
    p.add_argument("--truth", required=True)
    p.add_argument("--ns", required=True)
    p.add_argument("--s", type=_bounded(float, 0.0, strict=True), default=1.0)
    p.add_argument("--sigma", type=_bounded(float, 0.0), default=1.0)
    p.add_argument("--cutoff", type=_bounded(int, 1), default=4)
    p.add_argument("--steps", type=_bounded(int, 1), default=600)
    p.add_argument("--control-n", dest="control_n", type=_bounded(int, 2), default=6000)
    p.add_argument("--no-control", dest="no_control", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_contraction)

    p = sub.add_parser("fano-net", help="hardness net and its TV certificate")
    p.add_argument("--p", type=_bounded(int, 2), default=8)
    p.add_argument("--s", type=_bounded(float, -math.inf), default=1.0)
    p.add_argument("--beta", type=_bounded(float, -math.inf), default=2.5)
    p.add_argument("--nu", type=_bounded(float, -math.inf), default=1.5)
    p.add_argument("--A", type=_bounded(float, 0.0, strict=True), default=2.0)
    p.add_argument("--certify", action="store_true")
    p.add_argument("--samples", type=_bounded(int, 2), default=100_000)
    common(p, threads=True)
    p.set_defaults(func=_cmd_fano_net)

    p = sub.add_parser("verify", help="distance-inequality report")
    p.add_argument("--instances", type=_bounded(int, 1), default=20)
    p.add_argument("--samples", type=_bounded(int, 2), default=20_000)
    common(p, threads=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bessel-table", help="tabulate I_n and A_n")
    p.add_argument("--n-max", dest="n_max", type=_bounded(int, 0), default=20)
    p.add_argument("--a-max", dest="a_max", default=10.0,  # e^a overflows past it
                   type=_bounded(float, 0.0, high=math.log(sys.float_info.max)))
    p.add_argument("--step", type=_bounded(float, 0.0, strict=True), default=0.5)
    common(p, seed=False)
    p.set_defaults(func=_cmd_bessel_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        code = args.func(args)
        _echo_run_config(args.out, args)
        return code
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RejectionLimitError, NonFiniteDensityError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
