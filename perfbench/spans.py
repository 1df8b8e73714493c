"""Spans and counts around the calls into simlab's modules.

Tracing lives in the benchmark only: :func:`install` replaces each traced
function under every name a simlab module binds it to (so
``from .model import load as load_obs`` in ``simlab.cli`` is covered), and
each traced ``GibbsSampler`` method on the class.  :func:`uninstall`
restores the originals, so untraced passes run the program unchanged.

A span is ``[name, start, end, parent]``; its self time is its duration
minus the durations of its direct children.  Counts are taken after the
call returns and outside the span.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """In-memory spans and counts; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracing is already installed")
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "simlab"]
        for name, owner, attr, count in _targets():
            original = getattr(owner, attr)
            traced = self.wrap(name, original, count)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def times(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _shift_nodes(law) -> int:
    """Shift-quadrature node count of a mixture law (atoms, else the grid)."""
    from simlab import mixture
    from simlab.shifts import Discrete

    if isinstance(law.g, Discrete):
        return law.g.positions.size
    return law.quadrature_points or mixture.default_quadrature_points(law.theta)


def _count_density(args, kwargs, result):
    law = _arg(args, kwargs, 0, "law")
    return {"mixture.log_mixture_density.row_nodes": result.size * _shift_nodes(law)}


def _count_cells(args, kwargs, result):
    sampler = args[0]
    return {"posterior.update_shifts.cells": sampler.n * sampler.shift_candidates().size}


def _count_run(args, kwargs, result):
    sampler = args[0]
    return {
        "posterior.level_accepted": sampler.level_accepted,
        "posterior.level_proposed": sampler.level_proposed,
        "posterior.pcn_accepted": sampler.pcn_accepted,
        "posterior.pcn_proposed": sampler.pcn_proposed,
    }


def _targets():
    """(span name, owner, attribute, count) for every traced call."""
    from simlab import cli, distances, mixture, model, nets, posterior, priors, shifts, special

    sampler = posterior.GibbsSampler
    return [
        ("cli.main", cli, "main", None),
        ("model.simulate", model, "simulate",
         lambda a, k, r: {"model.simulate.curves": r.n}),
        ("model.save", model, "save",
         lambda a, k, r: {"model.save.bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
        ("model.load", model, "load", None),
        ("nets.fano_tv_certificate", nets, "fano_tv_certificate", None),
        ("distances.mc_distance", distances, "mc_distance", None),
        ("mixture.log_mixture_density", mixture, "log_mixture_density", _count_density),
        ("mixture.sample_law", mixture, "sample_law",
         lambda a, k, r: {"mixture.sample_law.rows": r.shape[0]}),
        ("posterior.gibbs_posterior", posterior, "gibbs_posterior", None),
        ("posterior.ball_mass", posterior, "ball_mass", None),
        ("posterior.run", sampler, "run", _count_run),
        ("posterior.update_shifts", sampler, "update_shifts", _count_cells),
        ("posterior.update_theta", sampler, "update_theta", None),
        ("posterior.update_level", sampler, "update_level", None),
        ("posterior.update_shift_distribution", sampler, "update_shift_distribution", None),
        ("priors.gp_draw", priors, "gp_draw", None),
        ("priors.sample_dp", priors, "sample_dp", None),
        ("shifts.sobolev_radius", shifts, "sobolev_radius", None),
        ("shifts.sample", shifts, "sample", None),
        ("special.complex_gaussian_array", special, "complex_gaussian_array", None),
    ]


def layer_metrics(tracer: Tracer, passes: int, setup: Tracer) -> dict:
    """Per-layer figures per traced pass; ``model.save`` comes from set-up."""
    t = tracer.times()
    c = tracer.counts
    sweeps = t["posterior.update_shifts"][0]

    def per_pass(x):
        return x / passes

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    lmd = t["mixture.log_mixture_density"]
    out = {
        "mixture.log_mixture_density.calls": per_pass(lmd[0]),
        "mixture.log_mixture_density.row_nodes": per_pass(c["mixture.log_mixture_density.row_nodes"]),
        "mixture.log_mixture_density.self_s": per_pass(lmd[2]),
        "mixture.log_mixture_density.ns_per_row_node": ratio(
            lmd[2], c["mixture.log_mixture_density.row_nodes"], 1e9),
        "mixture.sample_law.self_s": per_pass(t["mixture.sample_law"][2]),
        "mixture.sample_law.rows": per_pass(c["mixture.sample_law.rows"]),
        "distances.mc_distance.calls": per_pass(t["distances.mc_distance"][0]),
        "distances.mc_distance.self_s": per_pass(t["distances.mc_distance"][2]),
        "nets.fano_tv_certificate.self_s": per_pass(t["nets.fano_tv_certificate"][2]),
        "posterior.sweeps": per_pass(sweeps),
        "posterior.update_shifts.cells": per_pass(c["posterior.update_shifts.cells"]),
        "posterior.level_acceptance": ratio(
            c["posterior.level_accepted"], c["posterior.level_proposed"]),
        "posterior.level_proposals": per_pass(c["posterior.level_proposed"]),
        "posterior.pcn_acceptance": ratio(c["posterior.pcn_accepted"], c["posterior.pcn_proposed"]),
        "posterior.pcn_proposals": per_pass(c["posterior.pcn_proposed"]),
        "posterior.ball_mass.self_s": per_pass(t["posterior.ball_mass"][2]),
        "priors.gp_draw.calls": per_pass(t["priors.gp_draw"][0]),
        "priors.gp_draw.ms": per_pass(t["priors.gp_draw"][1] * 1e3),
        "priors.sample_dp.ms": per_pass(t["priors.sample_dp"][1] * 1e3),
        "shifts.sobolev_radius.calls": per_pass(t["shifts.sobolev_radius"][0]),
        "shifts.sobolev_radius.ms": per_pass(t["shifts.sobolev_radius"][1] * 1e3),
        "shifts.sample.self_s": per_pass(t["shifts.sample"][2]),
        "model.simulate.us_per_curve": ratio(
            t["model.simulate"][1], c["model.simulate.curves"], 1e6),
        "model.load.s": ratio(t["model.load"][1], t["model.load"][0]),
        "special.complex_gaussian_array.self_s": per_pass(t["special.complex_gaussian_array"][2]),
    }
    for move in ("update_shifts", "update_theta", "update_level", "update_shift_distribution"):
        out[f"posterior.{move}.ms_per_sweep"] = ratio(t[f"posterior.{move}"][1], sweeps, 1e3)
    # cli.main self time: parsing, JSON encoding and writes, without the
    # dataset load and the sampler below it
    out["cli.main.self_s"] = per_pass(t["cli.main"][2])
    saves = setup.times()["model.save"]
    out["model.save.s"] = ratio(saves[1], saves[0])
    out["model.save.bytes"] = ratio(setup.counts["model.save.bytes"], saves[0])
    return out
