"""Forward simulation of randomly shifted curves in the Fourier domain.

Each observed curve is the common shape shifted by a random amount and
corrupted by complex white noise; the first ``2L + 1`` Fourier
coefficients carry the model exactly, so that is what gets stored:
``y_{k,j} = theta_k e^{-i 2 pi k tau_j} + sigma xi_{k,j}``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .fourier import FourierSeries, complex_to_json, floats_from_json
from .fourier import int_from_json, project
from .shifts import ShiftDistribution
from .special import complex_gaussian_array

__all__ = ["ObservationSet", "DatasetFormatError", "simulate", "task_map", "save", "load"]


class DatasetFormatError(ValueError):
    """Raised when a dataset file is malformed; names the offending field."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"field '{fieldname}': {message}")


@dataclass
class ObservationSet:
    """A batch of simulated curves as noisy rotated coefficient vectors.

    Attributes
    ----------
    cutoff : int
        Observation frequency cap ``L``; each row has ``2L + 1`` entries.
    sigma : float
        Noise level (the model's default is 1).
    curves : np.ndarray
        Complex matrix of shape ``(n, 2L + 1)``.
    true_shifts : np.ndarray or None
        The shifts that generated the rows, kept for diagnostics.
    seed : int or None
        RNG seed recorded for reproducibility.
    """

    cutoff: int
    sigma: float
    curves: np.ndarray = field(repr=False)
    true_shifts: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.curves, dtype=complex)
        if arr.ndim != 2 or arr.shape[1] != 2 * self.cutoff + 1:
            raise ValueError(
                f"curves must have shape (n, {2 * self.cutoff + 1}), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("curve coefficients must be finite")
        self.curves = arr
        if self.true_shifts is not None:
            ts = np.asarray(self.true_shifts, dtype=float)
            if ts.shape != (arr.shape[0],):
                raise ValueError("true_shifts length must match the number of curves")
            self.true_shifts = ts

    @property
    def n(self) -> int:
        return self.curves.shape[0]


def simulate(
    theta0: FourierSeries,
    g0: ShiftDistribution,
    n: int,
    cutoff: int,
    sigma: float = 1.0,
    seed: int = 0,
) -> ObservationSet:
    """Draw ``n`` curves from the shifted-curve model.

    Curve ``j`` consumes an RNG substream spawned deterministically from
    ``(seed, j)``: one uniform for its shift, then its noise.  So simulating
    a prefix of the curves, or simulating them in parallel, reproduces the
    exact same values.  All shifts go through one ``g0.quantile`` call and
    all curves through one rotation, in ``rotate``'s operation order.
    """
    if n < 1:
        raise ValueError("need at least one curve")
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
    theta_l = project(theta0, cutoff)
    p = 2 * cutoff + 1
    u, noise = np.empty(n), np.empty((n, p), dtype=complex)
    for j, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(child)
        u[j] = rng.random()
        if sigma > 0:
            noise[j] = complex_gaussian_array(rng, p)
    shifts = g0.quantile(u)
    curves = theta_l.coeffs * np.exp(-2j * np.pi * theta_l.ks * shifts[:, None])
    if sigma > 0:
        curves = curves + sigma * noise
    return ObservationSet(cutoff, sigma, curves, true_shifts=shifts, seed=seed)


def task_map(fn, tasks, rng: np.random.Generator, workers: int | None = None) -> list:
    """``fn(task, child)`` for each task, in task order, on ``workers`` threads
    (default and cap: the usable cores).  Task ``i`` draws from its own child
    ``rng.spawn(len(tasks))[i]``, so the results do not depend on ``workers``.
    Threads pay where tasks spend their time in numpy calls that release the GIL."""
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    tasks = list(tasks)
    children = rng.spawn(len(tasks))
    workers = min(workers or cores, cores, len(tasks))
    if workers <= 1:
        return list(map(fn, tasks, children))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, tasks, children))


def save(obs: ObservationSet, path: str) -> None:
    """Serialize to JSON; the written file round-trips bit-faithfully."""
    doc = {
        "n": obs.n,
        "cutoff": obs.cutoff,
        "sigma": obs.sigma,
        "seed": obs.seed,
        "curves": complex_to_json(obs.curves),
        "true_shifts": None if obs.true_shifts is None else obs.true_shifts.tolist(),
    }
    write_atomic(path, json.dumps(doc))


def write_atomic(path: str, data: str) -> None:
    """Write ``data`` to a temporary sibling, then rename it onto ``path``."""
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def load(path: str) -> ObservationSet:
    """Read a dataset written by :func:`save`, validating every field."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise DatasetFormatError("<file>", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatasetFormatError("<file>", "expected a JSON object")
    for key in ("n", "cutoff", "sigma", "curves"):
        if key not in doc:
            raise DatasetFormatError(key, "missing")
    n = _decode(doc, "n", int_from_json)
    cutoff = _decode(doc, "cutoff", int_from_json)
    for key, value in (("n", n), ("cutoff", cutoff)):
        if value < 0:
            raise DatasetFormatError(key, f"must be nonnegative, got {value}")
    sigma = doc["sigma"]
    if type(sigma) not in (int, float) or not 0.0 <= sigma <= sys.float_info.max:
        message = f"expected a finite nonnegative number, got {sigma!r}"
        raise DatasetFormatError("sigma", message)
    width = 2 * cutoff + 1
    curves = _decode(doc, "curves", floats_from_json)  # sized by the file, not by cutoff
    if curves.shape != (n, width, 2) and (n, curves.shape) != (0, (0,)):
        message = f"expected {n} rows of {width} [re, im] pairs, got shape {curves.shape}"
        raise DatasetFormatError("curves", message)
    try:
        curves = curves.reshape(n, width, 2).view(complex)[..., 0]
    except ValueError as exc:  # only reachable with no rows
        raise DatasetFormatError("cutoff", str(exc)) from exc
    shifts = None
    if doc.get("true_shifts") is not None:
        shifts = _decode(doc, "true_shifts", floats_from_json)
        if shifts.shape != (n,):
            raise DatasetFormatError("true_shifts", f"expected {n} entries")
        if not np.all((shifts >= 0.0) & (shifts < 1.0)):
            raise DatasetFormatError("true_shifts", "entries must lie in [0, 1)")
    seed = None if doc.get("seed") is None else _decode(doc, "seed", int_from_json)
    try:
        return ObservationSet(cutoff, float(sigma), curves, true_shifts=shifts, seed=seed)
    except ValueError as exc:
        raise DatasetFormatError("curves", str(exc)) from exc


def _decode(doc: dict, key: str, decoder):
    """``decoder(doc[key], key)``, its field-naming ``ValueError`` raised
    again as a :class:`DatasetFormatError`."""
    try:
        return decoder(doc[key], key)
    except ValueError as exc:
        message = str(exc).removeprefix(f"field '{key}': ")
        raise DatasetFormatError(key, message) from exc
