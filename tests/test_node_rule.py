"""The shift quadrature's node rule: grid laws use the fewest budget nodes
that the Bessel aliasing bound certifies, and nothing else moves."""

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simlab import mixture
from simlab.fourier import FourierSeries, project
from simlab.mixture import (
    _BULK_QUANTILE,
    MixtureLaw,
    _log_density,
    _shift_nodes,
    default_quadrature_points,
    log_mixture_density,
    sample_law,
)
from simlab.nets import make_fano_net
from simlab.priors import SmoothPriorConfig, sample_smooth
from simlab.shifts import Discrete, FourierDensity, GridDensity, raised_cosine_density

THETA = FourierSeries.from_dict({1: 0.9 + 0j, 2: 0.4j}, cutoff=2)


def budget_log_density(law: MixtureLaw, z: np.ndarray) -> np.ndarray:
    """Log density on every budget node: the same nodes as an atomic law,
    which the rule never thins."""
    phi, w = law.g.nodes(law.quadrature_points or default_quadrature_points(law.theta))
    atoms = MixtureLaw(law.theta, Discrete(phi, w), freqs=law.freqs)
    return log_mixture_density(atoms, z)


def unsplit_log_density(law: MixtureLaw, z: np.ndarray) -> np.ndarray:
    """Log density with every row on the nodes certified for the whole call."""
    absz = np.abs(z)
    return _log_density(law, z, absz, *_shift_nodes(law, absz))


def bulk_thresholds(absz: np.ndarray) -> np.ndarray:
    kth = int(_BULK_QUANTILE * (absz.shape[0] - 1))
    return np.sort(absz, axis=0)[kth]


def certificate_laws():
    net = make_fano_net(8, 1.0, 2.5, 1.5, 2.0)
    for j in range(8):
        for g in (net.grids[j], net.grids[0]):
            yield MixtureLaw(net.fs[j], g, quadrature_points=256, freqs=(1, 8))


def band_limited(rng, k_max: int) -> FourierDensity:
    coeffs = np.zeros(2 * k_max + 1, dtype=complex)
    coeffs[k_max] = 1.0
    for k in range(1, k_max + 1):
        mag = rng.uniform(0, 0.9 / (2 * k_max))
        coeffs[k_max + k] = mag * np.exp(2j * np.pi * rng.uniform())
        coeffs[k_max - k] = np.conj(coeffs[k_max + k])
    return FourierDensity(coeffs)


def grid_law(kind: str, m: int, rng):
    if kind == "raised_cosine":
        return raised_cosine_density(m, float(rng.uniform(-1.0, 1.0)))
    if kind == "fourier":
        return band_limited(rng, int(rng.integers(1, 5))).to_grid()
    return sample_smooth(SmoothPriorConfig(1.5, 2.0, grid=m), rng)


class TestNodeRule:
    @settings(max_examples=60, deadline=None)
    @given(
        cutoff=st.integers(1, 4),
        kind=st.sampled_from(["raised_cosine", "fourier", "smooth"]),
        m=st.sampled_from([64, 256, 1024]),
        budget=st.sampled_from([None, 64, 128, 256]),
        scale=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # rows so small that an amplitude's half underflows to 0
    @example(cutoff=1, kind="raised_cosine", m=64, budget=64, scale=5e-324, seed=416)
    def test_within_tolerance_of_full_budget(self, cutoff, kind, m, budget, scale, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=2 * cutoff + 1) + 1j * rng.normal(size=2 * cutoff + 1)
        theta = FourierSeries(cutoff, coeffs * rng.uniform(0.0, 1.5) / np.abs(coeffs).max())
        law = MixtureLaw(theta, grid_law(kind, m, rng), quadrature_points=budget)
        z = scale * sample_law(law, 200, rng)
        got = log_mixture_density(law, z)
        want = budget_log_density(law, z)
        tol = 1e-13 * (1.0 + np.sum(np.abs(z) ** 2, axis=1))
        assert np.all(np.abs(got - want) <= tol)

    def test_band_limited_fourier_law_is_thinned(self):
        rng = np.random.default_rng(3)
        law = MixtureLaw(THETA, band_limited(rng, 2))
        z = sample_law(law, 500, rng)
        phi, _ = _shift_nodes(law, np.abs(z))
        assert phi.size < default_quadrature_points(THETA)
        assert np.all(np.abs(log_mixture_density(law, z) - budget_log_density(law, z))
                      <= 1e-13 * (1.0 + np.sum(np.abs(z) ** 2, axis=1)))

    def test_contraction_truth_uses_at_most_128_nodes(self):
        theta = FourierSeries.from_dict({1: 1.0 + 0j, 2: 0.5 + 0j}, cutoff=2)
        rng = np.random.default_rng(7)
        for cut in (2, 4):
            law = MixtureLaw(project(theta, cut), raised_cosine_density())
            for _ in range(5):
                phi, w = _shift_nodes(law, np.abs(sample_law(law, 2000, rng)))
                assert phi.size <= 128
                assert np.all(np.isin(phi * 1024, np.arange(1024)))  # on the grid
                assert abs(w.sum() - 1.0) < 1e-14

    def test_certificate_laws_stay_within_their_budget(self):
        rng = np.random.default_rng(808)
        for law in certificate_laws():
            absz = np.abs(sample_law(law, 30_000, rng))
            phi, _ = _shift_nodes(law, absz)
            assert phi.size <= 256
            bulk, _ = _shift_nodes(law, bulk_thresholds(absz)[None, :])
            assert bulk.size == 128

    def test_rows_far_from_every_mean_keep_the_budget(self):
        rng = np.random.default_rng(25)
        z = rng.normal(size=(100, 5)) + 1j * rng.normal(size=(100, 5))
        z *= 30.0 / np.linalg.norm(z, axis=1)[:, None]
        law = MixtureLaw(THETA, raised_cosine_density(256, 0.5), quadrature_points=256)
        phi, _ = _shift_nodes(law, np.abs(z))
        assert phi.size == 256

    def test_budget_not_dividing_the_grid_is_unchanged(self):
        # period-4 values on a 16-interval grid; 512 does not divide 16, so
        # the values are those of the plain 512-node rule, bit for bit
        g = GridDensity(np.tile([1.0, 1.5, 1.0, 0.5], 4).tolist() + [1.0])
        rng = np.random.default_rng(40)
        z = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        law = MixtureLaw(THETA, g, quadrature_points=512)
        got = log_mixture_density(law, z)
        assert np.array_equal(got, budget_log_density(law, z))

    def test_constant_integrand_needs_one_node(self):
        law = MixtureLaw(THETA, raised_cosine_density(1024, 0.0))
        phi, w = _shift_nodes(law, np.zeros((3, 5)))
        assert phi.tolist() == [0.0] and w.tolist() == [1.0]

    def test_atomic_laws_use_their_atoms(self):
        g = Discrete(np.array([0.1, 0.4, 0.8]), np.array([0.5, 0.25, 0.25]))
        phi, w = _shift_nodes(MixtureLaw(THETA, g), np.ones((2, 5)))
        assert phi.tolist() == [0.1, 0.4, 0.8] and w.tolist() == [0.5, 0.25, 0.25]


class TestRowClasses:
    def test_split_rows_stay_within_tolerance_and_tail_rows_keep_their_bits(self):
        rng = np.random.default_rng(909)
        for law in certificate_laws():
            z = sample_law(law, 30_000, rng)
            got = log_mixture_density(law, z)
            tol = 1e-13 * (1.0 + np.sum(np.abs(z) ** 2, axis=1))
            assert np.all(np.abs(got - budget_log_density(law, z)) <= tol)
            tail = (np.abs(z) > bulk_thresholds(np.abs(z))).any(axis=1)
            assert 0 < tail.sum() <= 0.05 * z.shape[0]
            assert np.array_equal(got[tail], unsplit_log_density(law, z)[tail])

    def test_atomic_laws_are_not_split(self):
        rng = np.random.default_rng(11)
        g = Discrete(rng.uniform(size=400), rng.dirichlet(np.ones(400)))
        law = MixtureLaw(THETA, g)
        z = sample_law(law, 5_000, rng)
        assert np.array_equal(log_mixture_density(law, z), unsplit_log_density(law, z))

    def test_budget_not_dividing_the_grid_is_not_split(self):
        g = GridDensity(np.tile([1.0, 1.5, 1.0, 0.5], 4).tolist() + [1.0])
        law = MixtureLaw(THETA, g, quadrature_points=512)
        z = sample_law(law, 5_000, np.random.default_rng(12))
        assert np.array_equal(log_mixture_density(law, z), unsplit_log_density(law, z))

    def test_contraction_truth_is_not_split(self):
        theta = FourierSeries.from_dict({1: 1.0 + 0j, 2: 0.5 + 0j}, cutoff=2)
        rng = np.random.default_rng(13)
        for cut in (2, 4):
            law = MixtureLaw(project(theta, cut), raised_cosine_density())
            z = sample_law(law, 2000, rng)
            assert np.array_equal(log_mixture_density(law, z), unsplit_log_density(law, z))

    def test_call_below_the_gate_is_not_split(self):
        # 1,000 rows x 256 nodes: the bulk alone would thin, the call is too small
        law = next(certificate_laws())
        z = sample_law(law, 1_000, np.random.default_rng(15))
        assert _shift_nodes(law, bulk_thresholds(np.abs(z))[None, :])[0].size == 128
        assert np.array_equal(log_mixture_density(law, z), unsplit_log_density(law, z))

    def test_split_call_is_one_traced_kernel_call(self):
        # the benchmark's tracer wraps the public kernel by name; the tail
        # redo must not show as a second call
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        law = next(certificate_laws())
        z = sample_law(law, 30_000, np.random.default_rng(14))
        tracer = spans.Tracer()
        tracer.install()
        try:
            mixture.log_mixture_density(law, z)
        finally:
            tracer.uninstall()
        assert tracer.times()["mixture.log_mixture_density"][0] == 1
        assert mixture.log_mixture_density is log_mixture_density
