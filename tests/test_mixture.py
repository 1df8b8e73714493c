"""Mixture densities, likelihoods, and the likelihood-ratio identity."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from simlab.fourier import FourierSeries, project, rotate
from simlab.mixture import (
    MixtureLaw,
    default_quadrature_points,
    gaussian_density,
    girsanov_log_ratio,
    log_gaussian_density,
    log_likelihood,
    log_mixture_density,
    sample_law,
)
from simlab.model import ObservationSet, simulate
from simlab.shifts import Discrete, raised_cosine_density, uniform_density

THETA = FourierSeries.from_dict({1: 0.9 + 0j, 2: 0.4j}, cutoff=2)


class TestGaussianDensity:
    def test_peak_value_dimension_one(self):
        z = np.array([0.3 + 0.1j])
        assert gaussian_density(z, z) == pytest.approx(1.0 / math.pi, rel=1e-12)

    def test_unit_distance(self):
        z = np.array([1.0 + 0j])
        mu = np.array([0.0 + 0j])
        assert gaussian_density(z, mu) == pytest.approx(
            math.exp(-1.0) / math.pi, rel=1e-12
        )

    def test_normalization_by_quadrature(self):
        grid = np.linspace(-5, 5, 401)
        xx, yy = np.meshgrid(grid, grid)
        z = (xx + 1j * yy).ravel()[:, None]
        vals = gaussian_density(z, np.array([0.4 - 0.2j]))
        step = grid[1] - grid[0]
        assert np.sum(vals) * step**2 == pytest.approx(1.0, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_density(np.zeros(2, dtype=complex), np.zeros(3, dtype=complex))


class TestMixtureDensity:
    def test_point_mixture_reduces_to_gaussian(self):
        law = MixtureLaw(THETA, Discrete.point_mass(0.0))
        z = np.array([0.1 + 0j, 0.2 - 0.1j, 0.0j, 0.5j, -0.3 + 0j])
        assert np.exp(log_mixture_density(law, z[None, :])[0]) == pytest.approx(
            gaussian_density(z, project(THETA, 2).coeffs), rel=1e-12
        )

    def test_zero_shape_ignores_mixing(self):
        zero = FourierSeries.zero(1)
        z = np.array([0.4 - 0.2j, 0.1j, 0.6 + 0j])
        for g in (uniform_density(), raised_cosine_density(), Discrete.point_mass(0.7)):
            law = MixtureLaw(zero, g)
            assert np.exp(log_mixture_density(law, z[None, :])[0]) == pytest.approx(
                gaussian_density(z, np.zeros(3, dtype=complex)), rel=1e-9
            )

    def test_two_atom_expansion(self):
        g = Discrete(np.array([0.2, 0.7]), np.array([0.3, 0.7]))
        law = MixtureLaw(THETA, g)
        rng = np.random.default_rng(0)
        z = rng.normal(size=5) + 1j * rng.normal(size=5)
        by_hand = 0.3 * gaussian_density(z, rotate(THETA, 0.2).coeffs) + (
            0.7 * gaussian_density(z, rotate(THETA, 0.7).coeffs)
        )
        assert np.exp(log_mixture_density(law, z[None, :])[0]) == pytest.approx(by_hand, rel=1e-12)

    def test_normalizes_dimension_one(self):
        th = FourierSeries.from_dict({0: 0.5 + 0.5j}, cutoff=0)
        law = MixtureLaw(th, uniform_density())
        grid = np.linspace(-5.5, 5.5, 441)
        xx, yy = np.meshgrid(grid, grid)
        z = (xx + 1j * yy).reshape(-1, 1)
        vals = np.exp(log_mixture_density(law, z))
        step = grid[1] - grid[0]
        assert np.sum(vals) * step**2 == pytest.approx(1.0, abs=1e-6)

    def test_normalizes_by_importance_check(self):
        # E_p[gamma_0(z) / p(z)] = 1 whenever p is the sampling density
        rng = np.random.default_rng(1)
        law = MixtureLaw(THETA, raised_cosine_density())
        z = sample_law(law, 40_000, rng)
        ref = gaussian_density(z, np.zeros(5, dtype=complex))
        ratio = ref / np.exp(log_mixture_density(law, z))
        assert abs(ratio.mean() - 1.0) < 0.01

    def test_uniform_mixture_rotation_invariance(self):
        law = MixtureLaw(THETA, uniform_density())
        rng = np.random.default_rng(2)
        z = rng.normal(size=5) + 1j * rng.normal(size=5)
        base = np.exp(log_mixture_density(law, z[None, :])[0])
        for psi in (0.17, 0.42, 0.9):
            ks = np.arange(-2, 3)
            rotated = z * np.exp(-2j * np.pi * ks * psi)
            assert np.exp(log_mixture_density(law, rotated[None, :])[0]) == pytest.approx(
                base, rel=1e-9
            )

    def test_quadrature_floor_enforced(self):
        with pytest.raises(ValueError):
            MixtureLaw(THETA, uniform_density(), quadrature_points=32)


ONE_FREQ = MixtureLaw(THETA, uniform_density(), freqs=(1,))
FULL = MixtureLaw(THETA, uniform_density())


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: MixtureLaw(THETA, uniform_density(), freqs=(1, 3)), "beyond the shape cutoff"),
        (lambda: log_mixture_density(FULL, np.zeros(3, dtype=complex)),
         "must have dimension 5, got 3"),
        (lambda: log_likelihood(ONE_FREQ, simulate(THETA, uniform_density(), 2, 2)),
         "full-window"),
        (lambda: girsanov_log_ratio(ONE_FREQ, FULL, np.zeros(5, dtype=complex)), "full-window"),
        (lambda: girsanov_log_ratio(FULL, ONE_FREQ, np.zeros(5, dtype=complex)), "full-window"),
        (lambda: girsanov_log_ratio(FULL, FULL, np.zeros(3, dtype=complex)),
         "observation must have dimension 5"),
    ],
)
def test_refusals(call, named):
    with pytest.raises(ValueError, match=named):
        call()


def oracle_log_density(law: MixtureLaw, z: np.ndarray) -> np.ndarray:
    """Per-node reference: one Gaussian log density per shift node, combined
    with the log weights by ``scipy.special.logsumexp``."""
    phi, w = law.g.nodes(law.quadrature_points or default_quadrature_points(law.theta))
    ks = law.active_freqs
    coeffs = law.theta.coeffs[ks + law.theta.cutoff]
    mu = coeffs[None, :] * np.exp(-2j * np.pi * np.outer(phi, ks))
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    return np.array([logsumexp(log_gaussian_density(row, mu) + logw) for row in z])


def assert_matches_oracle(law: MixtureLaw, z: np.ndarray):
    z2 = np.atleast_2d(z)
    got = log_mixture_density(law, z)
    want = oracle_log_density(law, z2)
    assert got.shape == want.shape == (z2.shape[0],)
    tol = 1e-12 * (1.0 + np.sum(np.abs(z2) ** 2, axis=1))
    assert np.all(np.abs(got - want) <= tol)


def random_rows(rng, n, p, scale=1.0):
    return scale * (rng.normal(size=(n, p)) + 1j * rng.normal(size=(n, p)))


BIG = FourierSeries.from_dict({1: 4.5 + 0j, 2: 2.0j}, cutoff=2)


def misaligned_rows(rng, n, norm):
    """Rows of norm ``norm`` on the frequencies of ``BIG`` whose phases no
    shift aligns: where the frequency-1 term of ``Re<z, mu>`` peaks, the
    frequency-2 term is at its minimum."""
    alpha = rng.uniform(0.0, 2.0 * np.pi, n)
    z = random_rows(rng, n, 5, 0.02)
    z[:, 3] += np.exp(1j * alpha)
    z[:, 4] -= 1j * np.exp(2j * alpha)
    return norm * z / np.linalg.norm(z, axis=1)[:, None]


def bound_gap(law: MixtureLaw, z: np.ndarray) -> np.ndarray:
    """Distance from each row's largest node exponent up to the kernel's
    bound shift ``sum_k |z_k| 2 |theta_k| + max_i (log w_i - ||mu_i||^2)``."""
    phi, w = law.g.nodes(law.quadrature_points or default_quadrature_points(law.theta))
    coeffs = law.theta.coeffs[law.active_freqs + law.theta.cutoff]
    mu = coeffs[None, :] * np.exp(-2j * np.pi * np.outer(phi, law.active_freqs))
    const = np.log(w) - np.sum(np.abs(mu) ** 2, axis=1)
    top = np.max(2.0 * (z @ mu.conj().T).real + const, axis=1)
    return np.abs(z) @ (2.0 * np.abs(coeffs)) + const.max() - top


class TestKernelOracle:
    """The fused kernel against a node-by-node log-sum-exp."""

    def test_grid_law(self):
        law = MixtureLaw(THETA, raised_cosine_density(256, 0.7), quadrature_points=128)
        assert_matches_oracle(law, random_rows(np.random.default_rng(20), 200, 5))

    def test_zero_weight_atom(self):
        g = Discrete(np.array([0.1, 0.4, 0.8]), np.array([0.5, 0.0, 0.5]))
        law = MixtureLaw(THETA, g)
        assert_matches_oracle(law, random_rows(np.random.default_rng(21), 200, 5))

    def test_single_row(self):
        law = MixtureLaw(THETA, raised_cosine_density(), quadrature_points=64)
        z = random_rows(np.random.default_rng(22), 1, 5)[0]
        assert_matches_oracle(law, z)

    def test_more_rows_than_one_chunk(self):
        # 65,536 exponents / 20000 nodes = 3 rows a block: 150 blocks
        law = MixtureLaw(THETA, raised_cosine_density(), quadrature_points=20000)
        assert_matches_oracle(law, random_rows(np.random.default_rng(23), 450, 5))

    def test_frequency_subset(self):
        law = MixtureLaw(
            THETA, raised_cosine_density(256, 0.5), quadrature_points=256, freqs=(1, -2)
        )
        assert_matches_oracle(law, random_rows(np.random.default_rng(24), 200, 2))

    def test_rows_far_from_every_mean(self):
        rng = np.random.default_rng(25)
        z = random_rows(rng, 100, 5)
        z *= 30.0 / np.linalg.norm(z, axis=1)[:, None]
        law = MixtureLaw(THETA, raised_cosine_density(256, 0.5), quadrature_points=256)
        assert np.all(np.isfinite(log_mixture_density(law, z)))
        assert_matches_oracle(law, z)

    @pytest.mark.parametrize("norm", [200.0, 1000.0])
    def test_misaligned_far_rows_take_the_exact_maximum(self, norm):
        law = MixtureLaw(BIG, raised_cosine_density(256, 0.5), quadrature_points=256)
        z = misaligned_rows(np.random.default_rng(26), 20, norm)
        # the bound shift sits over 600 above every node exponent, so each
        # row's bound-shifted sum underflows past e^-600 and is redone
        assert np.all(bound_gap(law, z) > 600.0 + math.log(256))
        assert np.all(np.isfinite(log_mixture_density(law, z)))
        assert_matches_oracle(law, z)

    def test_rows_do_not_depend_on_their_neighbours(self):
        # 30,000 rows x 256 nodes against its two halves: blocks start at other
        # rows, and both halves hold rows that go through the exact maximum
        phi, w = raised_cosine_density(1024, 0.3).nodes(256)
        law = MixtureLaw(BIG, Discrete(phi, w))
        rng = np.random.default_rng(27)
        z = sample_law(law, 30_000, rng)
        far = np.concatenate([rng.choice(15_000, 6, replace=False) + half for half in (0, 15_000)])
        z[far] = misaligned_rows(rng, 12, 200.0)
        assert np.all(bound_gap(law, z[far]) > 600.0 + math.log(256))
        whole = log_mixture_density(law, z)
        halves = [log_mixture_density(law, z[:15_000]), log_mixture_density(law, z[15_000:])]
        assert np.all(np.isfinite(whole))
        assert np.array_equal(whole, np.concatenate(halves))


    def test_one_row_calls_match_the_batch(self):
        # 384 nodes: the node rule is off, every row takes all of them, and
        # a block holds 170 rows; lone rows (a one-row call, a last block of
        # one) are still computed by the matrix-matrix product
        law = MixtureLaw(THETA, raised_cosine_density(), quadrature_points=384)
        z = random_rows(np.random.default_rng(28), 200, 5)
        whole = log_mixture_density(law, z)
        assert np.array_equal(whole, [log_mixture_density(law, row)[0] for row in z])
        assert np.array_equal(whole[:171], log_mixture_density(law, z[:171]))
        other = MixtureLaw(BIG, uniform_density(), quadrature_points=384)
        base = log_mixture_density(other, z)
        ratios = [girsanov_log_ratio(law, other, row) for row in z]
        assert np.array_equal(ratios, whole - base)


class TestLogLikelihood:
    def test_empty_observation_set(self):
        obs = ObservationSet(2, 1.0, np.zeros((0, 5), dtype=complex))
        assert log_likelihood(MixtureLaw(THETA, uniform_density()), obs) == 0.0

    def test_single_curve_point_mixture(self):
        obs = simulate(THETA, Discrete.point_mass(0.0), 1, 2, seed=0)
        law = MixtureLaw(THETA, Discrete.point_mass(0.0))
        y = obs.curves[0]
        expected = -5.0 * math.log(math.pi) - float(
            np.sum(np.abs(y - project(THETA, 2).coeffs) ** 2)
        )
        assert log_likelihood(law, obs) == pytest.approx(expected, rel=1e-12)

    def test_joint_rotation_invariance_under_uniform_mixing(self):
        obs = simulate(THETA, uniform_density(), 6, 2, seed=3)
        law = MixtureLaw(THETA, uniform_density())
        base = log_likelihood(law, obs)
        phi = 0.31
        ks = np.arange(-2, 3)
        rotated_curves = obs.curves * np.exp(-2j * np.pi * ks * phi)[None, :]
        rotated_obs = ObservationSet(2, 1.0, rotated_curves)
        rotated_law = MixtureLaw(rotate(THETA, phi), uniform_density())
        assert log_likelihood(rotated_law, rotated_obs) == pytest.approx(
            base, rel=1e-9
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        g = Discrete(np.array([0.15, 0.6]), np.array([0.4, 0.6]))
        obs = simulate(THETA, g, 5, 2, seed=5)

        def loglik(coeffs):
            law = MixtureLaw(FourierSeries(2, coeffs), g)
            return log_likelihood(law, obs)

        def analytic_grad(coeffs):
            # d/dRe(theta_k) log p = sum_j E_post[2 Re(conj(y - mu) e_k(phi))
            #                                   - 2 Re(theta_k)] etc.
            law = MixtureLaw(FourierSeries(2, coeffs), g)
            ks = np.arange(-2, 3)
            grad = np.zeros(coeffs.size * 2)
            for j in range(obs.n):
                y = obs.curves[j]
                weights = []
                residual_terms = []
                for pos, w in zip(g.positions, g.weights):
                    mu = coeffs * np.exp(-2j * np.pi * ks * pos)
                    dens = w * math.exp(-float(np.sum(np.abs(y - mu) ** 2)))
                    weights.append(dens)
                    phase = np.exp(-2j * np.pi * ks * pos)
                    # derivative of -|y_k - theta_k e|^2 wrt Re/Im theta_k
                    d_re = 2.0 * np.real((y - mu) * np.conj(phase))
                    d_im = 2.0 * np.real((y - mu) * np.conj(1j * phase))
                    residual_terms.append(np.concatenate([d_re, d_im]))
                weights = np.array(weights)
                weights /= weights.sum()
                grad += weights @ np.array(residual_terms)
            return grad

        for _ in range(5):
            coeffs = rng.normal(size=5) * 0.5 + 1j * rng.normal(size=5) * 0.5
            grad = analytic_grad(coeffs)
            h = 1e-6
            for idx in (0, 2, 4):
                e = np.zeros(5, dtype=complex)
                e[idx] = h
                fd_re = (loglik(coeffs + e) - loglik(coeffs - e)) / (2 * h)
                fd_im = (loglik(coeffs + 1j * e) - loglik(coeffs - 1j * e)) / (2 * h)
                assert fd_re == pytest.approx(grad[idx], rel=1e-5, abs=1e-7)
                assert fd_im == pytest.approx(grad[idx + 5], rel=1e-5, abs=1e-7)


class TestGirsanov:
    def test_same_law_is_zero(self):
        law = MixtureLaw(THETA, raised_cosine_density())
        rng = np.random.default_rng(6)
        for _ in range(5):
            y = rng.normal(size=5) + 1j * rng.normal(size=5)
            assert girsanov_log_ratio(law, law, y) == 0.0

    def test_matches_density_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c1 = rng.normal(size=5) * 0.6 + 1j * rng.normal(size=5) * 0.6
            c2 = rng.normal(size=5) * 0.6 + 1j * rng.normal(size=5) * 0.6
            f = MixtureLaw(FourierSeries(2, c1), raised_cosine_density())
            f0 = MixtureLaw(FourierSeries(2, c2), uniform_density())
            y = rng.normal(size=5) + 1j * rng.normal(size=5)
            lr = girsanov_log_ratio(f, f0, y)
            diff = float(
                log_mixture_density(f, y[None, :])[0]
                - log_mixture_density(f0, y[None, :])[0]
            )
            assert abs(lr - diff) < 1e-10

    def test_change_of_measure_mean_one(self):
        rng = np.random.default_rng(8)
        f0 = MixtureLaw(THETA, raised_cosine_density())
        bumped = FourierSeries(2, THETA.coeffs + np.array([0, 0, 0.15, -0.1j, 0]))
        f = MixtureLaw(bumped, raised_cosine_density())
        n = 10**5
        y = sample_law(f0, n, rng)
        ratios = np.exp(
            log_mixture_density(f, y) - log_mixture_density(f0, y)
        )
        se = ratios.std(ddof=1) / math.sqrt(n)
        assert abs(ratios.mean() - 1.0) < 3.0 * se

    def test_equals_log_density_difference(self):
        rng = np.random.default_rng(26)
        atoms = Discrete(np.array([0.2, 0.5, 0.9]), np.array([0.3, 0.0, 0.7]))
        for g, g0 in ((atoms, raised_cosine_density()), (uniform_density(), atoms)):
            c1, c2 = random_rows(rng, 2, 5, scale=0.6)
            f = MixtureLaw(FourierSeries(2, c1), g)
            f0 = MixtureLaw(FourierSeries(2, c2), g0)
            for y in random_rows(rng, 20, 5):
                diff = log_mixture_density(f, y)[0] - log_mixture_density(f0, y)[0]
                assert abs(girsanov_log_ratio(f, f0, y) - diff) <= 1e-12

    def test_mixed_cutoffs_use_common_window(self):
        small = MixtureLaw(project(THETA, 1), uniform_density())
        big = MixtureLaw(THETA, uniform_density())
        y = np.array([0.1j, 0.2 + 0j, 0.3j, -0.2 + 0j, 0.05j])
        val = girsanov_log_ratio(small, big, y)
        assert math.isfinite(val)
