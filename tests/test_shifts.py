"""Shift distributions: coefficients, transport and TV distances, sampling."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simlab.shifts import (
    DEFAULT_GRID,
    Discrete,
    FourierDensity,
    GridDensity,
    ShiftDistribution,
    categorical,
    cumulative_trapezoid,
    discretize,
    fourier_coeff,
    raised_cosine_density,
    sample,
    shift_from_json,
    shift_to_json,
    sobolev_radius,
    tv_density,
    uniform_density,
    wasserstein1,
)


class TestInvariants:
    def test_discrete_weights_must_sum(self):
        with pytest.raises(ValueError):
            Discrete(np.array([0.1, 0.2]), np.array([0.5, 0.6]))

    def test_discrete_positions_in_range(self):
        with pytest.raises(ValueError):
            Discrete(np.array([1.0]), np.array([1.0]))

    def test_grid_mass_checked(self):
        with pytest.raises(ValueError):
            GridDensity(np.full(101, 2.0))

    def test_grid_nonnegative(self):
        vals = np.ones(101)
        vals[3] = -0.5
        with pytest.raises(ValueError):
            GridDensity(vals)

    def test_fourier_c0(self):
        with pytest.raises(ValueError):
            FourierDensity(np.array([0.2, 2.0, 0.2], dtype=complex))

    def test_fourier_hermitian(self):
        with pytest.raises(ValueError):
            FourierDensity(np.array([0.2j, 1.0, 0.2j], dtype=complex))

    def test_fourier_negative_reconstruction(self):
        with pytest.raises(ValueError):
            FourierDensity(np.array([0.9, 1.0, 0.9], dtype=complex))

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda: Discrete(np.full((2, 2), 0.25), np.full((2, 2), 0.25)), "1-d arrays"),
            (lambda: Discrete(np.array([0.1, 0.2]), np.array([1.0])), "equal length"),
            (lambda: Discrete(np.array([0.1, 0.2]), np.array([1.5, -0.5])),
             "weights must be nonnegative"),
            (lambda: FourierDensity(np.array([0.5, 1.0])), "odd length"),
            (lambda: raised_cosine_density(64, 1.5), "amplitude"),
            (lambda: sobolev_radius(uniform_density(), 0.4), "nu >= 1/2"),
            # 2 on odd nodes of a 4-interval grid: zero at both nodes 0 and 1/2
            (lambda: GridDensity(np.array([0.0, 2.0, 0.0, 2.0, 0.0])).nodes(2),
             "degenerate shift density"),
        ],
    )
    def test_refusals(self, call, named):
        with pytest.raises(ValueError, match=named):
            call()

    def test_fourier_density_translate_rotates_coefficients(self):
        # a shift by a multiple of the grid step moves the synthesized
        # values exactly, so c_k picks up the phase e^{-i 2 pi k delta}
        g = FourierDensity(np.array([0.1 - 0.05j, 0.2j, 1.0, -0.2j, 0.1 + 0.05j]))
        moved = g.translate(0.25)
        assert isinstance(moved, GridDensity)
        ks = np.arange(1, 3)
        want = g.fourier(ks) * np.exp(-2j * np.pi * ks * 0.25)
        assert np.allclose(moved.fourier(ks), want, atol=1e-12)

    def test_fourier_density_is_its_default_grid_law(self):
        # one tabulation: every grid operation reads the same values as the
        # grid law built from the 1,024-point synthesis
        g = FourierDensity(np.array([0.1 - 0.05j, 0.2j, 1.0, -0.2j, 0.1 + 0.05j]))
        grid = GridDensity(g.on_grid(DEFAULT_GRID))
        assert isinstance(g, GridDensity) and g.m == DEFAULT_GRID
        u = np.linspace(0.0, 1.0, 101)
        assert np.array_equal(g.quantile(u), grid.quantile(u))
        for k in (7, 256, DEFAULT_GRID):
            for a, b in zip(g.nodes(k), grid.nodes(k)):
                assert np.array_equal(a, b)
        assert np.array_equal(g.translate(0.3).values, grid.translate(0.3).values)
        draws = [x.sample(50, np.random.default_rng(5)) for x in (g, grid)]
        assert np.array_equal(*draws)
        assert np.array_equal(g.on_grid(DEFAULT_GRID), grid.on_grid(DEFAULT_GRID))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("error")
    def test_fourier_non_finite_refused(self, bad):
        # refused before the Hermitian check, which NaN would pass and an
        # infinite pair would reach with a RuntimeWarning
        with pytest.raises(ValueError, match="field 'coeffs': coefficients must be finite"):
            FourierDensity(np.array([bad, 1.0, bad], dtype=complex))

    def test_json_round_trip(self):
        for g in (
            Discrete(np.array([0.1, 0.6]), np.array([0.3, 0.7])),
            raised_cosine_density(64),
            FourierDensity(np.array([0.25 - 0.1j, 1.0, 0.25 + 0.1j])),
        ):
            back = shift_from_json(shift_to_json(g))
            assert type(back) is type(g)
            for f in dataclasses.fields(g):
                assert np.array_equal(getattr(back, f.name), getattr(g, f.name))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
NUMBER_LISTS = st.lists(
    st.lists(st.floats() | st.integers(), max_size=3) | st.floats(), max_size=6
)


class TestJsonDecoding:
    @pytest.mark.parametrize(
        "doc,fieldname",
        [
            ({"kind": "discrete", "atoms": [0.5, 1.0]}, "atoms"),
            ({"kind": "discrete", "atoms": [[0.5, 1.0, 2.0]]}, "atoms"),
            ({"kind": "discrete"}, "atoms"),
            ({"kind": "grid"}, "values"),
            ({"kind": "grid", "values": [{"a": 1}, 1.0, 1.0]}, "values"),
            ({"kind": "fourier"}, "coeffs"),
            ({"kind": "fourier", "coeffs": [[1.0]]}, "coeffs"),
            ({"kind": "fourier", "coeffs": [[1.0, "x"]]}, "coeffs"),
        ],
    )
    def test_malformed_field_named(self, doc, fieldname):
        with pytest.raises(ValueError, match=f"field '{fieldname}'"):
            shift_from_json(doc)

    def test_non_finite_values_rejected(self):
        nan = float("nan")
        for doc in (
            {"kind": "discrete", "atoms": [[nan, 1.0]]},
            {"kind": "grid", "values": [1.0, nan, 1.0]},
            {"kind": "fourier", "coeffs": [[nan, 0.0], [1.0, 0.0], [nan, 0.0]]},
        ):
            with pytest.raises(ValueError):
                shift_from_json(doc)

    @given(
        doc=JSON_VALUES
        | st.fixed_dictionaries(
            {"kind": st.sampled_from(["discrete", "grid", "fourier"]) | JSON_VALUES},
            optional={
                "atoms": JSON_VALUES | NUMBER_LISTS,
                "values": JSON_VALUES | NUMBER_LISTS,
                "coeffs": JSON_VALUES | NUMBER_LISTS,
            },
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_any_document_decodes_or_raises_value_error(self, doc):
        try:
            g = shift_from_json(doc)
        except ValueError:
            return
        assert isinstance(g, ShiftDistribution)


class TestFourierCoeff:
    def test_uniform_coefficients(self):
        u = uniform_density(256)
        assert fourier_coeff(u, 0) == pytest.approx(1.0, abs=1e-12)
        for k in (1, 2, 5):
            assert abs(fourier_coeff(u, k)) < 1e-12

    def test_point_mass_all_ones(self):
        d = Discrete.point_mass(0.0)
        for k in range(-4, 5):
            assert fourier_coeff(d, k) == pytest.approx(1.0, abs=1e-15)

    def test_raised_cosine_first_coeff(self):
        rc = raised_cosine_density()
        assert fourier_coeff(rc, 1) == pytest.approx(0.5, abs=1e-10)
        assert fourier_coeff(rc, -1) == pytest.approx(0.5, abs=1e-10)

    def test_grid_agrees_with_quantization_in_the_limit(self):
        rc = raised_cosine_density()
        target = fourier_coeff(rc, 1)
        errors = []
        for atoms in (8, 32, 128):
            approx = fourier_coeff(discretize(rc, atoms), 1)
            errors.append(abs(approx - target))
        assert errors[0] > errors[1] > errors[2]


class TestGridTransform:
    @pytest.mark.parametrize("m", [16, 17])
    def test_matches_explicit_trapezoid_sum(self, m):
        # closed grid whose two end values differ, so the end correction matters
        v = np.random.default_rng(m).uniform(0.5, 1.5, m + 1)
        v[-1] = v[0] + 0.3
        v /= np.trapezoid(v, dx=1.0 / m)
        g = GridDensity(v)
        trap = np.full(m + 1, 1.0 / m)
        trap[[0, -1]] = 0.5 / m
        ks = np.arange(-2 * m, 2 * m + 1)
        phases = np.exp(-2j * np.pi * np.outer(ks, np.arange(m + 1) / m))
        want = phases @ (trap * g.values)
        assert np.max(np.abs(fourier_coeff(g, ks) - want)) <= 1e-12
        assert abs(fourier_coeff(g, 3) - want[2 * m + 3]) <= 1e-12

    def test_non_integer_frequency_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            fourier_coeff(uniform_density(16), 0.5)


class TestWasserstein:
    def test_point_masses(self):
        a, b = Discrete.point_mass(0.2), Discrete.point_mass(0.7)
        assert wasserstein1(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_self_distance(self):
        rc = raised_cosine_density()
        assert wasserstein1(rc, rc) == 0.0

    def test_uniform_vs_center(self):
        assert wasserstein1(uniform_density(), Discrete.point_mass(0.5)) == (
            pytest.approx(0.25, abs=1e-6)
        )

    def test_bounded_by_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            g = Discrete(rng.uniform(0, 1, k), rng.dirichlet(np.ones(k)))
            h = raised_cosine_density(256, rng.uniform(0, 1))
            assert wasserstein1(g, h) <= 1.0

    def test_rejects_invalid_fourier_density(self):
        # 1 + 1.2 cos(2 pi 1024 x) aliases to 2.2 on the default 1,024-grid,
        # which construction tabulates: it integrates to 2.2 there
        coeffs = np.zeros(2049, dtype=complex)
        coeffs[[0, 1024, 2048]] = 0.6, 1.0, 0.6
        with pytest.raises(ValueError, match="integrate to 1"):
            FourierDensity(coeffs)
        # 1 + 1.2 sin(2 pi 512 x) is 1 at every point of that grid, so it is
        # built, and -0.2 halfway between them, where tv_density's finer
        # 2,048-grid synthesis refuses it
        coeffs = np.zeros(1025, dtype=complex)
        coeffs[[0, 512, 1024]] = 0.6j, 1.0, -0.6j
        bad = FourierDensity(coeffs)
        with pytest.raises(ValueError, match="negative"):
            tv_density(bad, uniform_density(2048))


class TestTotalVariation:
    def test_self(self):
        rc = raised_cosine_density()
        assert tv_density(rc, rc) == 0.0

    def test_disjoint_atoms(self):
        a = Discrete(np.array([0.1]), np.array([1.0]))
        b = Discrete(np.array([0.9]), np.array([1.0]))
        assert tv_density(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_raised_cosine_vs_uniform(self):
        # (1/2) int |cos(2 pi x)| dx = 1/pi
        val = tv_density(raised_cosine_density(), uniform_density())
        assert val == pytest.approx(1.0 / np.pi, abs=1e-5)

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(1)
        t = np.linspace(0, 1, 257)
        for _ in range(5):
            g = GridDensity(1.0 + rng.uniform(0, 0.9) * np.cos(2 * np.pi * t))
            h = GridDensity(1.0 + rng.uniform(0, 0.9) * np.sin(2 * np.pi * t) ** 2 * 0)
            assert tv_density(g, h) == tv_density(h, g) >= 0.0

    def test_transport_dominated_by_tv_dominated_by_l2(self):
        # W1 <= d_TV and d_TV <= ||g - h||_{L2} / 2 on grid densities
        rng = np.random.default_rng(2)
        t = np.linspace(0, 1, 513)
        for _ in range(20):
            a1, a2 = rng.uniform(0, 0.6, 2)
            p1, p2 = rng.uniform(0, 1, 2)
            g = GridDensity(1.0 + a1 * np.cos(2 * np.pi * (t - p1)))
            h = GridDensity(1.0 + a2 * np.cos(2 * np.pi * (t - p2)))
            tv = tv_density(g, h)
            w1 = wasserstein1(g, h)
            l2 = np.sqrt(np.trapezoid((g.values - h.values) ** 2, t))
            assert w1 <= tv + 1e-9
            assert tv <= l2 / 2.0 + 1e-9


class TestSmoothnessRadius:
    def test_uniform_radius_zero(self):
        assert sobolev_radius(uniform_density(), 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_raised_cosine(self):
        # two symmetric coefficients of modulus 1/2: sqrt(2 (1/2)^2)
        assert sobolev_radius(raised_cosine_density(), 1.0) == pytest.approx(
            2.0**-0.5, abs=1e-8
        )

    def test_power_law_partial_sum(self):
        k_max = 12
        beta = 2.0
        ks = np.arange(-k_max, k_max + 1)
        coeffs = np.zeros(ks.size, dtype=complex)
        coeffs[ks != 0] = 0.2 * np.abs(ks[ks != 0]).astype(float) ** (-beta)
        coeffs[k_max] = 1.0
        g = FourierDensity(coeffs)
        expected = np.sqrt(
            2.0 * np.sum(np.arange(1.0, k_max + 1) ** 3 * (0.2 * np.arange(1.0, k_max + 1) ** -2.0) ** 2)
        )
        assert sobolev_radius(g, 1.5) == pytest.approx(expected, rel=1e-12)

    def test_in_class(self):
        # 1 + cos(2 pi x): c_{+-1} = 1/2, so the radius is sqrt(1/2) at any nu
        rc = raised_cosine_density()
        assert 0.5 < sobolev_radius(rc, 1.0) < 1.0

    def test_atom_rejected(self):
        with pytest.raises(TypeError):
            sobolev_radius(Discrete.point_mass(0.5), 1.0)


class TestSampling:
    def test_point_mass_draws(self):
        rng = np.random.default_rng(0)
        draws = sample(Discrete.point_mass(0.3), 50, rng)
        assert np.all(draws == 0.3)

    def test_uniform_mean(self):
        rng = np.random.default_rng(1)
        n = 10**5
        draws = sample(uniform_density(), n, rng)
        band = 3.0 * (1.0 / np.sqrt(12.0)) / np.sqrt(n)
        assert abs(draws.mean() - 0.5) < band

    def test_empirical_first_coefficient(self):
        rng = np.random.default_rng(2)
        g = raised_cosine_density()
        n = 200_000
        draws = sample(g, n, rng)
        empirical = np.mean(np.exp(-2j * np.pi * draws))
        assert abs(empirical - fourier_coeff(g, 1)) < 3.0 / np.sqrt(n)

    def test_deterministic_given_state(self):
        g = raised_cosine_density()
        a = sample(g, 10, np.random.default_rng(5))
        b = sample(g, 10, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample(uniform_density(), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", range(6))
    def test_atom_draws_are_rng_choice(self, seed):
        # the inverse CDF on the base class's uniforms takes numpy choice's
        # own steps: the same draws, and the stream left at the same place
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 60))
        w = rng.random(k) * (rng.random(k) < 0.6)
        w[0] += 0.1
        for g in (Discrete(rng.random(k), w / w.sum()), Discrete.point_mass(0.7)):
            a, b = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
            p = g.weights / g.weights.sum()
            draws = sample(g, 300, a)
            assert np.array_equal(draws, g.positions[b.choice(g.positions.size, 300, p=p)])
            assert a.random() == b.random()
            assert np.all(np.isin(draws, g.positions[g.weights > 0]))

    @pytest.mark.parametrize("k", [1, 2, 17, 200])
    def test_categorical_is_rng_choice(self, k):
        rng = np.random.default_rng(k)
        p = rng.random(k) * (rng.random(k) < 0.7)
        p[-1] += 0.05
        p /= p.sum()
        a, b = np.random.default_rng(k + 1), np.random.default_rng(k + 1)
        for size in (1, 5, 500):
            assert np.array_equal(categorical(p, a.random(size)), b.choice(k, size, p=p))
        assert categorical(p, a.random()) == b.choice(k, p=p)
        assert a.random() == b.random()

    def test_cumulative_trapezoid(self):
        v = np.random.default_rng(3).random(65)
        want = np.concatenate([[0.0], np.cumsum(0.5 / 64 * (v[1:] + v[:-1]))])
        assert np.array_equal(cumulative_trapezoid(v), want)
        assert cumulative_trapezoid(v)[-1] == pytest.approx(np.trapezoid(v, dx=1 / 64))


class TestDiscretize:
    def test_point_mass_fixed(self):
        d = discretize(Discrete.point_mass(0.4), 7)
        assert d.positions.tolist() == [0.4]
        assert d.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert d.weights.size == 1

    def test_uniform_quantiles(self):
        d = discretize(uniform_density(), 4)
        assert np.allclose(d.positions, [0.125, 0.375, 0.625, 0.875], atol=1e-9)
        assert np.allclose(d.weights, 0.25)

    def test_transport_error_rate(self):
        for j in (2, 5, 10):
            err = wasserstein1(uniform_density(), discretize(uniform_density(), j))
            assert err == pytest.approx(1.0 / (4.0 * j), abs=1e-6)

    def test_error_decreases(self):
        g = raised_cosine_density()
        errs = [wasserstein1(g, discretize(g, j)) for j in (4, 16, 64)]
        assert errs[0] > errs[1] > errs[2]
