"""Fourier series arithmetic: rotations, norms, projections, synthesis."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simlab.fourier import (
    FourierSeries,
    complex_to_json,
    evaluate,
    h1_norm,
    is_phase_normalized,
    project,
    rotate,
    series_from_json,
    series_to_json,
    sobolev_s_norm,
)


def random_series(rng, cutoff):
    c = rng.normal(size=2 * cutoff + 1) + 1j * rng.normal(size=2 * cutoff + 1)
    return FourierSeries(cutoff, c)


class TestConstruction:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            FourierSeries(2, np.zeros(4, dtype=complex))

    def test_finite_checked(self):
        with pytest.raises(ValueError):
            FourierSeries(0, np.array([np.inf + 0j]))

    @pytest.mark.parametrize(
        "call, named",
        [
            (lambda: FourierSeries(-1, np.zeros(0, dtype=complex)), "cutoff must be nonnegative"),
            (lambda: FourierSeries.from_dict({3: 1.0}, cutoff=2), "frequency 3 beyond cutoff 2"),
            (lambda: project(FourierSeries.zero(1), -1), "cutoff must be nonnegative"),
        ],
    )
    def test_refusals(self, call, named):
        with pytest.raises(ValueError, match=named):
            call()

    def test_coeff_lookup(self):
        th = FourierSeries.from_dict({-1: 2j, 1: 1.0 + 0j}, cutoff=1)
        assert th.coeff(-1) == 2j
        assert th.coeff(1) == 1.0
        assert th.coeff(5) == 0.0

    def test_json_round_trip(self):
        rng = np.random.default_rng(0)
        th = random_series(rng, 3)
        back = series_from_json(series_to_json(th))
        assert back.cutoff == 3
        assert np.array_equal(back.coeffs, th.coeffs)

    def test_complex_json_keeps_every_bit(self):
        values = np.array([[complex(-0.0, 0.0), 1e-310 - 2.5j, 0.1 + 1 / 3 * 1j]])
        text = json.dumps(complex_to_json(values[0, ::-1]))
        assert text == "[[0.1, 0.3333333333333333], [1e-310, -2.5], [-0.0, 0.0]]"

    @pytest.mark.parametrize(
        "doc,fieldname",
        [
            ({"cutoff": 0, "coeffs": [[1.0]]}, "coeffs"),
            ({"cutoff": 0, "coeffs": [1.0, 2.0]}, "coeffs"),
            ({"cutoff": None, "coeffs": [[1.0, 0.0]]}, "cutoff"),
            ({"cutoff": float("inf"), "coeffs": [[1.0, 0.0]]}, "cutoff"),
            # non-integral cutoffs that int() would truncate to a valid one
            ({"cutoff": 1.9, "coeffs": [[0.0, 0.0]] * 3}, "cutoff"),
            ({"cutoff": True, "coeffs": [[0.0, 0.0]] * 3}, "cutoff"),
            ({"cutoff": "2", "coeffs": [[0.0, 0.0]] * 5}, "cutoff"),
        ],
    )
    def test_malformed_field_named(self, doc, fieldname):
        with pytest.raises(ValueError, match=f"field '{fieldname}'"):
            series_from_json(doc)

    @given(
        doc=st.fixed_dictionaries(
            {},
            optional={
                "cutoff": st.integers(-2, 3) | st.floats() | st.none() | st.text(),
                "coeffs": st.lists(
                    st.lists(st.floats() | st.integers() | st.text(), max_size=3)
                    | st.floats()
                    | st.none(),
                    max_size=8,
                ),
            },
        )
        | st.lists(st.integers(), max_size=3)
    )
    @settings(max_examples=300, deadline=None)
    def test_any_document_decodes_or_raises_value_error(self, doc):
        try:
            th = series_from_json(doc)
        except ValueError:
            return
        assert isinstance(th, FourierSeries)


class TestRotate:
    def test_zero_shift_is_identity(self):
        rng = np.random.default_rng(1)
        th = random_series(rng, 4)
        assert np.allclose(rotate(th, 0.0).coeffs, th.coeffs)

    def test_half_turn_flips_first_harmonic(self):
        th = FourierSeries.from_dict({1: 1.0 + 0j}, cutoff=1)
        out = rotate(th, 0.5)
        assert out.coeff(1) == pytest.approx(-1.0, abs=1e-12)
        assert out.coeff(0) == 0.0
        assert out.coeff(-1) == 0.0

    def test_group_property(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            th = random_series(rng, int(rng.integers(1, 6)))
            p1, p2 = rng.uniform(0, 1, 2)
            lhs = rotate(rotate(th, p1), p2)
            rhs = rotate(th, (p1 + p2) % 1.0)
            assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)

    @given(
        st.floats(0, 1, exclude_max=True),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rotation_is_isometry(self, phi, cutoff, seed):
        th = random_series(np.random.default_rng(seed), cutoff)
        rot = rotate(th, phi)
        assert np.linalg.norm(rot.coeffs) == pytest.approx(np.linalg.norm(th.coeffs), abs=1e-12)
        assert h1_norm(rot) == pytest.approx(h1_norm(th), abs=1e-12)
        assert sobolev_s_norm(rot, 1.5) == pytest.approx(
            sobolev_s_norm(th, 1.5), abs=1e-12
        )


class TestNorms:
    def test_h1_ignores_dc(self):
        th = FourierSeries.from_dict({0: 3.0 + 1j}, cutoff=2)
        assert h1_norm(th) == 0.0

    def test_h1_single_harmonic(self):
        th = FourierSeries.from_dict({1: 1.0 + 0j}, cutoff=1)
        assert h1_norm(th) == 1.0

    def test_h1_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        th = random_series(rng, 8)
        direct = 0.0
        for k in range(-8, 9):
            direct += k**2 * abs(th.coeff(k)) ** 2
        assert h1_norm(th) == pytest.approx(np.sqrt(direct), rel=1e-12)

    def test_zero_series(self):
        z = FourierSeries.zero(3)
        assert np.linalg.norm(z.coeffs) == 0.0
        assert sobolev_s_norm(z, 2.0) == 0.0

    def test_sobolev_hand_value(self):
        th = FourierSeries.from_dict({0: 1.0 + 0j, 1: 1.0 + 0j}, cutoff=2)
        # (1 + 0) * 1 + (1 + 1) * 1 = 3
        assert sobolev_s_norm(th, 1.0) ** 2 == pytest.approx(3.0, rel=1e-12)

    def test_sobolev_rejects_small_s(self):
        with pytest.raises(ValueError):
            sobolev_s_norm(FourierSeries.zero(1), 0.5)


class TestProject:
    def test_enlarging_preserves_values(self):
        rng = np.random.default_rng(4)
        th = random_series(rng, 3)
        up = project(th, 6)
        assert up.cutoff == 6
        for k in range(-6, 7):
            assert up.coeff(k) == th.coeff(k)

    def test_to_dc_only(self):
        rng = np.random.default_rng(5)
        th = random_series(rng, 3)
        down = project(th, 0)
        assert down.coeffs.shape == (1,)
        assert down.coeff(0) == th.coeff(0)

    def test_tail_energy_identity(self):
        rng = np.random.default_rng(6)
        th = random_series(rng, 7)
        for m in range(0, 7):
            kept = project(project(th, m), 7)
            tail = np.sum(np.abs(th.coeffs - kept.coeffs) ** 2)
            direct = sum(
                abs(th.coeff(k)) ** 2 for k in range(-7, 8) if abs(k) > m
            )
            assert tail == pytest.approx(direct, rel=1e-12)

    def test_idempotent_and_contractive(self):
        rng = np.random.default_rng(7)
        th = random_series(rng, 5)
        once = project(th, 2)
        twice = project(once, 2)
        assert np.array_equal(once.coeffs, twice.coeffs)
        assert np.linalg.norm(once.coeffs) <= np.linalg.norm(th.coeffs)
        assert h1_norm(once) <= h1_norm(th)
        assert sobolev_s_norm(once, 1.5) <= sobolev_s_norm(th, 1.5)


class TestEvaluate:
    def test_constant(self):
        th = FourierSeries.from_dict({0: 2.0 - 1j}, cutoff=0)
        assert evaluate(th, 0.37) == pytest.approx(2.0 - 1j)

    def test_shift_property(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            th = random_series(rng, 4)
            tau, x = rng.uniform(0, 1, 2)
            lhs = evaluate(rotate(th, tau), x)
            rhs = evaluate(th, x - tau)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_periodicity(self):
        rng = np.random.default_rng(9)
        th = random_series(rng, 3)
        assert evaluate(th, 0.25) == pytest.approx(evaluate(th, 1.25), abs=1e-10)

    def test_reintegration_recovers_coefficients(self):
        rng = np.random.default_rng(10)
        th = random_series(rng, 5)
        grid = np.arange(4096) / 4096.0
        vals = evaluate(th, grid)
        for k in range(-5, 6):
            # periodic rectangle rule: spectrally exact for band-limited input
            ck = np.mean(vals * np.exp(-2j * np.pi * k * grid))
            assert ck == pytest.approx(th.coeff(k), abs=1e-10)


class TestPhaseGauge:
    def test_positive_first_coeff(self):
        th = FourierSeries.from_dict({1: 0.5 + 0j}, cutoff=1)
        assert is_phase_normalized(th)

    def test_rejects_phase(self):
        th = FourierSeries.from_dict({1: 0.5j}, cutoff=1)
        assert not is_phase_normalized(th)

    def test_rejects_zero(self):
        assert not is_phase_normalized(FourierSeries.zero(2))


class TestBooleansRefused:
    @pytest.mark.parametrize(
        "coeffs",
        [
            [[True, False]],
            # numpy upcasts a boolean mixed with a float to float64
            [[True, 0.5]],
            [[1, False]],
        ],
    )
    def test_boolean_coefficient_named(self, coeffs):
        with pytest.raises(ValueError, match="field 'coeffs'"):
            series_from_json({"cutoff": 0, "coeffs": coeffs})

    def test_numbers_still_decode(self):
        theta = series_from_json({"cutoff": 0, "coeffs": [[1, 0.5]]})
        assert theta.coeffs[0] == 1.0 + 0.5j
