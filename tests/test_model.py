"""Forward simulation: exactness at zero noise, moments, persistence."""

import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from simlab.fourier import FourierSeries, project, rotate
from simlab.model import DatasetFormatError, ObservationSet, load, save, simulate
from simlab.shifts import Discrete, fourier_coeff, raised_cosine_density
from simlab.special import bessel_i_scaled_orders

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "observations_small.json")

THETA = FourierSeries.from_dict({0: 0.3 + 0j, 1: 1.0 + 0j, 2: 0.25j}, cutoff=2)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


def saved_document(n=3, cutoff=2) -> dict:
    obs = simulate(THETA, Discrete.point_mass(0.1), n, cutoff, seed=5)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "obs.json")
        save(obs, path)
        with open(path) as fh:
            return json.load(fh)


def load_document(doc: dict) -> ObservationSet:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "obs.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))
        return load(path)


@st.composite
def mutated_documents(draw):
    """A saved dataset with one to three of its fields, rows, pairs or
    numbers replaced by arbitrary JSON, or with a top-level key removed."""
    doc = saved_document()
    keys = ["n", "cutoff", "sigma", "seed", "curves", "true_shifts", "extra"]
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["set", "delete", "row", "pair", "number", "shift"]))
        value = draw(JSON_VALUES)
        if action == "set":
            doc[draw(st.sampled_from(keys))] = value
        elif action == "delete":
            doc.pop(draw(st.sampled_from(keys)), None)
        elif action == "shift" and isinstance(doc.get("true_shifts"), list):
            shifts = doc["true_shifts"]
            if shifts:
                shifts[draw(st.integers(0, len(shifts) - 1))] = value
        elif isinstance(doc.get("curves"), list) and doc["curves"]:
            rows = doc["curves"]
            j = draw(st.integers(0, len(rows) - 1))
            if action == "row":
                rows[j] = value
            elif isinstance(rows[j], list) and rows[j]:
                i = draw(st.integers(0, len(rows[j]) - 1))
                if action == "pair":
                    rows[j][i] = value
                elif isinstance(rows[j][i], list) and rows[j][i]:
                    rows[j][i][draw(st.integers(0, len(rows[j][i]) - 1))] = value
    return doc


class TestSimulate:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            simulate(THETA, raised_cosine_density(), 0, 2)

    def test_noiseless_rows_are_exact_rotations(self):
        obs = simulate(THETA, raised_cosine_density(), 8, 3, sigma=0.0, seed=3)
        target = project(THETA, 3)
        for j in range(obs.n):
            expected = rotate(target, obs.true_shifts[j]).coeffs
            assert np.array_equal(obs.curves[j], expected)

    def test_zero_shape_second_moment(self):
        n = 10**5
        obs = simulate(FourierSeries.zero(1), raised_cosine_density(), n, 1, seed=11)
        m2 = np.abs(obs.curves) ** 2
        se = m2.std() / np.sqrt(m2.size)
        assert abs(m2.mean() - 1.0) < 3.0 * se

    def test_mean_matches_damped_coefficients(self):
        # E y_k = theta_k c_k(g)
        g = raised_cosine_density()
        n = 10**5
        obs = simulate(THETA, g, n, 2, seed=13)
        for k in (-2, -1, 0, 1, 2):
            col = obs.curves[:, k + 2]
            expected = THETA.coeff(k) * fourier_coeff(g, k)
            assert abs(col.mean() - expected) < 3.0 / np.sqrt(n)

    def test_same_seed_bitwise_identical(self):
        a = simulate(THETA, raised_cosine_density(), 20, 2, seed=4)
        b = simulate(THETA, raised_cosine_density(), 20, 2, seed=4)
        assert np.array_equal(a.curves, b.curves)
        assert np.array_equal(a.true_shifts, b.true_shifts)

    def test_per_curve_substreams(self):
        # simulating a prefix reproduces the same curves: substreams are
        # derived from (seed, j), not from a shared sequential stream
        big = simulate(THETA, raised_cosine_density(), 10, 2, seed=21)
        small = simulate(THETA, raised_cosine_density(), 4, 2, seed=21)
        assert np.array_equal(big.curves[:4], small.curves)

    def test_different_seeds_decorrelate(self):
        g = raised_cosine_density()
        n, cut = 400, 2
        a = simulate(THETA, g, n, cut, seed=1)
        b = simulate(THETA, g, n, cut, seed=2)
        clean_a = np.array(
            [rotate(project(THETA, cut), t).coeffs for t in a.true_shifts]
        )
        clean_b = np.array(
            [rotate(project(THETA, cut), t).coeffs for t in b.true_shifts]
        )
        na = (a.curves - clean_a).ravel()
        nb = (b.curves - clean_b).ravel()
        corr = abs(np.vdot(na, nb)) / (np.linalg.norm(na) * np.linalg.norm(nb))
        assert corr < 3.0 / np.sqrt(n * (2 * cut + 1))

    def test_first_coefficient_modulus_law(self):
        # |y_1| follows the noncentral radial law with parameter |theta_1|
        # regardless of g; binned chi-square must not reject
        n = 10**4
        obs = simulate(THETA, raised_cosine_density(), n, 2, seed=17)
        r = np.abs(obs.curves[:, 3])
        amp = abs(THETA.coeff(1))
        grid = np.linspace(0.0, 6.0, 4001)
        scaled = bessel_i_scaled_orders(0, 2.0 * grid * amp)[:, 0]
        pdf = 2.0 * grid * scaled * np.exp(-((grid - amp) ** 2))
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(grid) * (pdf[1:] + pdf[:-1]))])
        cdf /= cdf[-1]
        edges = np.interp(np.linspace(0.0, 1.0, 26), cdf, grid)
        edges[0], edges[-1] = 0.0, np.inf
        counts, _ = np.histogram(r, bins=edges)
        expected = n / 25.0
        stat = np.sum((counts - expected) ** 2 / expected)
        p_value = stats.chi2.sf(stat, df=24)
        assert p_value > 1e-3


class TestObservationSet:
    def test_shape_validated(self):
        with pytest.raises(ValueError):
            ObservationSet(2, 1.0, np.zeros((3, 4), dtype=complex))

    def test_empty_batch_allowed(self):
        obs = ObservationSet(1, 1.0, np.zeros((0, 3), dtype=complex))
        assert obs.n == 0


class TestPersistence:
    def test_round_trip(self, tmp_path):
        obs = simulate(THETA, raised_cosine_density(), 12, 3, seed=7)
        path = tmp_path / "obs.json"
        save(obs, str(path))
        back = load(str(path))
        assert np.array_equal(back.curves, obs.curves)
        assert np.array_equal(back.true_shifts, obs.true_shifts)
        assert back.seed == obs.seed
        assert back.sigma == obs.sigma

    def test_mismatched_width_rejected(self, tmp_path):
        obs = simulate(THETA, Discrete.point_mass(0.1), 3, 2, seed=1)
        path = tmp_path / "obs.json"
        save(obs, str(path))
        doc = json.loads(path.read_text())
        doc["cutoff"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError) as err:
            load(str(path))
        assert "curves" in str(err.value)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps({"n": 1, "cutoff": 1, "sigma": 1.0}))
        with pytest.raises(DatasetFormatError) as err:
            load(str(path))
        assert "curves" in str(err.value)

    @pytest.mark.parametrize("key", ["n", "cutoff"])
    @pytest.mark.parametrize("bad", [1.9, True, "2"])
    def test_non_integral_count_refused(self, tmp_path, key, bad):
        # a file that would load if int() truncated the value
        size = {"n": 3, "cutoff": 2, key: int(bad)}
        obs = simulate(THETA, Discrete.point_mass(0.1), size["n"], size["cutoff"])
        path = tmp_path / "obs.json"
        save(obs, str(path))
        doc = json.loads(path.read_text())
        doc[key] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError, match=f"field '{key}'"):
            load(str(path))

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("seed", 1.9),
            ("seed", True),
            ("seed", "2"),
            ("true_shifts", [0.5, 1.5, -0.2]),
            ("true_shifts", [0.1, float("nan"), 0.2]),
            ("true_shifts", [0.1, float("inf"), 0.2]),
            ("true_shifts", ["a", "b", "c"]),
            ("true_shifts", [[0.1], [0.2], [0.3]]),
            ("sigma", "3"),
            ("sigma", True),
            ("sigma", None),
            ("sigma", float("nan")),
            ("sigma", -1.0),
            pytest.param("sigma", 10**400, id="sigma-huge_int"),
            ("cutoff", -1),
        ],
    )
    def test_bad_field_named(self, key, bad):
        doc = saved_document()
        doc[key] = bad
        with pytest.raises(DatasetFormatError, match=f"field '{key}'"):
            load_document(doc)

    def test_empty_batch_with_huge_cutoff_named(self):
        doc = {"n": 0, "cutoff": 10**30, "sigma": 1.0, "curves": []}
        with pytest.raises(DatasetFormatError, match="field 'cutoff'"):
            load_document(doc)

    def test_integral_sigma_and_null_seed_load(self):
        doc = saved_document()
        doc["sigma"], doc["seed"], doc["true_shifts"] = 1, None, None
        obs = load_document(doc)
        assert obs.sigma == 1.0 and obs.seed is None and obs.true_shifts is None

    @given(doc=mutated_documents())
    @settings(max_examples=300, deadline=None)
    def test_mutated_document_loads_or_names_a_field(self, doc):
        try:
            obs = load_document(doc)
        except DatasetFormatError as exc:
            assert str(exc).startswith(f"field '{exc.fieldname}': ")
            return
        assert obs.curves.shape == (obs.n, 2 * obs.cutoff + 1)
        assert 0.0 <= obs.sigma < float("inf")
        if obs.true_shifts is not None:
            assert np.all((obs.true_shifts >= 0.0) & (obs.true_shifts < 1.0))

    def test_fixture_checksum(self):
        # frozen once from seed 2024; guards serialization drift
        back = load(FIXTURE)
        digest = hashlib.sha256(
            np.ascontiguousarray(back.curves).tobytes()
        ).hexdigest()
        assert digest == (
            "6aae6f6501e468243cb3cea0ba9e26c37a1c32fa893b8114fabcafc13ab5a7a7"
        )


class TestBooleansRefused:
    @pytest.mark.parametrize("key", ["curves", "true_shifts"])
    def test_boolean_entry_named(self, key):
        doc = saved_document()
        if key == "curves":
            doc["curves"][1][0] = [True, 0.5]
        else:
            doc["true_shifts"][2] = False
        with pytest.raises(DatasetFormatError, match=f"field '{key}'"):
            load_document(doc)
