"""Model persistence round trips."""

import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mgpch.copula import family_from_name, train_pairwise
from mgpch.errors import FormatError, InvalidArgumentError
from mgpch.kernels import Ar1Kernel
from mgpch.model import MgpchConfig, MgpchModel, _model_context, fit, free_energy, predict
from mgpch.pyp import PypConfig
from mgpch.serialize import load_model, save_model


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(24, 1))
    Y = 0.02 * rng.standard_normal((24, 2))
    config = MgpchConfig(
        pyp=PypConfig(truncation=2),
        mean_kernels=[Ar1Kernel(0.5, 0.4)] * 2,
        max_iters=10,
        seed=1,
    )
    model = fit(X, Y, config)
    copulas = {(0, 1): train_pairwise((0, 1), model, (X, Y), family_from_name("clayton"))}
    return model, copulas


class TestRoundTrip:
    def test_model_round_trip_preserves_predictions_exactly(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded, pairwise = load_model(path)
        assert pairwise == {}
        assert loaded.config == model.config
        assert np.array_equal(loaded.X, model.X)
        assert np.array_equal(loaded.state.Q, model.state.Q)
        assert loaded.free_energy_trace == model.free_energy_trace
        assert loaded.trace_labels == model.trace_labels
        xstar = np.array([0.3])
        a = predict(model, xstar)
        b = predict(loaded, xstar)
        # caches rebuilt on load use the fit's own expressions, so the bits agree
        assert b.mean.tolist() == a.mean.tolist()
        assert b.variance.tolist() == a.variance.tolist()
        assert b.noise_log_mean.tolist() == a.noise_log_mean.tolist()
        assert b.noise_log_var.tolist() == a.noise_log_var.tolist()
        again, _ = load_model(path)
        c = predict(again, xstar)
        assert c.mean.tolist() == b.mean.tolist()
        assert c.variance.tolist() == b.variance.tolist()

    def test_copulas_travel_in_the_same_container(self, fitted, tmp_path):
        model, copulas = fitted
        path = tmp_path / "model.json"
        save_model(path, model, pairwise=copulas)
        loaded, pairwise = load_model(path)
        assert set(pairwise) == {(0, 1)}
        original = copulas[(0, 1)]
        restored = pairwise[(0, 1)]
        assert restored.family == original.family
        assert np.array_equal(restored.w, original.w)
        assert np.array_equal(restored.basis_points, original.basis_points)
        assert restored.basis_kernel == original.basis_kernel

    def test_save_is_byte_stable(self, fitted, tmp_path):
        model, copulas = fitted
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(first, model, pairwise=copulas)
        save_model(second, model, pairwise=copulas)
        assert first.read_bytes() == second.read_bytes()
        reloaded, pairwise = load_model(first)
        third = tmp_path / "c.json"
        save_model(third, reloaded, pairwise=pairwise)
        assert third.read_bytes() == first.read_bytes()

    def test_unfitted_model_rejected(self, fitted, tmp_path):
        model, _ = fitted
        bare = MgpchModel(
            config=model.config,
            X=model.X,
            Y=model.Y,
            mean_kernels=model.mean_kernels,
            noise_kernels=model.noise_kernels,
            m_tilde=model.m_tilde,
            state=None,
            free_energy_trace=[],
            trace_labels=[],
        )
        with pytest.raises(InvalidArgumentError):
            save_model(tmp_path / "x.json", bare)


    @pytest.mark.parametrize("p", [1, 2])
    def test_state_holds_no_n_by_n_array_after_fit_or_load(self, p, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, p))
        Y = 0.02 * rng.standard_normal((12, 2))
        config = MgpchConfig(pyp=PypConfig(truncation=2), mean_kernels=[Ar1Kernel(0.5, 0.4)] * 2, max_iters=3)
        model = fit(X, Y, config)
        save_model(tmp_path / "model.json", model)
        loaded, _ = load_model(tmp_path / "model.json")
        predict(loaded, X[0])  # builds the derived caches
        for m in (model, loaded):
            shapes = {k: v.shape for k, v in vars(m.state).items() if isinstance(v, np.ndarray)}
            assert all(len(shape) < 4 for shape in shapes.values()), shapes
        # S is rebuilt on demand, with the same bits after a load
        assert model.state.S.shape == (2, 2, 12, 12)
        assert np.array_equal(loaded.state.S, model.state.S)


class TestSchema:
    def test_rejects_other_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(FormatError):
            load_model(path)

    def test_rejects_unknown_version(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "x.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="version"):
            load_model(path)

    def test_version_1_files_ask_for_a_refit(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "old.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        for version in (1, 2, 3):
            payload["version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(FormatError, match=f"version {version}.*refit"):
                load_model(path)

    def test_rejects_broken_json_with_line(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "mgpch-model",\n  broken\n}')
        with pytest.raises(FormatError) as info:
            load_model(path)
        assert info.value.line == 2

    @pytest.mark.parametrize("name", ["t", "Q"])
    def test_non_finite_state_is_a_format_error(self, fitted, tmp_path, name):
        model, _ = fitted
        path = tmp_path / "x.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        payload["state"][name][0][0][1] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"'{name}'"):
            load_model(path)

    def test_missing_field_is_a_format_error(self, fitted, tmp_path):
        model, _ = fitted
        path = tmp_path / "x.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        del payload["state"]
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="state"):
            load_model(path)


def assert_round_trip_exact(model, xstars):
    """Save, load and re-save ``model``: same forecast bits, same bytes, same free energy."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(path, model)
        loaded, _ = load_model(path)
        for xstar in xstars:
            want, got = predict(model, xstar), predict(loaded, xstar)
            for f in dataclasses.fields(want):
                assert getattr(got, f.name).tolist() == getattr(want, f.name).tolist(), f.name
        resaved = os.path.join(tmp, "resaved.json")
        save_model(resaved, loaded)
        with open(path, "rb") as a, open(resaved, "rb") as b:
            assert a.read() == b.read()
        with open(path, encoding="utf-8") as handle:
            state = json.load(handle)["state"]
    # every cache is rebuilt bit for bit, so the loaded state scores the fitted value exactly
    assert free_energy(loaded.state, _model_context(loaded)) == model.free_energy_trace[-1]
    # no N x N array: the state holds (C + 4 C D) N numbers plus the sticks and the innovation
    n, C = model.state.R.shape
    D = model.Y.shape[1]
    leaves = np.concatenate([np.ravel(state[k]) for k in ("R", "mu", "t", "Q", "B")])
    assert leaves.size == (C + 4 * C * D) * n
    assert np.ravel(state["sticks"]["beta1"]).size == C - 1


class TestVersion2RoundTrip:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(3, 30),
        C=st.integers(1, 5),
        D=st.sampled_from([1, 2]),
        mean_kernel=st.booleans(),
        max_iters=st.integers(0, 5),
        seed=st.integers(0, 2**16),
    )
    @example(n=3, C=5, D=2, mean_kernel=True, max_iters=5, seed=0)
    @example(n=4, C=4, D=1, mean_kernel=False, max_iters=3, seed=1)
    def test_loaded_model_forecasts_the_fitted_bits(self, n, C, D, mean_kernel, max_iters, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 1))
        Y = 0.02 * rng.standard_normal((n, D))
        config = MgpchConfig(
            pyp=PypConfig(truncation=C),
            mean_kernels=[Ar1Kernel(0.5, 0.4)] * C if mean_kernel else None,
            max_iters=max_iters,
            seed=seed,
        )
        model = fit(X, Y, config)
        assert_round_trip_exact(model, [X[-1], np.zeros(1), rng.standard_normal(1)])
