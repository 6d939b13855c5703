"""Model persistence round trips."""

import dataclasses
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import mgpch.model as model_module
from mgpch.cli import build_parser
from mgpch.copula import FAMILIES, family_from_name, train_pairwise
from mgpch.errors import FormatError, InvalidArgumentError
from mgpch.kernels import Ar1Kernel, ZeroKernel
from mgpch.model import MgpchConfig, MgpchModel, fit, free_energy, predict, predict_batch
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
        # a load factors the same stored Q and B as the fit, so the bits agree
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
        assert restored.lengthscale == original.lengthscale

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

    @pytest.mark.parametrize("m_tilde", [-7.5, [[-7.0, -7.5], [-8.0, -8.5]]], ids=["scalar", "per-component-and-output"])
    def test_config_m_tilde_that_a_refit_accepts_loads_and_saves_unchanged(self, fitted, tmp_path, m_tilde):
        model, _ = fitted
        path = tmp_path / "x.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        payload["config"]["m_tilde"] = m_tilde
        path.write_text(json.dumps(payload, separators=(",", ":")))
        loaded, _ = load_model(path)
        assert np.array_equal(loaded.config.m_tilde, m_tilde)
        again = tmp_path / "y.json"
        save_model(again, loaded)
        assert json.loads(again.read_text()) == payload

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
        free_energy(loaded.state, loaded)  # builds the derived caches
        for m in (model, loaded):
            shapes = {k: v.shape for k, v in vars(m.state).items() if isinstance(v, np.ndarray)}
            assert all(len(shape) < 4 for shape in shapes.values()), shapes
        # S is rebuilt on demand, with the same bits after a load
        assert model.state.S.shape == (2, 2, 12, 12)
        assert np.array_equal(loaded.state.S, model.state.S)

    @pytest.mark.parametrize("p", [1, 2])
    def test_first_forecast_after_a_load_factors_each_block_once(self, p, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(15, p))
        Y = 0.02 * rng.standard_normal((15, 2))
        kernels = [Ar1Kernel(0.5, 0.4), ZeroKernel(), ZeroKernel()]
        config = MgpchConfig(pyp=PypConfig(truncation=3), mean_kernels=kernels, max_iters=4)
        model = fit(X, Y, config)
        save_model(tmp_path / "model.json", model)
        loaded, _ = load_model(tmp_path / "model.json")
        factored = []
        cholesky = model_module.cholesky_factor

        def count(A, context):
            factored.append(context)
            return cholesky(A, context)

        monkeypatch.setattr(model_module, "cholesky_factor", count)

        def refresh(state, ctx):
            raise AssertionError("a forecast rebuilt the caches")

        monkeypatch.setattr(model_module, "refresh_caches", refresh)
        Xstar = rng.normal(size=(4, p))
        got = predict_batch(loaded, Xstar)
        # one factor per noise block (C D = 6) and per block with a mean kernel (D = 2)
        assert sorted(factored) == ["mean bound matrix"] * 2 + ["noise bound matrix"] * 6
        assert loaded.state.g_kl is None
        want = predict_batch(model, Xstar)
        for f in dataclasses.fields(want):
            assert getattr(got, f.name).tolist() == getattr(want, f.name).tolist(), f.name


def small_fit(mean_kernel):
    """A C = 3, D = 2 fit whose every component has ``mean_kernel``."""
    rng = np.random.default_rng(11)
    X = rng.normal(size=(20, 1))
    Y = 0.02 * rng.standard_normal((20, 2))
    config = MgpchConfig(pyp=PypConfig(truncation=3), mean_kernels=[mean_kernel] * 3, max_iters=8, seed=2)
    return fit(X, Y, config)


MEAN_KERNELS = pytest.mark.parametrize("mean_kernel", [ZeroKernel(), Ar1Kernel(0.5, 0.4)], ids=["zero-kernel", "ar1-mean-kernel"])


class TestDerivedMu:
    @MEAN_KERNELS
    def test_file_holds_no_mu_and_a_load_rebuilds_it(self, mean_kernel, tmp_path):
        model = small_fit(mean_kernel)
        path = tmp_path / "model.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        assert payload["version"] == 5
        assert "mu" not in payload["state"]
        loaded, _ = load_model(path)
        assert loaded.state.mu is None
        # B and the data fix q(f), so the rebuilt mu and free energy are the fitted bits
        assert free_energy(loaded.state, loaded) == model.free_energy_trace[-1]
        assert np.array_equal(loaded.state.mu, model.state.mu)
        assert np.any(model.state.mu != 0.0) == isinstance(mean_kernel, Ar1Kernel)

    @MEAN_KERNELS
    def test_version_4_file_loads_and_its_mu_is_ignored(self, mean_kernel, tmp_path):
        model = small_fit(mean_kernel)
        current, old = tmp_path / "v5.json", tmp_path / "v4.json"
        save_model(current, model)
        payload = json.loads(current.read_text())
        payload["version"] = 4
        payload["state"]["mu"] = np.random.default_rng(0).standard_normal(model.state.t.shape).tolist()
        old.write_text(json.dumps(payload))
        (a, _), (b, _) = load_model(current), load_model(old)
        Xstar = np.array([[-0.4], [0.0], [1.3]])
        want, got = predict_batch(a, Xstar), predict_batch(b, Xstar)
        for f in dataclasses.fields(want):
            assert getattr(got, f.name).tolist() == getattr(want, f.name).tolist(), f.name
        assert free_energy(b.state, b) == free_energy(a.state, a) == model.free_energy_trace[-1]
        assert np.array_equal(b.state.mu, model.state.mu)
        # a re-save writes version 5, the same bytes as the version 5 file
        resaved = tmp_path / "resaved.json"
        save_model(resaved, b)
        assert resaved.read_bytes() == current.read_bytes()


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
        with pytest.raises(FormatError, match=f"'state.{name}'"):
            load_model(path)

    @pytest.mark.parametrize(
        "corrupt, field",
        [
            (lambda payload: payload["X"][3].__setitem__(0, float("nan")), "'X'"),
            (lambda payload: payload["noise_kernels"].pop(), "noise_kernels"),
            (lambda payload: payload["m_tilde"].pop(), "m_tilde"),
            (lambda payload: payload["Y"].pop(), "X and Y must agree"),
        ],
        ids=["nan-in-X", "noise-kernel-missing", "m_tilde-wrong-shape", "Y-one-row-short"],
    )
    def test_inputs_fit_would_reject_are_a_format_error_at_load(self, fitted, tmp_path, corrupt, field):
        model, _ = fitted
        path = tmp_path / "x.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=field):
            load_model(path)

    @pytest.mark.parametrize(
        "corrupt, field",
        [
            (lambda state: state["R"].pop(), "'state.R' has shape (23, 2), expected (24, 2)"),
            (lambda state: state["Q"].pop(), "'state.Q' has shape (1, 2, 24), expected (2, 2, 24)"),
            (lambda state: [block.pop() for block in state["B"]], "'state.B' has shape (2, 1, 24), expected (2, 2, 24)"),
            (lambda state: state["sticks"]["beta1"].append(1.0), "'state.sticks.beta1' has shape (2,), expected (1,)"),
        ],
        ids=["R-one-row-short", "Q-one-component-short", "B-one-output-short", "beta1-one-entry-long"],
    )
    def test_state_of_the_wrong_shape_is_a_format_error(self, fitted, tmp_path, corrupt, field):
        model, _ = fitted
        path = tmp_path / "x.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        corrupt(payload["state"])
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=re.escape(field)):
            load_model(path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda payload: payload["noise_kernels"][0].__setitem__("phi", "0.5"),
             "field 'noise_kernels[0].phi' is not a numeric array"),
            (lambda payload: payload["noise_kernels"][0].__setitem__("phi", 2.0),
             "field 'noise_kernels[0]': phi must lie in (0, 1), got 2.0"),
            (lambda payload: payload["noise_kernels"][0].pop("phi"), "missing field 'noise_kernels[0].phi'"),
            (lambda payload: payload["config"]["pyp"].pop("delta"), "missing field 'config.pyp.delta'"),
            (lambda payload: payload["state"]["sticks"].pop("beta2"), "missing field 'state.sticks.beta2'"),
            (lambda payload: payload["state"].pop("t"), "missing field 'state.t'"),
            (lambda payload: payload["pairwise_copulas"][0].pop("w"), "missing field 'pairwise_copulas[0].w'"),
            (lambda payload: payload["noise_kernels"][1].__setitem__("kind", "rbf"),
             "field 'noise_kernels[1].kind': unknown kernel kind 'rbf'"),
            (lambda payload: payload["config"]["mean_kernels"][1].__setitem__("sigma0_sq", -0.4),
             "field 'config.mean_kernels[1]': sigma0_sq must be positive, got -0.4"),
            (lambda payload: payload["mean_kernels"].__setitem__(0, ["ar1", 0.5, 0.4]),
             "field 'mean_kernels[0]' must be an object, got an array"),
            (lambda payload: payload.__setitem__("noise_kernels", {"kind": "zero"}),
             "field 'noise_kernels' must be an array, got an object"),
            (lambda payload: payload["config"].__setitem__("pyp", [2]), "field 'config.pyp' must be an object, got an array"),
            (lambda payload: payload.__setitem__("config", None), "field 'config' must be an object, got null"),
            (lambda payload: payload.__setitem__("state", []), "field 'state' must be an object, got an array"),
            (lambda payload: payload["state"].__setitem__("innovation", 2.0), "field 'state.innovation' must be an object, got a number"),
            (lambda payload: payload.__setitem__("pairwise_copulas", {}), "field 'pairwise_copulas' must be an array, got an object"),
            (lambda payload: payload["pairwise_copulas"].__setitem__(0, "clayton"),
             "field 'pairwise_copulas[0]' must be an object, got a string"),
            (lambda payload: payload.__setitem__("free_energy_trace", 1.5), "field 'free_energy_trace' must be an array, got a number"),
            (lambda payload: payload["free_energy_trace"].__setitem__(0, "x"), "field 'free_energy_trace' is not a numeric array"),
            (lambda payload: payload["free_energy_trace"].__setitem__(0, None), "field 'free_energy_trace' is not a numeric array"),
            (lambda payload: payload["free_energy_trace"].__setitem__(0, float("nan")), "field 'free_energy_trace' holds non-finite values"),
            (lambda payload: payload.__setitem__("free_energy_trace", [[1.0, 2.0]]), "field 'free_energy_trace' has shape (1, 2), expected (1,)"),
            (lambda payload: payload.__setitem__("trace_labels", [1, 2]), "field 'trace_labels' must hold one string per free_energy_trace entry"),
            (lambda payload: payload["trace_labels"].pop(), "field 'trace_labels' must hold one string per free_energy_trace entry"),
            (lambda payload: payload.__setitem__("trace_labels", "noise"), "field 'trace_labels' must be an array, got a string"),
            (lambda payload: payload["config"].__setitem__("m_tilde", "x"), "field 'config.m_tilde' is not a numeric array"),
            (lambda payload: payload["config"].__setitem__("m_tilde", [1.0, 2.0, 3.0]),
             "field 'config.m_tilde': m_tilde must broadcast to (2, 2), got (3,)"),
            (lambda payload: payload["config"].__setitem__("m_tilde", [float("nan")]), "field 'config.m_tilde' holds non-finite values"),
        ],
        ids=[
            "string-phi",
            "phi-out-of-range",
            "missing-phi",
            "missing-pyp-delta",
            "missing-beta2",
            "missing-state-t",
            "missing-copula-weights",
            "unknown-kernel-kind",
            "negative-config-sigma0_sq",
            "list-for-a-kernel",
            "object-for-the-kernels",
            "list-for-pyp",
            "null-config",
            "list-for-state",
            "number-for-innovation",
            "object-for-the-copulas",
            "string-for-a-copula",
            "number-for-the-trace",
            "string-in-the-trace",
            "null-in-the-trace",
            "nan-in-the-trace",
            "nested-trace",
            "numbers-for-the-trace-labels",
            "one-trace-label-short",
            "string-for-the-trace-labels",
            "string-config-m_tilde",
            "config-m_tilde-of-the-wrong-shape",
            "nan-config-m_tilde",
        ],
    )
    def test_field_of_the_wrong_form_is_a_format_error_naming_it(self, fitted, tmp_path, corrupt, message):
        model, copulas = fitted
        path = tmp_path / "x.json"
        save_model(path, model, pairwise=copulas)
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_model(path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda state: state["sticks"]["beta1"].__setitem__(0, -1.0), "field 'state.sticks': Beta parameters must be positive"),
            (lambda state: state["innovation"].__setitem__("eta1_hat", "2.0"), "field 'state.innovation.eta1_hat' is not a numeric array"),
            (lambda state: state["innovation"].__setitem__("eta2_hat", None), "field 'state.innovation.eta2_hat' is not a numeric array"),
        ],
        ids=["negative-beta1", "string-eta1_hat", "null-eta2_hat"],
    )
    def test_bad_stick_or_innovation_value_is_a_format_error_naming_the_field(self, fitted, tmp_path, corrupt, message):
        model, _ = fitted
        path = tmp_path / "x.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        corrupt(payload["state"])
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_model(path)

    @pytest.mark.parametrize("name, value", [("seed", -1), ("max_iters", 2.5), ("max_iters", True)])
    def test_config_fit_would_reject_is_a_format_error(self, fitted, tmp_path, name, value):
        model, _ = fitted
        path = tmp_path / "x.json"
        save_model(path, model)
        payload = json.loads(path.read_text())
        payload["config"][name] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"^{name} must be an integer >= 0"):
            load_model(path)

    @pytest.mark.parametrize(
        "lengthscale, message",
        [(0.0, "must be positive"), (-1.0, "must be positive"), (float("nan"), "holds non-finite values")],
        ids=["0.0", "-1.0", "nan"],
    )
    def test_non_positive_copula_lengthscale_is_rejected(self, fitted, tmp_path, lengthscale, message):
        model, copulas = fitted
        path = tmp_path / "x.json"
        save_model(path, model, pairwise=copulas)
        payload = json.loads(path.read_text())
        payload["pairwise_copulas"][0]["lengthscale"] = lengthscale
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=re.escape(f"field 'pairwise_copulas[0].lengthscale' ") + message):
            load_model(path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda entry: entry.__setitem__("lengthscale", "2.0"), "'pairwise_copulas[0].lengthscale' is not a numeric array"),
            (lambda entry: entry.__setitem__("lengthscale", None), "'pairwise_copulas[0].lengthscale' is not a numeric array"),
            (lambda entry: entry["w"].__setitem__(0, "1.0"), "'pairwise_copulas[0].w' is not a numeric array"),
            (lambda entry: entry["w"].pop(), "'pairwise_copulas[0].w' has shape"),
            (lambda entry: entry.__setitem__("pair", ["x", 1]), "'pairwise_copulas[0].pair' must hold two distinct output indices in [0, 2)"),
            (lambda entry: entry.__setitem__("pair", [0, 5]), "'pairwise_copulas[0].pair' must hold two distinct output indices in [0, 2)"),
            (lambda entry: entry.__setitem__("pair", [1, 1]), "'pairwise_copulas[0].pair' must hold two distinct"),
            (lambda entry: entry.__setitem__("pair", [0, True]), "'pairwise_copulas[0].pair' must hold two distinct"),
            (lambda entry: entry.__setitem__("pair", [0]), "'pairwise_copulas[0].pair' must hold two distinct"),
            (lambda entry: [point.append(0.0) for point in entry["basis_points"]], "'pairwise_copulas[0].basis_points' has shape"),
            (lambda entry: entry.__setitem__("basis_points", []), "'pairwise_copulas[0].basis_points' has shape (0,)"),
            (lambda entry: entry.__setitem__("family", "normal"), "'pairwise_copulas[0].family': unknown copula family"),
        ],
        ids=[
            "string-lengthscale",
            "null-lengthscale",
            "string-w",
            "w-one-entry-short",
            "string-in-pair",
            "pair-out-of-range",
            "pair-not-distinct",
            "bool-in-pair",
            "pair-one-index",
            "basis-points-one-column-long",
            "no-basis-points",
            "unknown-family",
        ],
    )
    def test_copula_of_the_wrong_form_is_a_format_error_naming_the_field(self, fitted, tmp_path, corrupt, message):
        model, copulas = fitted
        path = tmp_path / "x.json"
        save_model(path, model, pairwise=copulas)
        payload = json.loads(path.read_text())
        corrupt(payload["pairwise_copulas"][0])
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=re.escape(message)):
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


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_registered_family_round_trips_and_is_a_cli_choice(fitted, tmp_path, name):
    model, _ = fitted
    pair = train_pairwise((0, 1), model, (model.X, model.Y), family_from_name(name))
    path = tmp_path / "model.json"
    save_model(path, model, pairwise={(0, 1): pair})
    _, loaded = load_model(path)
    assert loaded[(0, 1)].family == pair.family == FAMILIES[name]()
    assert loaded[(0, 1)].w.tolist() == pair.w.tolist()
    assert build_parser().parse_args(["cov-backtest", "--family", name]).family == name


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
    assert free_energy(loaded.state, loaded) == model.free_energy_trace[-1]
    # only primal arrays, none N x N: (C + 3 C D) N numbers plus the sticks and the innovation
    assert "mu" not in state
    n, C = model.state.R.shape
    D = model.Y.shape[1]
    leaves = np.concatenate([np.ravel(state[k]) for k in ("R", "t", "Q", "B")])
    assert leaves.size == (C + 3 * C * D) * n
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
