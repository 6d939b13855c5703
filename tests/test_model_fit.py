"""End-to-end behavior of the coordinate-ascent fit and the sampler."""

import copy
import hashlib
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mgpch.errors import DivergedFitError, IllConditionedError, InvalidArgumentError
from mgpch.kernels import Ar1Kernel, ar1_jitter, design_matrix
import mgpch.model as model_module
from mgpch.model import (
    MgpchConfig,
    SimulationDraw,
    _extrapolated_sweep,
    _init_state,
    _make_context,
    _primal_coordinates,
    _sweep,
    fit,
    free_energy,
    refresh_caches,
    simulate,
    update_latent_functions,
    update_mixture_posteriors,
    update_noise_processes,
    update_responsibilities,
)
from mgpch.pyp import PypConfig
from mgpch.simulation import _LazyGpPath

from oracles import expected_noise_variance
from test_model_updates import count_sweeps, latent_covariances


def two_regime_draw(n_points=300, seed=9):
    """Series whose conditional variance switches between two levels."""
    phi = 0.5 ** (1.0 / 0.06)
    gen = MgpchConfig(
        pyp=PypConfig(delta=0.0, eta1=4.0, eta2=2.0, truncation=2),
        noise_kernels=(Ar1Kernel(phi=phi, sigma0_sq=(1 - phi**2) * 0.5),) * 2,
        m_tilde=np.array([[np.log(1e-4)], [np.log(1e-3)]]),
    )
    return simulate(gen, n_points, 1, seed=seed)


def smooth_kernel(X, lengthscale_factor, marginal):
    """Correlation 1/2 at a multiple of the median pairwise distance."""
    d = np.abs(X[:, None, 0] - X[None, :, 0])
    med = np.median(d[np.triu_indices(len(X), 1)])
    phi = float(np.exp(np.log(0.5) / (lengthscale_factor * med)))
    return Ar1Kernel(phi=phi, sigma0_sq=float((1 - phi**2) * marginal))


class TestFit:
    def test_constant_variance_recovery(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(121)
        X, Y = y[:-1, None], y[1:, None]
        config = MgpchConfig(pyp=PypConfig(truncation=1), seed=0)
        model = fit(X, Y, config)
        fitted = expected_noise_variance(model.state.m, model.state.s_diag)[0, 0]
        frac = np.mean((fitted >= 0.5) & (fitted <= 2.0))
        assert frac >= 0.9, f"only {frac:.0%} of fitted variances near truth"

    @staticmethod
    def pruned_fit(n_points):
        """Fit a two-regime draw with five components; return the model and each component's mass."""
        draw = two_regime_draw(n_points=n_points)
        kern = smooth_kernel(draw.X, 3.0, 0.5)
        config = MgpchConfig(
            pyp=PypConfig(delta=0.5, eta1=1.0, eta2=1.0, truncation=5),
            noise_kernels=(kern,) * 5,
            max_iters=200,
            seed=0,
        )
        model = fit(draw.X, draw.Y, config)
        return model, model.state.R.sum(axis=0) / n_points

    def test_two_regime_pruning(self):
        # 300 points hold 6.8 nats of likelihood evidence for the second regime
        # (at the true labels), too little to keep it: the fit prunes to one
        # component at F = 725.951, where a plain coordinate ascent run to
        # convergence (264 sweeps) ends too; a fit started from the true labels
        # ends lower, at F = 720.54
        model, mass = self.pruned_fit(300)
        live = int(np.sum(mass > 0.01))
        assert live == 1, f"expected pruning to 1 component, got masses {mass}"
        assert model.free_energy_trace[-1] == pytest.approx(725.951, abs=1e-3)

    def test_two_regime_pruning_keeps_both_regimes_given_more_evidence(self):
        # 400 points hold 34.2 nats of evidence for the second regime
        model, mass = self.pruned_fit(400)
        live = int(np.sum(mass > 0.01))
        assert 2 <= live <= 3, f"expected pruning to 2-3 components, got masses {mass}"

    def test_max_iters_zero_returns_initialized_model(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((12, 1))
        Y = rng.standard_normal((12, 1))
        model = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=3), max_iters=0))
        assert len(model.free_energy_trace) == 1
        assert model.trace_labels == ["init"]
        assert model.state.R.shape == (12, 3)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_free_energy_trace_is_monotone(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((40, 2))
        Y = 0.1 * rng.standard_normal((40, 2))
        config = MgpchConfig(pyp=PypConfig(truncation=3), max_iters=30, seed=seed)
        model = fit(X, Y, config)
        trace = np.array(model.free_energy_trace)
        floor = -1e-8 * np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(np.diff(trace) >= floor)
        assert len(model.trace_labels) == len(model.free_energy_trace)

    def test_converges_before_iteration_cap(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(80)
        config = MgpchConfig(pyp=PypConfig(truncation=1), max_iters=200)
        model = fit(y[:-1, None], y[1:, None], config)
        assert len(model.free_energy_trace) < 1 + 4 * 200

    def test_posterior_covariances_stay_positive_definite(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((25, 1))
        Y = 0.3 * rng.standard_normal((25, 1))
        config = MgpchConfig(
            pyp=PypConfig(truncation=2),
            mean_kernels=(Ar1Kernel(phi=0.5, sigma0_sq=0.4),) * 2,
            max_iters=15,
            seed=5,
        )
        model = fit(X, Y, config)
        S, Sigma = model.state.S, latent_covariances(model.state, model)
        for c in range(2):
            np.linalg.cholesky(S[c, 0])
            np.linalg.cholesky(Sigma[c, 0])

    def test_responsibilities_normalized_after_fit(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 1))
        Y = rng.standard_normal((30, 1))
        model = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=4), max_iters=10))
        assert_allclose(model.state.R.sum(axis=1), np.ones(30), atol=1e-12)

    def test_input_validation(self):
        with pytest.raises(InvalidArgumentError):
            fit(np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(InvalidArgumentError):
            fit(np.zeros((4, 1)), np.zeros((5, 1)))
        with pytest.raises(InvalidArgumentError):
            fit(np.array([[np.nan], [0.0]]), np.zeros((2, 1)))

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            MgpchConfig(max_iters=-1)
        with pytest.raises(InvalidArgumentError):
            MgpchConfig(tol=0.0)
        with pytest.raises(InvalidArgumentError):
            MgpchConfig(pyp=PypConfig(truncation=2), noise_kernels=(Ar1Kernel(0.5, 1.0),))
        # the mean update needs an AR(1) or zero kernel; others fail here, not inside fit
        with pytest.raises(InvalidArgumentError, match="mean kernels"):
            MgpchConfig(pyp=PypConfig(truncation=2), mean_kernels=("rbf",) * 2)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("max_iters", -1),
            ("max_iters", 2.5),
            ("max_iters", 3.0),
            ("max_iters", True),
            ("max_iters", "5"),
            ("seed", -1),
            ("seed", 1.5),
            ("seed", False),
            ("seed", None),
        ],
    )
    def test_sweep_cap_and_seed_must_be_non_negative_integers(self, name, value):
        # a float cap was never reached by the integer sweep count, and True capped the fit at one sweep
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer >= 0"):
            MgpchConfig(**{name: value})

    @pytest.mark.parametrize("value", ["1e-6", True, float("nan"), float("inf"), None])
    def test_tolerance_must_be_a_finite_number(self, value):
        # a NaN tolerance ran every fit to the sweep cap; a string ended in a bare TypeError
        with pytest.raises(InvalidArgumentError, match="^tol must be a finite number, got"):
            MgpchConfig(tol=value)

    @pytest.mark.parametrize("m_tilde", [np.nan, np.inf, -np.inf, [[0.0], [np.nan]]])
    @pytest.mark.parametrize("run", ["fit", "simulate"])
    def test_non_finite_m_tilde_is_rejected(self, run, m_tilde):
        # fit raised "free energy non-finite at initialization", and simulate drew NaN or inf variances
        config = MgpchConfig(pyp=PypConfig(truncation=2), m_tilde=m_tilde)
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidArgumentError, match="^m_tilde must be finite, got"):
            if run == "fit":
                fit(rng.standard_normal((10, 1)), rng.standard_normal((10, 1)), config)
            else:
                simulate(config, 10, 1, seed=0)

    def test_a_non_finite_free_energy_after_an_update_names_it_and_the_sweep(self, monkeypatch):
        X, Y, config = draining_fit_data(1)
        energy = model_module.free_energy
        calls = []

        def failing(state, ctx):
            # the initialization, the four updates of sweep 0, then sweep 1's noise and mean
            calls.append(None)
            return math.nan if len(calls) == 7 else energy(state, ctx)

        monkeypatch.setattr(model_module, "free_energy", failing)
        with pytest.raises(DivergedFitError, match="^free energy non-finite after mean$") as info:
            fit(X, Y, config)
        assert info.value.iteration == 1

    def test_numpy_integer_sweep_cap_and_seed_fit_as_python_ints(self):
        rng = np.random.default_rng(2)
        X, Y = rng.standard_normal((15, 1)), rng.standard_normal((15, 1))
        a = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=2), max_iters=np.int64(3), seed=np.uint8(4)))
        b = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=2), max_iters=3, seed=4))
        assert a.free_energy_trace == b.free_energy_trace


SWEEP = ("noise", "mean", "responsibilities", "mixture")


def plain_ascent(X, Y, config):
    """Coordinate ascent with no extrapolation: the state and the trace of every update, with fit's stopping rule."""
    ctx = _make_context(X, Y, config)
    state = _init_state(ctx)
    trace = [free_energy(state, ctx)]
    for _ in range(config.max_iters):
        previous = trace[-1]
        for update in (update_noise_processes, update_latent_functions, update_responsibilities, update_mixture_posteriors):
            update(state, ctx)
            trace.append(free_energy(state, ctx))
        if abs(trace[-1] - previous) <= config.tol * max(abs(previous), abs(trace[-1]), 1.0):
            break
    return state, trace


def reject_every_extrapolation(monkeypatch):
    """Every extrapolation builds and sweeps its candidates, and keeps none."""
    step = model_module._extrapolated_sweep
    monkeypatch.setattr(model_module, "_extrapolated_sweep", lambda points, floor, ctx, budget: step(points, math.inf, ctx, budget))


def draining_fit_data(p):
    """A two-regime series whose fit drains the mass of several components, with p input columns."""
    draw = two_regime_draw(n_points=150, seed=4)
    X = np.hstack([draw.X] * p) * np.arange(1, p + 1)
    config = MgpchConfig(
        pyp=PypConfig(delta=0.5, eta1=1.0, eta2=1.0, truncation=4),
        mean_kernels=(Ar1Kernel(phi=0.5, sigma0_sq=1e-5),) * 4 if p > 1 else None,
        seed=0,
    )
    return X, draw.Y, config


def assert_same_state(a, b):
    for name in ("R", "mu", "t", "Q", "B", "m", "s_diag", "omega", "inv_noise", "g_kl", "f_kl"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.sticks.beta1, b.sticks.beta1) and np.array_equal(a.sticks.beta2, b.sticks.beta2)
    assert a.innovation == b.innovation


class TestExtrapolation:
    """The safeguarded SQUAREM step that fit takes after every two plain sweeps."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_trace_never_decreases_and_kept_steps_carry_their_label(self, p):
        X, Y, config = draining_fit_data(p)
        model = fit(X, Y, config)
        trace, labels = model.free_energy_trace, model.trace_labels
        assert len(trace) == len(labels) and labels[0] == "init"
        kept = [i for i, label in enumerate(labels) if label == "extrapolation"]
        assert kept
        for i in kept:
            # one entry per kept step, after the second plain sweep of its cycle, never below it
            assert labels[i - 1] == "mixture" and trace[i] >= trace[i - 1]
        plain = [label for label in labels[1:] if label != "extrapolation"]
        assert plain == list(SWEEP) * (len(plain) // 4)
        floor = -model_module._ACCEPT_SLACK * (1.0 + np.abs(trace[:-1]))
        assert np.all(np.diff(trace) >= floor)

    @pytest.mark.parametrize("p", [1, 2])
    def test_rejected_steps_leave_the_plain_coordinate_ascent_bit_for_bit(self, monkeypatch, p):
        X, Y, config = draining_fit_data(p)
        state, trace = plain_ascent(X, Y, config)
        reject_every_extrapolation(monkeypatch)
        calls = count_sweeps(monkeypatch)
        model = fit(X, Y, config)
        assert model.free_energy_trace == trace
        assert model.trace_labels == ["init"] + list(SWEEP) * ((len(trace) - 1) // 4)
        assert_same_state(model.state, state)
        # the rejected candidates were swept
        assert len(calls) > (len(trace) - 1) // 4

    def test_a_kept_step_never_ends_the_fit(self, monkeypatch):
        # every step is kept with no gain: a copy of the state at x2, at F(x2)
        seen = []
        coordinates = model_module._primal_coordinates
        monkeypatch.setattr(model_module, "_primal_coordinates", lambda state: seen.append(state) or coordinates(state))
        monkeypatch.setattr(model_module, "_extrapolated_sweep", lambda points, floor, ctx, budget: (copy.deepcopy(seen[-1]), floor, 1))
        X, Y, config = draining_fit_data(1)
        labels = fit(X, Y, config).trace_labels
        assert labels.count("extrapolation") > 1 and labels[-1] == "mixture"

    @pytest.mark.parametrize("p", [1, 2])
    def test_a_try_builds_no_caches_and_its_sweep_leaves_them_exact(self, monkeypatch, p):
        X, Y, config = draining_fit_data(p)  # p = 2: the dense noise path, a mean kernel on every component
        ctx = _make_context(X, Y, config)
        state = _init_state(ctx)
        C, D = state.t.shape[:2]
        # a kept try factors each noise and mean block once, in its sweep; the
        # scalar noise path without mean kernels factors nothing
        per_try = 2 * C * D if p == 2 else 0
        factors, at_state = [], []
        factor, build = model_module.cholesky_factor, model_module._state_at
        monkeypatch.setattr(model_module, "cholesky_factor", lambda *a, **k: factors.append(1) or factor(*a, **k))

        def counted_build(coords, ctx):
            before = len(factors)
            built = build(coords, ctx)
            at_state.append(len(factors) - before)
            return built

        monkeypatch.setattr(model_module, "_state_at", counted_build)
        names = ("m", "mu", "s_diag", "inv_noise", "omega", "g_kl", "f_kl", "mixture_terms")
        kept = 0
        for _ in range(8):
            points = [_primal_coordinates(state)]
            for _ in range(2):
                _sweep(state, ctx)
                points.append(_primal_coordinates(state))
            factors.clear()
            candidate, value, tries = _extrapolated_sweep(points, free_energy(state, ctx), ctx, 3)
            if candidate is not None and tries == 1:
                assert len(factors) == per_try
                swept = {name: copy.deepcopy(getattr(candidate, name)) for name in names}
                refresh_caches(candidate, ctx)
                for name in names:
                    assert np.array_equal(getattr(candidate, name), swept[name]), name
                assert free_energy(candidate, ctx) == value
                kept += 1
                state = candidate
        assert kept and len(at_state) >= kept and not any(at_state)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_a_try_is_kept_only_at_a_finite_free_energy(self, monkeypatch, value):
        X, Y, config = draining_fit_data(1)
        state, trace = plain_ascent(X, Y, config)
        step = model_module._extrapolated_sweep

        def scored(points, floor, ctx, budget):
            # every try's sweep ends at a free energy of `value`
            with monkeypatch.context() as patch:
                patch.setattr(model_module, "free_energy", lambda state, ctx: value)
                return step(points, floor, ctx, budget)

        monkeypatch.setattr(model_module, "_extrapolated_sweep", scored)
        model = fit(X, Y, config)
        assert model.free_energy_trace == trace
        assert_same_state(model.state, state)

    def test_a_try_whose_bound_matrices_overflow_is_rejected(self, monkeypatch):
        X, Y, config = draining_fit_data(2)
        state, trace = plain_ascent(X, Y, config)
        build = model_module._state_at
        # diag(S) overflows at every try, and with it the expected precisions
        # and the bound matrices of the Newton step
        monkeypatch.setattr(model_module, "_state_at", lambda coords, ctx: build((coords[0], (coords[1][0], coords[1][1] + 1e3)), ctx))
        failures = []
        factor = model_module.cholesky_factor

        def recorded(A, context=""):
            try:
                return factor(A, context)
            except IllConditionedError as exc:
                failures.append(str(exc))
                raise

        monkeypatch.setattr(model_module, "cholesky_factor", recorded)
        model = fit(X, Y, config)
        assert failures and all("noise bound matrix" in f and "non-finite" in f for f in failures)
        assert model.free_energy_trace == trace
        assert_same_state(model.state, state)

    def test_a_candidate_outside_the_mixture_domains_is_rejected_untouched(self, monkeypatch):
        X, Y, config = draining_fit_data(1)
        ctx = _make_context(X, Y, config)
        state = _init_state(ctx)
        points = [_primal_coordinates(state)]
        for _ in range(2):
            _sweep(state, ctx)
            points.append(_primal_coordinates(state))
        # log beta1 moves by 400 per sweep, so every candidate's beta1 = exp(>= 800) is inf
        points[1][0][4][:] += 400.0
        points[2][0][4][:] += 800.0
        live = copy.deepcopy(state)
        built = []
        build = model_module._state_at
        monkeypatch.setattr(model_module, "_state_at", lambda coords, ctx: built.append(build(coords, ctx)) or built[-1])
        tries = model_module._EXTRAPOLATION_TRIES
        assert _extrapolated_sweep(points, -math.inf, ctx, budget=tries + 1) == (None, None, tries)
        assert built == [None] * tries
        assert_same_state(state, live)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 7, 12])
    def test_max_iters_caps_sweeps_of_both_kinds(self, monkeypatch, k):
        X, Y, config = draining_fit_data(1)
        calls = count_sweeps(monkeypatch)
        fit(X, Y, replace(config, max_iters=k, tol=1e-300))
        assert len(calls) == k
        calls.clear()
        reject_every_extrapolation(monkeypatch)
        fit(X, Y, replace(config, max_iters=k, tol=1e-300))
        assert len(calls) == k

    @pytest.mark.parametrize("p", [1, 2])
    def test_two_fits_are_bit_identical(self, p):
        X, Y, config = draining_fit_data(p)
        a, b = fit(X, Y, config), fit(X, Y, config)
        assert a.free_energy_trace == b.free_energy_trace and a.trace_labels == b.trace_labels
        assert_same_state(a.state, b.state)

    def test_a_draining_fit_keeps_steps_and_needs_fewer_sweeps(self, monkeypatch):
        draw = two_regime_draw()
        config = MgpchConfig(
            pyp=PypConfig(delta=0.5, eta1=1.0, eta2=1.0, truncation=5),
            noise_kernels=(smooth_kernel(draw.X, 3.0, 0.5),) * 5,
            seed=0,
        )
        calls = count_sweeps(monkeypatch)
        model = fit(draw.X, draw.Y, config)
        sweeps = len(calls)
        assert model.trace_labels.count("extrapolation") >= 1
        calls.clear()
        reject_every_extrapolation(monkeypatch)
        plain = fit(draw.X, draw.Y, config)
        assert sweeps < plain.trace_labels.count("noise") <= len(calls)
        # the same optimum, to the stopping tolerance
        assert model.free_energy_trace[-1] >= plain.free_energy_trace[-1] - 10 * config.tol * abs(plain.free_energy_trace[-1])


class _FixedNormals:
    """Stand-in generator whose standard normal draws are given in advance."""

    def __init__(self, z):
        self.z = list(z)

    def standard_normal(self):
        return self.z.pop(0)


def dense_reference_draw(config, n_points, n_dims, seed):
    """simulate's law and random-call order, each draw conditioned on its path's whole history by a dense solve."""
    C = config.pyp.truncation
    rng = np.random.default_rng(seed)
    delta = config.pyp.delta
    alpha = max(rng.gamma(config.pyp.eta1, 1.0 / config.pyp.eta2), 1e-300)
    v = np.ones(C)
    for c in range(C - 1):
        v[c] = rng.beta(1.0 - delta, alpha + delta * (c + 1))
    weights = v * np.concatenate([[1.0], np.cumprod(1.0 - v[:-1])])
    assignments = rng.choice(C, size=n_points, p=weights)

    def conditional_draw(kernel, prior_mean, history, values, x):
        jitter = ar1_jitter(kernel) + 1e-12
        mean, var = prior_mean, kernel.marginal_variance + jitter
        if history:
            H = np.array(history)
            K = design_matrix(kernel, H) + jitter * np.eye(len(H))
            k_star = design_matrix(kernel, H, x[None, :])[:, 0]
            mean = prior_mean + k_star @ np.linalg.solve(K, np.array(values) - prior_mean)
            var = max(var - k_star @ np.linalg.solve(K, k_star), jitter)
        return mean + math.sqrt(var) * rng.standard_normal()

    X = np.zeros((n_points, n_dims))
    Y = np.empty((n_points, n_dims))
    variances = np.empty((n_points, n_dims))
    history = [[] for _ in range(C)]
    g_values = [[[] for _ in range(n_dims)] for _ in range(C)]
    f_values = [[[] for _ in range(n_dims)] for _ in range(C)]
    for n in range(n_points):
        c, x = assignments[n], X[n].copy()
        for d in range(n_dims):
            g = conditional_draw(config.noise_kernels[c], config.m_tilde[c, d], history[c], g_values[c][d], x)
            f = conditional_draw(config.mean_kernels[c], 0.0, history[c], f_values[c][d], x)
            g_values[c][d].append(g)
            f_values[c][d].append(f)
            variances[n, d] = np.exp(g)
            Y[n, d] = f + math.sqrt(variances[n, d]) * rng.standard_normal()
        history[c].append(x)
        if n + 1 < n_points:
            X[n + 1] = Y[n]
    return SimulationDraw(X, Y, variances, assignments, weights)


AR1_MEAN = MgpchConfig(
    pyp=PypConfig(truncation=2), mean_kernels=(Ar1Kernel(phi=0.7, sigma0_sq=0.3),) * 2, m_tilde=np.log(1e-2)
)
ZERO_MEAN = MgpchConfig(pyp=PypConfig(truncation=3), m_tilde=np.log(1e-4))


class TestSimulate:
    def test_scalar_draws_keep_no_quadratic_buffer_and_take_linear_time(self):
        simulate(MgpchConfig(), 100, 1, seed=0)  # the first call pays one-time costs
        tracemalloc.start()
        try:
            simulate(MgpchConfig(), 10_000, 1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured 1.07 MB: three (N, 1) outputs and the paths' sorted lists; the dense
        # path's packed factor of the largest component (8,472 points) would take 287 MB
        assert peak < 4e6
        seconds = {}
        for n_points in (400, 2000, 10_000):
            runs = []
            for _ in range(3):
                start = time.perf_counter()
                simulate(MgpchConfig(), n_points, 1, seed=0)
                runs.append(time.perf_counter() - start)
            seconds[n_points] = min(runs)
        # each 5x step in N measured 4.9x and 6.0x in time (4.6, 23 and 137 ms, 2-vCPU
        # x86-64 host); the dense path's O(k^2) per draw took 43x from 400 to 2000 points
        assert seconds[2000] < 10.0 * seconds[400]
        assert seconds[10_000] < 10.0 * seconds[2000]

    @pytest.mark.parametrize(
        "config, n_points, n_dims, seed, counts, expected",
        [
            # recorded from the dense sampler before scalar inputs got their own path
            (AR1_MEAN, 40, 2, 5, [15, 25], "517e65c90e151cd5442637ebeb105ea1ae0297838eee4b7ec5632271e4d4537c"),
            # recorded while a zero mean kernel still had a path object, so these hold
            # only if a zero mean still draws zeros and takes no random numbers
            (ZERO_MEAN, 300, 1, 0, [239, 0, 61], "9f362574aa0c38bdf857f37fa5439b2a9343df15a8a674971004407a0d1854d6"),
            (ZERO_MEAN, 200, 2, 1, [132, 8, 60], "3616e93de9def40576c5d84cd07037c0dcbb14cde37bf6b2b393815e2afb39af"),
        ],
        ids=["ar1-mean-2-columns", "zero-mean-1-column", "zero-mean-2-columns"],
    )
    def test_draws_keep_their_bits(self, config, n_points, n_dims, seed, counts, expected):
        draw = simulate(config, n_points, n_dims, seed=seed)
        assert np.bincount(draw.assignments, minlength=config.pyp.truncation).tolist() == counts
        digest = hashlib.sha256()
        for a in (draw.X, draw.Y, draw.variances):
            digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        assert digest.hexdigest() == expected

    def test_path_draws_are_the_dense_gp_conditional_on_their_history(self):
        kernel = Ar1Kernel(phi=0.6, sigma0_sq=0.5)
        rng = np.random.default_rng(3)
        k, p, prior_means = 12, 2, np.array([-1.0, 0.5, 2.0])
        xs = rng.standard_normal((k + 1, p))
        path = _LazyGpPath(kernel, prior_means, k + 1, p)
        values = np.empty((k, prior_means.size))
        for n in range(k):
            path.condition(xs[n])
            values[n] = [path.sample(d, rng) for d in range(prior_means.size)]
        K = design_matrix(kernel, xs[:k]) + path.jitter * np.eye(k)
        k_star = design_matrix(kernel, xs[:k], xs[k : k + 1])[:, 0]
        var = kernel.marginal_variance + path.jitter - k_star @ np.linalg.solve(K, k_star)
        for d, prior_mean in enumerate(prior_means):
            # the next draw of output d at z = 0 is its conditional mean, at z = 1 one standard deviation above it
            draws = []
            for z in (0.0, 1.0):
                ahead = copy.deepcopy(path)
                ahead.condition(xs[k])
                draws.append(ahead.sample(d, _FixedNormals([z])))
            at_mean, at_one_sd = draws
            mean = prior_mean + k_star @ np.linalg.solve(K, values[:, d] - prior_mean)
            assert_allclose(at_mean, mean, rtol=1e-10)
            assert_allclose((at_one_sd - at_mean) ** 2, var, rtol=1e-10)

    def test_draws_match_a_dense_reference_sampler(self):
        C, n_points, n_dims, seed = 3, 80, 2, 5
        config = MgpchConfig(
            pyp=PypConfig(truncation=C),
            mean_kernels=tuple(Ar1Kernel(phi=phi, sigma0_sq=s) for phi, s in ((0.7, 0.3), (0.4, 0.6), (0.9, 0.1))),
            noise_kernels=tuple(Ar1Kernel(phi=phi, sigma0_sq=s) for phi, s in ((0.5, 0.75), (0.8, 0.2), (0.3, 1.0))),
            m_tilde=np.log([[1e-2, 2e-2], [5e-2, 1e-2], [1e-1, 3e-2]]),
        )
        draw = simulate(config, n_points, n_dims, seed=seed)
        reference = dense_reference_draw(config, n_points, n_dims, seed)
        assert len(set(draw.assignments.tolist())) == C
        for name in ("X", "Y", "variances"):
            assert_allclose(getattr(draw, name), getattr(reference, name), rtol=1e-10)
        assert np.array_equal(draw.assignments, reference.assignments)
        assert np.array_equal(draw.weights, reference.weights)

    def test_deterministic_given_seed(self):
        config = MgpchConfig(pyp=PypConfig(truncation=3))
        a = simulate(config, 50, 2, seed=7)
        b = simulate(config, 50, 2, seed=7)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.variances, b.variances)
        assert np.array_equal(a.assignments, b.assignments)
        c = simulate(config, 50, 2, seed=8)
        assert not np.array_equal(a.Y, c.Y)

    def test_shapes_and_feedback_structure(self):
        draw = simulate(MgpchConfig(pyp=PypConfig(truncation=2)), 40, 3, seed=0)
        assert draw.X.shape == (40, 3)
        assert draw.Y.shape == (40, 3)
        assert draw.variances.shape == (40, 3)
        assert draw.assignments.shape == (40,)
        assert_allclose(draw.X[0], np.zeros(3))
        assert np.array_equal(draw.X[1:], draw.Y[:-1])
        assert np.all(draw.variances > 0.0)
        assert np.all((draw.assignments >= 0) & (draw.assignments < 2))
        assert_allclose(draw.weights.sum(), 1.0, atol=1e-12)

    def test_zero_mean_kernel_outputs_center_on_zero(self):
        draw = simulate(MgpchConfig(pyp=PypConfig(truncation=2)), 4000, 1, seed=2)
        standardized = draw.Y[:, 0] / np.sqrt(draw.variances[:, 0])
        assert abs(standardized.mean()) < 3.0 / np.sqrt(4000)

    def test_tiny_innovation_collapses_to_first_component(self):
        config = MgpchConfig(pyp=PypConfig(delta=0.0, eta1=1e-3, eta2=1e3, truncation=4))
        draw = simulate(config, 200, 1, seed=11)
        assert np.all(draw.assignments == 0)
        assert draw.weights[0] > 1.0 - 1e-6

    def test_regime_levels_respect_m_tilde(self):
        draw = two_regime_draw(n_points=400, seed=10)
        low = draw.variances[draw.assignments == 0, 0]
        high = draw.variances[draw.assignments == 1, 0]
        assert min(len(low), len(high)) > 30
        assert np.median(low) < np.median(high)
        # prior levels 1e-4 and 1e-3; paths wander but stay in the decade
        assert 1e-6 < np.median(low) < 1e-2
        assert 1e-5 < np.median(high) < 1e-1

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            simulate(MgpchConfig(m_tilde=np.zeros((3, 2))), 5, 1, seed=0)

    @pytest.mark.parametrize(
        "n_points, n_dims, seed, name",
        [
            (0, 1, 0, "n_points"),
            (5.5, 1, 0, "n_points"),
            (True, 1, 0, "n_points"),
            ("5", 1, 0, "n_points"),
            (5, 1.0, 0, "n_dims"),
            (5, False, 0, "n_dims"),
            (5, 0, 0, "n_dims"),
            (5, 1, -1, "seed"),
            (5, 1, 1.5, "seed"),
            (5, 1, True, "seed"),
            (5, 1, None, "seed"),
        ],
    )
    def test_argument_types_raise_typed_errors(self, n_points, n_dims, seed, name):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer"):
            simulate(MgpchConfig(), n_points, n_dims, seed=seed)

    def test_numpy_integer_arguments_draw_as_python_ints(self):
        a = simulate(MgpchConfig(), np.int64(20), np.int32(2), seed=np.uint8(3))
        b = simulate(MgpchConfig(), 20, 2, seed=3)
        assert np.array_equal(a.Y, b.Y)
