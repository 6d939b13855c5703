"""The scalar Markov path of :mod:`mgpch.ou` against dense references.

The batched Kalman-filter scan's diag(S), KL core and step mean are
checked against the dense factor of the same jittered prior
(:func:`oracles.dense_noise_prior`), and simulate's OU bridge against the
exact GP conditional on its whole history.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import mgpch.model as model_module
from mgpch.kernels import Ar1Kernel, design_matrix
from mgpch.model import MgpchConfig, _diag_precision_posterior, fit
from mgpch.ou import _ou_moments, _ou_transitions, _OuPath
from mgpch.pyp import PypConfig

from oracles import dense_noise_prior
from test_model_updates import exact_kl


@st.composite
def scalar_input_blocks(draw):
    """One-column inputs with ties at scales 1e-9..1, per-component AR(1) kernels, and Q rows with zeros."""
    n = draw(st.integers(1, 40))
    C = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = 10.0 ** draw(st.floats(-9.0, 0.0))
    X = scale * rng.standard_normal((n, 1))
    ties = draw(st.integers(0, n - 1))
    X[rng.integers(n, size=ties), 0] = X[rng.integers(n, size=ties), 0]
    phis = draw(st.lists(st.floats(1e-12, 1.0 - 1e-6), min_size=C, max_size=C))
    marginals = draw(st.lists(st.floats(0.1, 3.0), min_size=C, max_size=C))
    kernels = tuple(Ar1Kernel(phi=p, sigma0_sq=(1.0 - p * p) * v) for p, v in zip(phis, marginals))
    rows = draw(st.integers(1, 2 * C))
    comp = rng.integers(C, size=rows)
    Q = rng.uniform(0.0, 5.0, size=(rows, n))
    Q[rng.random((rows, n)) < draw(st.floats(0.0, 1.0))] = 0.0
    return X, kernels, comp, Q


@st.composite
def scalar_input_gradients(draw):
    """Blocks of :func:`scalar_input_blocks` with Q scaled to at most 1e3, and a gradient row per block."""
    X, kernels, comp, Q = draw(scalar_input_blocks())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    Q = Q * 10.0 ** draw(st.floats(-3.0, 2.3))
    grad = rng.standard_normal(Q.shape) * 10.0 ** draw(st.floats(-3.0, 3.0))
    return X, kernels, comp, Q, grad


class TestScalarInputPath:
    """The Kalman-filter noise moments on one-column inputs against the dense factor."""

    @settings(max_examples=200, deadline=None)
    @given(scalar_input_blocks())
    @example((np.zeros((3, 1)), (Ar1Kernel(1e-12, 1.0),) * 4, np.arange(4), np.array([[0.0, 1.0, 0.0]] * 4)))
    def test_moments_match_the_dense_factor(self, case):
        X, kernels, comp, Q = case
        ou = _ou_transitions(X, kernels)
        s_diag, kl_core = _ou_moments(ou, comp, Q)
        for row, c in enumerate(comp):
            lam = dense_noise_prior(kernels[c], X)
            _, _, diag_ref, kl_ref = _diag_precision_posterior(lam, Q[row], "noise bound matrix")
            assert_allclose(s_diag[row], diag_ref, rtol=1e-10, atol=0.0)
            # relative to the size of log|A| and Q . diag(S), whose difference kl_core is
            assert abs(kl_core[row] - kl_ref) <= 1e-10 * (abs(kl_ref) + float(Q[row] @ diag_ref))

    def test_a_row_gets_the_same_bits_alone_as_in_a_batch(self):
        # refresh_caches judges C * D rows at once, a noise step the blocks still pending
        rng = np.random.default_rng(9)
        kernels = (Ar1Kernel(0.6, 0.5), Ar1Kernel(0.3, 0.2))
        for n in (2, 9, 40, 119):
            ou = _ou_transitions(rng.standard_normal((n, 1)), kernels)
            Q = rng.uniform(0.0, 3.0, size=(6, n))
            comp = rng.integers(2, size=6)
            s_diag, kl_core = _ou_moments(ou, comp, Q)
            for row in range(6):
                alone = _ou_moments(ou, comp[row : row + 1], Q[row : row + 1])
                assert np.array_equal(alone[0][0], s_diag[row])
                assert alone[1][0] == kl_core[row]

    def test_fit_matches_the_dense_evaluator(self, monkeypatch):
        rng = np.random.default_rng(12)
        r = 0.01 * rng.standard_normal(81) * np.repeat([1.0, 2.5, 0.6], 27)
        r[rng.integers(81, size=8)] = 0.0  # tied inputs
        X, Y = r[:-1, None], r[1:, None]
        config = MgpchConfig(pyp=PypConfig(truncation=3), seed=3)
        markov = fit(X, Y, config)
        assert markov.ou is not None
        monkeypatch.setattr(model_module, "_ou_transitions", lambda X, kernels: None)
        dense = fit(X, Y, config)
        assert dense.ou is None
        assert len(markov.free_energy_trace) == len(dense.free_energy_trace)
        assert markov.free_energy_trace[-1] == pytest.approx(dense.free_energy_trace[-1], rel=1e-12, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(scalar_input_gradients())
    @example((np.zeros((3, 1)), (Ar1Kernel(1e-12, 1.0),) * 2, np.arange(2), np.array([[0.0, 1e3, 0.0]] * 2), np.ones((2, 3))))
    @example((np.zeros((1, 1)), (Ar1Kernel(0.5, 0.75),), np.zeros(1, dtype=int), np.zeros((1, 1)), np.ones((1, 1))))
    def test_scan_mean_matches_the_dense_solve(self, case):
        X, kernels, comp, Q, grad = case
        n = X.shape[0]
        ou = _ou_transitions(X, kernels)
        s_diag, kl_core, v = _ou_moments(ou, comp, Q, grad)
        moments = _ou_moments(ou, comp, Q)
        assert np.array_equal(s_diag, moments[0]) and np.array_equal(kl_core, moments[1])
        for row, c in enumerate(comp):
            lam = dense_noise_prior(kernels[c], X)
            # (Lam^-1 + diag Q)^-1 grad as the solve of (I + Lam Q) v = Lam grad, with no Lam^-1
            ref = np.linalg.solve(np.eye(n) + lam * Q[row][None, :], lam @ grad[row])
            # relative to max diag(Lam) |grad|_1, which bounds |v| since S <= Lam: with
            # inputs 1e-9 apart Lam is near singular, and v relative to itself moves
            # by 1e-10 between the two roundings of Lam
            bound = float(np.max(np.diagonal(lam)) * np.sum(np.abs(grad[row])))
            assert float(np.max(np.abs(v[row] - ref))) <= 1e-12 * bound
            alone = _ou_moments(ou, comp[row : row + 1], Q[row : row + 1], grad[row : row + 1])[2]
            assert np.array_equal(alone[0], v[row])

    @pytest.mark.parametrize("scale", [1e-80, 1e-20, 1e-6, 1e-2, 1.0, 1e2])
    def test_kl_core_keeps_its_relative_accuracy_near_the_prior(self, scale):
        # log|A| and Q . diag(S) are first order in Q and their difference second order
        rng = np.random.default_rng(23)
        kernel = Ar1Kernel(phi=0.7, sigma0_sq=0.5)
        for n in (1, 2, 5, 9):
            X = rng.standard_normal((n, 1))
            lam = dense_noise_prior(kernel, X)
            Q = scale * rng.uniform(0.0, 1.0, size=n)
            Q[rng.random(n) < 0.3] = 0.0
            ref = 2.0 * exact_kl(lam, Q, mp.zeros(n, 1))
            dense = _diag_precision_posterior(lam, Q, "noise bound matrix")[3]
            scan = _ou_moments(_ou_transitions(X, (kernel,)), np.zeros(1, dtype=int), Q[None, :])[1][0]
            assert ref >= 0.0
            for got in (dense, scan):
                assert abs(got - ref) <= 1e-12 * ref


@st.composite
def ou_histories(draw):
    """A kernel, two prior means, a seed, and 1-40 scalar inputs at one scale in random order, some repeated."""
    phi = draw(st.floats(1e-6, 1.0 - 1e-6))
    s = draw(st.floats(1e-3, 10.0))
    kernel = Ar1Kernel(phi=phi, sigma0_sq=s * (1.0 - phi**2))
    means = draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2))
    scale = 10.0 ** draw(st.floats(-9.0, 0.0))
    units = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=35))
    repeats = draw(st.lists(st.sampled_from(units), max_size=5))
    inputs = draw(st.permutations([scale * u for u in units + repeats]))
    return kernel, means, inputs, draw(st.integers(0, 2**32 - 1))


def exact_conditional(kernel, mean, x, history):
    """Mean and variance at x of the GP given (input, value) pairs, in mpmath with digits for the closest pair."""
    if not history:
        return mp.mpf(mean), mp.mpf(kernel.marginal_variance)
    gap = min(abs(mp.mpf(x) - mp.mpf(u)) for u, _ in history) * -mp.log(kernel.phi)
    with mp.workdps(30 + max(0, int(-mp.log10(gap)))):
        s, phi = mp.mpf(kernel.marginal_variance), mp.mpf(kernel.phi)

        def cov(u, v):
            return s * phi ** abs(mp.mpf(u) - mp.mpf(v))

        K = mp.matrix([[cov(u, v) for v, _ in history] for u, _ in history])
        k_star = mp.matrix([cov(u, x) for u, _ in history])
        centered = mp.matrix([mp.mpf(h) - mean for _, h in history])
        weights = mp.lu_solve(K, k_star)
        return mean + (weights.T * centered)[0], s - (weights.T * k_star)[0]


class TestOuPath:
    """simulate's bridge draws on one-column inputs."""

    @settings(max_examples=100, deadline=None)
    @given(ou_histories())
    def test_scalar_path_draws_the_exact_gp_conditional_on_its_history(self, case):
        kernel, means, inputs, seed = case
        s, rng = kernel.marginal_variance, np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = _OuPath(kernel, means)
            drawn = {}  # input -> its values, one per output
            for x in inputs:
                path.condition(np.array([x]))
                if x in drawn:
                    # a tie copies the values bit for bit
                    assert path.sd == 0.0
                    assert [path.sample(d, rng) for d in range(len(means))] == drawn[x]
                    continue
                history = sorted(drawn)
                # the exact conditional given the nearest drawn input on each side ...
                left, right = [u for u in history if u < x][-1:], [u for u in history if u > x][:1]
                for d, m in enumerate(means):
                    mean, var = exact_conditional(kernel, m, x, [(u, drawn[u][d]) for u in left + right])
                    spread = max((abs(drawn[u][d] - m) for u in history), default=0.0)
                    assert abs(path.cond_means[d] - float(mean)) <= 1e-10 * (abs(m) + spread)
                    assert abs(path.sd**2 - float(var)) <= 1e-10 * float(var) + 1e-300 * s
                # ... is the dense one given the whole history, the kernel's own, without jitter,
                # wherever the inputs are far enough apart for that solve to be exact in float64
                points = np.sort(np.array(history + [x]))
                if history and np.min(-np.expm1(2.0 * np.diff(points) * math.log(kernel.phi))) >= 1e-3:
                    H = np.array(history)[:, None]
                    K = design_matrix(kernel, H)
                    k_star = design_matrix(kernel, H, np.array([[x]]))[:, 0]
                    var = s - k_star @ np.linalg.solve(K, k_star)
                    assert abs(path.sd**2 - var) <= 1e-10 * var
                    for d, m in enumerate(means):
                        centered = np.array([drawn[u][d] for u in history]) - m
                        mean = m + k_star @ np.linalg.solve(K, centered)
                        assert abs(path.cond_means[d] - mean) <= 1e-10 * (abs(m) + np.max(np.abs(centered)))
                drawn[x] = [path.sample(d, rng) for d in range(len(means))]
