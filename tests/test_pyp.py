import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from mgpch.errors import InvalidArgumentError
from mgpch.pyp import (
    InnovationPosterior,
    PypConfig,
    StickPosterior,
    expected_log_weights,
    expected_weights,
    stick_log_moments,
    update_innovation_posterior,
    update_stick_posteriors,
)


class TestStickUpdate:
    def test_two_component_hard_assignment(self):
        R = np.tile([1.0, 0.0], (4, 1))
        sticks = update_stick_posteriors(R, delta=0.1, alpha_mean=1.0, truncation=2)
        assert_allclose(sticks.beta1, [4.9], rtol=1e-12)
        assert_allclose(sticks.beta2, [1.1], rtol=1e-12)

    def test_empty_data_recovers_prior_shape(self):
        R = np.zeros((0, 3))
        sticks = update_stick_posteriors(R, delta=0.25, alpha_mean=2.0, truncation=3)
        assert_allclose(sticks.beta1, [0.75, 0.75], rtol=1e-12)
        assert_allclose(sticks.beta2, [2.25, 2.5], rtol=1e-12)

    def test_tail_mass_accumulates(self):
        # one point per component; the first stick sees the later two as tail
        R = np.eye(3)
        sticks = update_stick_posteriors(R, delta=0.0, alpha_mean=1.0, truncation=3)
        assert_allclose(sticks.beta1, [2.0, 2.0], rtol=1e-12)
        assert_allclose(sticks.beta2, [3.0, 2.0], rtol=1e-12)

    def test_dirichlet_process_reduction(self):
        # delta = 0 must match the Dirichlet-process update computed directly
        rng = np.random.default_rng(5)
        R = rng.dirichlet(np.ones(4), size=12)
        alpha_mean = 1.7
        sticks = update_stick_posteriors(R, delta=0.0, alpha_mean=alpha_mean, truncation=4)
        mass = R.sum(axis=0)
        for c in range(3):
            assert_allclose(sticks.beta1[c], 1.0 + mass[c], rtol=1e-12)
            assert_allclose(sticks.beta2[c], alpha_mean + mass[c + 1 :].sum(), rtol=1e-12)

    def test_bad_row_sum_rejected(self):
        R = np.array([[0.5, 0.4]])
        with pytest.raises(InvalidArgumentError):
            update_stick_posteriors(R, delta=0.0, alpha_mean=1.0, truncation=2)

    def test_single_component_has_no_free_sticks(self):
        sticks = update_stick_posteriors(np.ones((5, 1)), 0.0, 1.0, truncation=1)
        assert sticks.beta1.shape == (0,)


class TestInnovationUpdate:
    def test_shape_grows_with_free_sticks(self):
        sticks = StickPosterior(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        post = update_innovation_posterior(sticks, eta1=1.0, eta2=1.0)
        assert_allclose(post.eta1_hat, 3.0, rtol=1e-12)

    def test_unit_beta_doubles_rate(self):
        # E[log(1 - v)] = psi(1) - psi(2) = -1, so the rate becomes 1 + 1 = 2
        sticks = StickPosterior(np.array([1.0]), np.array([1.0]))
        post = update_innovation_posterior(sticks, eta1=1.0, eta2=1.0)
        assert_allclose(post.eta2_hat, 2.0, atol=1e-12)
        assert_allclose(post.eta1_hat, 2.0, atol=1e-12)
        assert_allclose(post.mean, 1.0, atol=1e-12)

    def test_no_sticks_keeps_prior(self):
        sticks = StickPosterior(np.empty(0), np.empty(0))
        post = update_innovation_posterior(sticks, eta1=2.0, eta2=3.0)
        assert_allclose([post.eta1_hat, post.eta2_hat], [2.0, 3.0], rtol=1e-12)

    def test_rate_always_exceeds_prior_rate(self):
        rng = np.random.default_rng(9)
        for trial in range(50):
            n = int(rng.integers(1, 8))
            sticks = StickPosterior(rng.uniform(0.1, 20.0, n), rng.uniform(0.1, 20.0, n))
            post = update_innovation_posterior(sticks, eta1=0.5, eta2=0.25)
            assert post.eta2_hat > 0.25


class TestExpectedLogWeights:
    def test_single_component(self):
        sticks = StickPosterior(np.empty(0), np.empty(0))
        assert_allclose(expected_log_weights(sticks), [0.0], atol=0.0)

    def test_symmetric_unit_betas(self):
        sticks = StickPosterior(np.array([1.0]), np.array([1.0]))
        assert_allclose(expected_log_weights(sticks), [-1.0, -1.0], atol=1e-12)

    def test_concentrated_first_stick(self):
        sticks = StickPosterior(np.array([1e6]), np.array([1e-3]))
        logw = expected_log_weights(sticks)
        assert logw[0] > -1e-8

    def test_moments_match_reference_digamma(self):
        sticks = StickPosterior(np.array([2.0, 5.0]), np.array([3.0, 1.0]))
        elogv, elog1mv = stick_log_moments(sticks)
        ref = scipy.special.digamma
        assert_allclose(elogv, ref([2.0, 5.0]) - ref([5.0, 6.0]), atol=1e-12)
        assert_allclose(elog1mv, ref([3.0, 1.0]) - ref([5.0, 6.0]), atol=1e-12)


class TestExpectedWeights:
    def test_single_component_is_one(self):
        assert_allclose(expected_weights(StickPosterior(np.empty(0), np.empty(0))), [1.0])

    def test_two_components_even_split(self):
        sticks = StickPosterior(np.array([1.0]), np.array([1.0]))
        assert_allclose(expected_weights(sticks), [0.5, 0.5], rtol=1e-12)

    def test_three_components_telescope(self):
        sticks = StickPosterior(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert_allclose(expected_weights(sticks), [0.5, 0.25, 0.25], rtol=1e-12)

    def test_sum_to_one_on_random_posteriors(self):
        rng = np.random.default_rng(1234)
        for trial in range(200):
            n = int(rng.integers(0, 9))
            sticks = StickPosterior(rng.uniform(1e-3, 50.0, n), rng.uniform(1e-3, 50.0, n))
            w = expected_weights(sticks)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_more_data_on_component_raises_its_weight(self):
        base = np.tile([0.5, 0.5], (10, 1))
        heavier = np.tile([0.8, 0.2], (10, 1))
        w_base = expected_weights(update_stick_posteriors(base, 0.1, 1.0, 2))
        w_heavy = expected_weights(update_stick_posteriors(heavier, 0.1, 1.0, 2))
        assert w_heavy[0] > w_base[0]


class TestPypConfig:
    def test_defaults_are_valid(self):
        cfg = PypConfig()
        assert cfg.truncation == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": -0.1},
            {"delta": 1.0},
            {"eta1": 0.0},
            {"eta2": -1.0},
            {"truncation": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            PypConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("truncation", 2.5, "an integer >= 1"),
            ("truncation", True, "an integer >= 1"),
            ("truncation", "3", "an integer >= 1"),
            ("delta", "0.1", "a finite number"),
            ("delta", False, "a finite number"),
            ("delta", float("nan"), "a finite number"),
            ("eta1", float("nan"), "a finite number"),
            ("eta2", float("inf"), "a finite number"),
            ("eta2", None, "a finite number"),
        ],
    )
    def test_wrong_types_name_the_field(self, name, value, message):
        # these ended in bare TypeErrors, and eta1 = NaN in a diverged fit
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be {message}, got"):
            PypConfig(**{name: value})

    def test_numpy_scalars_are_numbers(self):
        cfg = PypConfig(delta=np.float64(0.1), eta1=np.float32(2.0), eta2=3, truncation=np.int64(2))
        assert cfg.truncation == 2


def test_innovation_posterior_log_mean():
    post = InnovationPosterior(3.0, 2.0)
    assert_allclose(post.log_mean, scipy.special.digamma(3.0) - np.log(2.0), atol=1e-12)
