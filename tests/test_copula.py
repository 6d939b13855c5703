"""Copula families, conditional training and covariance quadrature."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import ndtri

import mgpch.copula as copula_module
from mgpch.errors import DegenerateMarginalsError, InvalidArgumentError, QuadratureWarning
from mgpch.copula import (
    Clayton,
    Frank,
    Gumbel,
    PairwiseCopulaModel,
    basis_features,
    conditional_theta,
    copula_cdf,
    copula_log_density,
    family_from_name,
    marginal_cdf,
    predictive_covariance,
    train_pairwise,
)
from mgpch.copula import FAMILIES, QUADRATURE_NODES, _quadrature_rule
from mgpch.kernels import Ar1Kernel
from mgpch.model import MgpchConfig, PredictiveMoments, fit
from mgpch.pyp import PypConfig
from oracles import grid_cdf, grid_covariance, grid_log_density, per_node_frank_cdf

FAMILY_THETAS = [(Clayton(), 0.5), (Clayton(), 3.0), (Frank(), 5.0), (Frank(), -6.0),
                 (Gumbel(), 1.5), (Gumbel(), 4.0)]


def gaussian_moments(means, variances):
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    D = means.size
    zeros = np.zeros((1, D))
    return PredictiveMoments(
        mean=means,
        variance=variances,
        weights=np.array([1.0]),
        component_means=zeros,
        component_mean_vars=zeros,
        noise_log_mean=zeros,
        noise_log_var=zeros,
        component_noise_vars=zeros,
    )


def single_point_pair_model(family, theta_score):
    """Pair model whose parameter at the origin is link(theta_score)."""
    return PairwiseCopulaModel(
        family=family,
        basis_points=np.zeros((1, 1)),
        w=np.array([float(theta_score)]),
        lengthscale=1.0,
    )


def clayton_sample(theta, n, rng):
    u = rng.uniform(size=n)
    p = rng.uniform(size=n)
    v = (1.0 + u ** (-theta) * (p ** (-theta / (1.0 + theta)) - 1.0)) ** (-1.0 / theta)
    return u, v


def frank_sample(theta, n, rng):
    u = rng.uniform(size=n)
    p = rng.uniform(size=n)
    gu = np.expm1(-theta * u)
    g1 = math.expm1(-theta)
    v = -np.log1p(p * g1 / (1.0 + gu * (1.0 - p))) / theta
    return u, v


def grid_inputs(n):
    return ((np.arange(n) - n / 2) / n)[:, None]


class TestCdf:
    @pytest.mark.parametrize("family,theta", FAMILY_THETAS)
    def test_boundaries(self, family, theta):
        assert copula_cdf(family, theta, 0.7, 1.0) == 0.7
        assert copula_cdf(family, theta, 1.0, 0.3) == 0.3
        assert copula_cdf(family, theta, 0.7, 0.0) == 0.0
        assert copula_cdf(family, theta, 0.0, 0.4) == 0.0
        assert copula_cdf(family, theta, 1.0, 1.0) == 1.0

    def test_gumbel_unit_theta_is_independence(self):
        assert copula_cdf(Gumbel(), 1.0, 0.3, 0.5) == pytest.approx(0.15, abs=1e-15)

    def test_clayton_hand_value(self):
        assert_allclose(copula_cdf(Clayton(), 2.0, 0.5, 0.5), (4 + 4 - 1) ** -0.5, rtol=1e-12)
        assert_allclose(copula_cdf(Clayton(), 2.0, 0.5, 0.5), 0.37796, atol=5e-6)

    @pytest.mark.parametrize("family,theta", FAMILY_THETAS)
    def test_nondecreasing_in_each_argument(self, family, theta):
        grid = np.linspace(0.0, 1.0, 41)
        for v in (0.15, 0.6, 0.95):
            vals = [copula_cdf(family, theta, u, v) for u in grid]
            assert np.all(np.diff(vals) >= -1e-14)
            vals = [copula_cdf(family, theta, v, u) for u in grid]
            assert np.all(np.diff(vals) >= -1e-14)

    @pytest.mark.parametrize("family,theta", FAMILY_THETAS)
    def test_two_increasing_on_random_rectangles(self, family, theta):
        rng = np.random.default_rng(hash(type(family).__name__) % 2**32)
        for _ in range(200):
            u1, u2 = np.sort(rng.uniform(size=2))
            v1, v2 = np.sort(rng.uniform(size=2))
            mass = (
                copula_cdf(family, theta, u2, v2)
                - copula_cdf(family, theta, u1, v2)
                - copula_cdf(family, theta, u2, v1)
                + copula_cdf(family, theta, u1, v1)
            )
            assert mass >= -1e-12

    def test_domain_errors(self):
        with pytest.raises(InvalidArgumentError):
            copula_cdf(Clayton(), 0.0, 0.5, 0.5)
        with pytest.raises(InvalidArgumentError):
            copula_cdf(Clayton(), -1.0, 0.5, 0.5)
        with pytest.raises(InvalidArgumentError):
            copula_cdf(Gumbel(), 0.99, 0.5, 0.5)
        with pytest.raises(InvalidArgumentError):
            copula_cdf(Frank(), np.inf, 0.5, 0.5)
        with pytest.raises(InvalidArgumentError):
            copula_cdf(Frank(), 2.0, -0.1, 0.5)
        with pytest.raises(InvalidArgumentError):
            copula_cdf(Frank(), 2.0, 0.5, 1.1)


FRANK_GRID = np.array([1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6])


class TestFrankLargeTheta:
    """The Frank cdf and density stay finite and accurate where the textbook formula overflows or cancels."""

    @pytest.mark.parametrize("theta", [36.0, 40.0, 100.0, 300.0, 700.0, -36.0, -40.0, -100.0, -300.0, -700.0])
    def test_finite_and_within_the_frechet_bounds(self, theta):
        for u in FRANK_GRID:
            for v in FRANK_GRID:
                c = copula_cdf(Frank(), theta, u, v)
                lower, upper = max(u + v - 1.0, 0.0), min(u, v)
                assert math.isfinite(c)
                assert lower * (1.0 - 1e-14) <= c <= upper * (1.0 + 1e-14), (u, v, c)
                assert math.isfinite(copula_log_density(Frank(), theta, u, v))

    @pytest.mark.filterwarnings("ignore::mgpch.errors.QuadratureWarning")
    def test_covariance_is_finite_for_strong_dependence(self):
        mo = gaussian_moments([0.0, 0.0], [1e-4, 2.25e-4])
        bound = math.sqrt(1e-4 * 2.25e-4)  # Cauchy-Schwarz: the comonotone covariance
        for theta in (40.0, 700.0, -40.0, -700.0):
            cov = predictive_covariance(single_point_pair_model(Frank(), theta), mo, (0, 1), np.array([0.0]))
            assert math.isfinite(cov) and abs(cov) <= bound

    def test_covariance_near_the_comonotone_limit_is_clipped_with_a_warning(self):
        # the integrand has a kink on the diagonal, which the Gauss-Legendre
        # rule overshoots by a fraction of a percent; the doubling check says so
        mo = gaussian_moments([0.0, 0.0], [1e-4, 2.25e-4])
        bound = math.sqrt(1e-4 * 2.25e-4)
        for theta in (700.0, -700.0):
            with pytest.warns(QuadratureWarning):
                cov = predictive_covariance(single_point_pair_model(Frank(), theta), mo, (0, 1), np.array([0.0]))
            assert cov == math.copysign(bound, theta)

    @pytest.mark.parametrize("theta", [0.5, -0.5, 20.0, -20.0, 700.0, -700.0])
    def test_one_theta_for_every_node_keeps_the_bits_of_the_per_node_formula(self, theta):
        _, F, _ = _quadrature_rule(2 * QUADRATURE_NODES)
        U, V = np.broadcast_arrays(F[:, None], F[None, :])
        assert U.shape == (128, 128)
        got = Frank().cdf(theta, F[:, None], F[None, :])
        assert np.array_equal(got, per_node_frank_cdf(theta, U, V))

    @pytest.mark.parametrize("theta", [1e-5, 0.5, 3.0, 8.0, 20.0, -1e-5, -0.5, -3.0, -8.0, -20.0])
    def test_agrees_with_the_textbook_formula_where_it_is_accurate(self, theta):
        # -log(1 + r) / theta with r = (e^-tu - 1)(e^-tv - 1) / (e^-t - 1); 1 + r >= 1e-3
        # keeps its cancellation below 1e-13
        checked = 0
        for u in FRANK_GRID:
            for v in FRANK_GRID:
                g1 = math.expm1(-theta)
                r = math.expm1(-theta * u) * math.expm1(-theta * v) / g1
                if 1.0 + r < 1e-3:
                    continue
                checked += 1
                assert copula_cdf(Frank(), theta, u, v) == pytest.approx(-math.log1p(r) / theta, rel=1e-12, abs=0.0)
                log_density = math.log(abs(theta)) - math.log(abs(g1)) - theta * (u + v) - 2.0 * math.log1p(r)
                got = copula_log_density(Frank(), theta, u, v)
                assert abs(got - log_density) <= 1e-12 * max(1.0, abs(log_density))
        assert checked >= 30


EXTREME_THETAS = [(Clayton(), 1e-6), (Clayton(), 1e-3), (Clayton(), 50.0), (Clayton(), 300.0),
                  (Clayton(), math.exp(6.0)), (Gumbel(), 1.0), (Gumbel(), 1.0 + 1e-12), (Gumbel(), 2.0),
                  (Gumbel(), 50.0), (Gumbel(), 300.0), (Gumbel(), 700.0)]


class TestExchangeableForm:
    """Clayton and Gumbel leave out the larger argument's term, which is exactly 1, and keep every bit of the full formula."""

    @pytest.mark.parametrize("family,theta", EXTREME_THETAS)
    def test_symmetric_and_equal_to_the_full_formula(self, family, theta):
        for u in FRANK_GRID:
            for v in FRANK_GRID:
                c = copula_cdf(family, theta, u, v)
                assert c == copula_cdf(family, theta, v, u), (u, v)
                assert c == grid_cdf(family, theta, np.array([u]), np.array([v]))[0], (u, v)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), family_theta=st.sampled_from(EXTREME_THETAS + [(Frank(), 5.0), (Frank(), -0.5)]))
    @example(seed=0, family_theta=(Gumbel(), 2.0))  # one point in place would take numpy's square for pow
    def test_a_point_alone_has_the_bits_it_has_in_a_grid(self, seed, family_theta):
        family, theta = family_theta
        U, V = np.random.default_rng(seed).uniform(1e-9, 1.0, size=(2, 200))
        grid = family.cdf(theta, U, V)
        assert [copula_cdf(family, theta, u, v) for u, v in zip(U, V)] == grid.tolist()

    @pytest.mark.parametrize("family,theta", EXTREME_THETAS + [(Frank(), t) for t in (1e-7, 1e-6, -0.5, 40.0, -700.0)])
    def test_points_of_a_grid_with_its_boundaries_keep_the_bits_of_the_full_formula(self, family, theta):
        grid = np.concatenate([[0.0, 1.0], FRANK_GRID])
        U, V = np.meshgrid(grid, grid)
        got = np.array([[copula_cdf(family, theta, u, v) for u, v in zip(row_u, row_v)] for row_u, row_v in zip(U, V)])
        assert np.array_equal(got, grid_cdf(family, theta, U, V))


def fd_density(family, theta, u, v, h=1e-4):
    c = lambda a, b: copula_cdf(family, theta, a, b)
    return (c(u + h, v + h) - c(u + h, v - h) - c(u - h, v + h) + c(u - h, v - h)) / (4 * h * h)


class TestLogDensity:
    def test_gumbel_unit_theta_density_is_one(self):
        for u, v in ((0.3, 0.8), (0.01, 0.99), (0.5, 0.5)):
            assert copula_log_density(Gumbel(), 1.0, u, v) == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences_at_named_points(self):
        ex = math.exp(copula_log_density(Clayton(), 2.0, 0.5, 0.5))
        assert_allclose(ex, fd_density(Clayton(), 2.0, 0.5, 0.5), rtol=1e-3)
        ex = math.exp(copula_log_density(Frank(), 5.0, 0.2, 0.8))
        assert_allclose(ex, fd_density(Frank(), 5.0, 0.2, 0.8), rtol=1e-3)

    @pytest.mark.parametrize("family,theta", FAMILY_THETAS)
    def test_matches_finite_differences_at_random_points(self, family, theta):
        rng = np.random.default_rng(0)
        for _ in range(25):
            u, v = rng.uniform(0.05, 0.95, size=2)
            ex = math.exp(copula_log_density(family, theta, u, v))
            assert_allclose(ex, fd_density(family, theta, u, v), rtol=1e-3)

    @pytest.mark.parametrize("family,theta", FAMILY_THETAS)
    def test_density_integrates_to_one(self, family, theta):
        t, w = np.polynomial.legendre.leggauss(256)
        x = 0.5 * (t + 1.0)
        wx = 0.5 * w
        dens = np.exp(family.log_density(theta, x[:, None], x[None, :]))
        assert_allclose(wx @ dens @ wx, 1.0, atol=1e-3)

    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(sorted(FAMILIES)),
        seed=st.integers(0, 2**32 - 1),
        reach=st.floats(0.0, 1.0),
        constant=st.sampled_from([None, 1.0, 2.0, 700.0]),
    )
    @example(name="gumbel", seed=0, reach=0.0, constant=2.0)  # the w = 0 start, whose power numpy may swap for square
    @example(name="gumbel", seed=1, reach=0.0, constant=1.0)
    @example(name="clayton", seed=2, reach=0.0, constant=1.0)
    @example(name="clayton", seed=3, reach=1.0, constant=None)
    @example(name="frank", seed=4, reach=1.0, constant=None)
    @example(name="frank", seed=5, reach=1e-9, constant=None)  # every theta inside the independence band
    def test_per_point_thetas_keep_the_bits_of_the_usual_rearrangement(self, name, seed, reach, constant):
        # one theta per point, as train_pairwise passes them: Clayton and Gumbel through their
        # links of scores up to log 699, Frank anywhere in [-700, 700]
        family = family_from_name(name)
        rng = np.random.default_rng(seed)
        n = 119
        u = np.clip(rng.uniform(size=n) ** rng.choice([1.0, 8.0]), 1e-10, 1.0 - 1e-10)
        v = np.clip(rng.uniform(size=n), 1e-10, 1.0 - 1e-10)
        score = reach * rng.uniform(-1.0, 1.0, size=n)
        theta = 700.0 * score if name == "frank" else family.link(math.log(699.0) * score)
        if constant is not None:
            theta = np.full(n, constant)
        assert np.array_equal(family.log_density(theta, u, v), grid_log_density(family, theta, u, v))

    def test_frank_independence_band(self):
        assert copula_log_density(Frank(), 1e-9, 0.3, 0.7) == 0.0
        assert copula_log_density(Frank(), 0.0, 0.3, 0.7) == 0.0

    def test_interior_violation_rejected(self):
        with pytest.raises(InvalidArgumentError):
            copula_log_density(Clayton(), 2.0, 0.0, 0.5)
        with pytest.raises(InvalidArgumentError):
            copula_log_density(Clayton(), 2.0, 0.5, 1.0)


class TestLink:
    def test_forms(self):
        assert Clayton().link(2.0) == pytest.approx(math.exp(2.0))
        assert Frank().link(-3.5) == -3.5
        assert Gumbel().link(0.0) == 2.0

    @pytest.mark.parametrize("family", [Clayton(), Frank(), Gumbel()])
    def test_total_over_wide_score_range(self, family):
        for gamma in np.linspace(-50.0, 50.0, 21):
            theta = family.link(gamma)
            assert math.isfinite(theta)
            # in-domain values pass the cdf's own validation
            copula_cdf(family, theta, 0.4, 0.6)

    def test_family_names(self):
        assert isinstance(family_from_name("clayton"), Clayton)
        assert isinstance(family_from_name("Frank"), Frank)
        assert isinstance(family_from_name("GUMBEL"), Gumbel)
        with pytest.raises(InvalidArgumentError, match="unknown copula family name"):
            family_from_name("gaussian")

    @pytest.mark.parametrize("name", [None, 3, b"clayton"])
    def test_non_string_family_name_rejected(self, name):
        with pytest.raises(InvalidArgumentError, match="unknown copula family name"):
            family_from_name(name)


UNKNOWN_FAMILIES = ["clayton", None, Clayton, object()]


class TestUnknownFamily:
    """Anything but an instance of a registered family class is rejected where it enters."""

    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 1))
        Y = rng.standard_normal((10, 2))
        return fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=1), max_iters=0)), (X, Y)

    @pytest.mark.parametrize("family", UNKNOWN_FAMILIES, ids=["name", "none", "class", "object"])
    @pytest.mark.parametrize("entry", ["pair_model", "train_pairwise", "copula_cdf", "copula_log_density"])
    def test_rejected_at_each_entry_point(self, fitted, entry, family):
        model, data = fitted
        calls = {
            "pair_model": lambda: single_point_pair_model(family, 0.0),
            "train_pairwise": lambda: train_pairwise((0, 1), model, data, family),
            "copula_cdf": lambda: copula_cdf(family, 2.0, 0.4, 0.6),
            "copula_log_density": lambda: copula_log_density(family, 2.0, 0.4, 0.6),
        }
        with pytest.raises(InvalidArgumentError, match="unknown copula family"):
            calls[entry]()


CLAYTON_POINTS = [1e-12, 1e-6, 0.3, 0.5, 0.7, 1.0 - 1e-6, 1.0 - 1e-12]


def clayton_reference(theta, u, v):
    """Clayton's cdf and log density at the doubles theta, u and v, in 50-digit mpmath, rounded to doubles."""
    with mp.workdps(50):
        theta, u, v = mp.mpf(theta), mp.mpf(u), mp.mpf(v)
        s = u**-theta + v**-theta - 1
        log_density = mp.log1p(theta) - (theta + 1) * (mp.log(u) + mp.log(v)) - (2 + 1 / theta) * mp.log(s)
        return float(s ** (-1 / theta)), float(log_density)


class TestClaytonNearIndependence:
    """Clayton keeps its digits as theta -> 0, where ``u^-theta + v^-theta - 1`` sits just above 1."""

    @pytest.mark.parametrize("theta", [1e-14, 1e-10, 1e-6, 0.01, 1.0, 5.0, 50.0, 700.0])
    def test_cdf_and_log_density_agree_with_mpmath(self, theta):
        for u in CLAYTON_POINTS:
            for v in CLAYTON_POINTS:
                cdf, log_density = clayton_reference(theta, u, v)
                assert abs(copula_cdf(Clayton(), theta, u, v) - cdf) <= 1e-14 * cdf, (u, v)
                # at large theta on the diagonal the density's terms, each about (theta + 1)|log uv|,
                # cancel to a far smaller sum, so its rounding is judged on their scale
                scale = max(abs(log_density), (theta + 1.0) * abs(math.log(u) + math.log(v)))
                assert abs(copula_log_density(Clayton(), theta, u, v) - log_density) <= 1e-14 * scale, (u, v)

    def test_covariance_vanishes_with_theta(self):
        mo = gaussian_moments([0.0, 0.0], [1.0, 1.0])
        x = np.array([0.0])
        weak = predictive_covariance(single_point_pair_model(Clayton(), math.log(1e-8)), mo, (0, 1), x)
        assert weak == pytest.approx(8.158e-9, rel=1e-3)
        vanishing = predictive_covariance(single_point_pair_model(Clayton(), math.log(1e-17)), mo, (0, 1), x)
        assert abs(vanishing) < 1e-14


class TestMarginalCdf:
    def test_reference_values(self):
        mo = gaussian_moments([2.0, -1.0], [4.0, 1.0])
        assert marginal_cdf(mo, 0, 2.0) == 0.5
        assert marginal_cdf(mo, 0, 1e9) == 1.0
        assert marginal_cdf(mo, 0, -1e9) == 0.0
        mo = gaussian_moments([0.0], [1.0])
        assert_allclose(marginal_cdf(mo, 0, 1.959964), 0.975, atol=1e-6)

    def test_batched_moments_give_one_value_per_row(self):
        rng = np.random.default_rng(3)
        means, variances, y = rng.standard_normal((3, 2)), rng.uniform(0.5, 2.0, (3, 2)), rng.standard_normal(3)
        rows = [marginal_cdf(gaussian_moments(m, s2), 1, t) for m, s2, t in zip(means, variances, y)]
        batched = marginal_cdf(gaussian_moments(means, variances), 1, y)
        assert batched.shape == (3,)
        assert batched.tolist() == rows


class TestTraining:
    def test_independent_outputs_stay_near_independence(self):
        for seed in (0, 2):
            rng = np.random.default_rng(seed)
            N = 600
            Y = rng.standard_normal((N, 2))
            X = grid_inputs(N)
            model = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=1), max_iters=40, seed=0))
            pm = train_pairwise((0, 1), model, (X, Y), Frank())
            thetas = np.array([conditional_theta(pm, x) for x in X])
            assert np.all(np.abs(thetas) < 0.5), f"seed {seed}: max {np.abs(thetas).max()}"

    def test_recovers_clayton_dependence(self):
        rng = np.random.default_rng(0)
        N = 400
        u, v = clayton_sample(3.0, N, rng)
        Y = np.column_stack([ndtri(u), ndtri(v)])
        X = grid_inputs(N)
        d = np.abs(X[:, None, 0] - X[None, :, 0])
        med = np.median(d[np.triu_indices(N, 1)])
        phi = float(np.exp(np.log(0.5) / (3 * med)))
        kern = Ar1Kernel(phi=phi, sigma0_sq=(1 - phi**2) * 0.3)
        model = fit(
            X, Y,
            MgpchConfig(pyp=PypConfig(truncation=1), noise_kernels=(kern,), max_iters=60, seed=0),
        )
        pm = train_pairwise((0, 1), model, (X, Y), Clayton())
        thetas = np.array([conditional_theta(pm, x) for x in X])
        assert 1.5 <= thetas.mean() <= 6.0

    def test_full_basis_reproduces_design_rows(self, monkeypatch):
        # every training input becomes a basis point
        monkeypatch.setattr(copula_module, "BASIS_FRACTION", 1.0)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((12, 2))
        Y = rng.standard_normal((12, 2))
        model = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=1), max_iters=0))
        pm = train_pairwise((0, 1), model, (X, Y), Clayton())
        assert np.array_equal(pm.basis_points, X)
        for n in (0, 5, 11):
            gauss = np.exp(-0.5 * np.sum((X - X[n]) ** 2, axis=1) / pm.lengthscale**2)
            assert_allclose(basis_features(pm, X[n]), gauss, rtol=1e-12)

    def test_basis_subsampling(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 1))
        Y = rng.standard_normal((30, 2))
        model = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=1), max_iters=0))
        pm = train_pairwise((0, 1), model, (X, Y), Gumbel())
        assert pm.basis_points.shape == (3, 1)
        assert np.array_equal(pm.basis_points, X[[0, 14, 29]])

    def test_validation(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 1))
        Y = rng.standard_normal((10, 2))
        model = fit(X, Y, MgpchConfig(pyp=PypConfig(truncation=1), max_iters=0))
        with pytest.raises(InvalidArgumentError):
            train_pairwise((0, 0), model, (X, Y), Frank())
        with pytest.raises(InvalidArgumentError):
            train_pairwise((0, 2), model, (X, Y), Frank())
        bad = Y.copy()
        bad[3, 1] = np.nan
        with pytest.raises(DegenerateMarginalsError):
            train_pairwise((0, 1), model, (X, bad), Frank())

    def test_model_validation(self):
        with pytest.raises(InvalidArgumentError):
            PairwiseCopulaModel(
                family=Frank(),
                basis_points=np.zeros((2, 1)),
                w=np.array([1.0, np.inf]),
                lengthscale=1.0,
            )
        for lengthscale in (0.0, -1.0, np.nan):
            with pytest.raises(InvalidArgumentError, match="lengthscale must be positive"):
                PairwiseCopulaModel(
                    family=Frank(),
                    basis_points=np.zeros((1, 1)),
                    w=np.array([1.0]),
                    lengthscale=lengthscale,
                )


class TestPredictiveCovariance:
    def test_independence_copula_gives_zero(self):
        # a strongly negative score drives the Gumbel parameter to exactly 1
        pm = single_point_pair_model(Gumbel(), -60.0)
        mo = gaussian_moments([0.0, 0.0], [1.0, 1.0])
        cov = predictive_covariance(pm, mo, (0, 1), np.array([0.0]))
        assert abs(cov) < 1e-8

    def test_clayton_vanishes_in_the_independence_limit(self):
        mo = gaussian_moments([0.0, 0.0], [1.0, 1.0])
        covs = []
        for score in (-2.0, -6.0, -12.0):
            pm = single_point_pair_model(Clayton(), score)
            covs.append(predictive_covariance(pm, mo, (0, 1), np.array([0.0])))
        assert covs[0] > covs[1] > covs[2] >= 0.0
        assert covs[2] < 1e-4

    def test_frank_matches_monte_carlo(self):
        pm = single_point_pair_model(Frank(), 5.0)
        mo = gaussian_moments([0.0, 0.0], [1.0, 1.0])
        quad = predictive_covariance(pm, mo, (0, 1), np.array([0.0]))
        rng = np.random.default_rng(1)
        u, v = frank_sample(5.0, 10**6, rng)
        yi = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
        yj = ndtri(np.clip(v, 1e-12, 1 - 1e-12))
        prods = yi * yj
        mc = float(prods.mean() - yi.mean() * yj.mean())
        se = float(prods.std() / math.sqrt(prods.size))
        assert abs(quad - mc) < 3.0 * se

    @pytest.mark.filterwarnings("ignore::mgpch.errors.QuadratureWarning")
    def test_positive_dependence_families_give_nonnegative_covariance(self):
        # strong-dependence scores may trip the node-doubling check;
        # only the sign of the estimate is under test here
        mo = gaussian_moments([0.3, -0.2], [2.0, 0.5])
        rng = np.random.default_rng(3)
        for _ in range(10):
            score = rng.uniform(-3.0, 3.0)
            for family in (Clayton(), Gumbel()):
                pm = single_point_pair_model(family, score)
                assert predictive_covariance(pm, mo, (0, 1), np.array([0.0])) >= 0.0

    def test_frank_negative_dependence_gives_negative_covariance(self):
        pm = single_point_pair_model(Frank(), -5.0)
        mo = gaussian_moments([0.0, 0.0], [1.0, 1.0])
        assert predictive_covariance(pm, mo, (0, 1), np.array([0.0])) < -0.1

    def test_covariance_scales_with_marginal_spreads(self):
        pm = single_point_pair_model(Frank(), 4.0)
        base = predictive_covariance(
            pm, gaussian_moments([0.0, 0.0], [1.0, 1.0]), (0, 1), np.array([0.0])
        )
        scaled = predictive_covariance(
            pm, gaussian_moments([1.0, -2.0], [4.0, 9.0]), (0, 1), np.array([0.0])
        )
        assert_allclose(scaled, 6.0 * base, rtol=1e-9)

    def test_doubling_disagreement_warns(self, monkeypatch):
        monkeypatch.setattr(copula_module, "QUADRATURE_NODES", 4)
        pm = single_point_pair_model(Frank(), 5.0)
        mo = gaussian_moments([0.0, 0.0], [1.0, 1.0])
        with pytest.warns(QuadratureWarning):
            copula_module.predictive_covariance(pm, mo, (0, 1), np.array([0.0]))

    def test_convergence_check_is_judged_on_the_marginal_scale(self):
        # daily-return variances put covariances near 1e-4, far below an absolute 1e-6 floor
        mo = gaussian_moments([0.0, 0.0], [1e-4, 2.25e-4])
        strong = single_point_pair_model(Clayton(), math.log(20.0))
        with pytest.warns(QuadratureWarning):
            predictive_covariance(strong, mo, (0, 1), np.array([0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", QuadratureWarning)
            predictive_covariance(single_point_pair_model(Clayton(), 0.0), mo, (0, 1), np.array([0.0]))

    @pytest.mark.filterwarnings("ignore::mgpch.errors.QuadratureWarning")
    @pytest.mark.parametrize("family, score", [(Clayton(), 0.3), (Clayton(), 2.5), (Frank(), -4.0), (Frank(), 3.0),
                                               (Gumbel(), -1.0), (Gumbel(), 1.2)])
    def test_cached_rules_give_the_bits_of_fresh_ones(self, family, score):
        pm = single_point_pair_model(family, score)
        mo = gaussian_moments([0.3, -0.2], [2.0, 0.5])
        theta = conditional_theta(pm, np.array([0.0]))

        def fresh(nodes):
            return grid_covariance(family, theta, 2.0, 0.5, nodes)

        for _ in range(2):  # the second call reads the cache
            assert predictive_covariance(pm, mo, (0, 1), np.array([0.0])) == fresh(2 * QUADRATURE_NODES)

    @pytest.mark.filterwarnings("ignore::mgpch.errors.QuadratureWarning")
    @settings(max_examples=100, deadline=None)
    @given(
        family_score=st.one_of(
            # Clayton theta = e^score in [1e-6, e^6], where u^-theta = e^a overflows at the outer nodes
            st.tuples(st.just(Clayton()), st.floats(math.log(1e-6), 6.0)),
            # Gumbel theta = 1 + e^score in (1, 700]
            st.tuples(st.just(Gumbel()), st.floats(math.log(1e-12), math.log(699.0))),
            # Frank theta = score, with the independence band drawn on its own
            st.tuples(st.just(Frank()), st.floats(-700.0, 700.0) | st.floats(-2e-6, 2e-6)),
        ),
        var_i=st.floats(1e-6, 1e2),
        var_j=st.floats(1e-6, 1e2),
    )
    @example(family_score=(Gumbel(), 0.0), var_i=1.0, var_j=1.0)  # theta = 2, whose power numpy may swap for square
    @example(family_score=(Gumbel(), math.log(1e-12)), var_i=1.0, var_j=1.0)
    @example(family_score=(Gumbel(), -60.0), var_i=1.0, var_j=1.0)  # theta rounds to 1, independence
    @example(family_score=(Clayton(), 6.0), var_i=1e-4, var_j=2.25e-4)
    @example(family_score=(Frank(), 1e-6), var_i=1.0, var_j=1.0)
    @example(family_score=(Frank(), -9.9e-7), var_i=1.0, var_j=1.0)
    @example(family_score=(Frank(), 0.0), var_i=1.0, var_j=1.0)
    @example(family_score=(Frank(), -700.0), var_i=1.0, var_j=1.0)
    def test_covariance_and_its_grids_have_the_bits_of_the_grid_oracle(self, family_score, var_i, var_j):
        family, score = family_score
        pm = single_point_pair_model(family, score)
        x = np.array([0.0])
        theta = conditional_theta(pm, x)
        # a last-bit change at a few grid points can vanish in the weighted sum, so the grids are compared too
        for nodes in (QUADRATURE_NODES, 2 * QUADRATURE_NODES):
            _, F, _ = _quadrature_rule(nodes)
            U, V = np.broadcast_arrays(F[:, None], F[None, :])
            got = family.cdf(theta, F[:, None], F[None, :])
            assert np.array_equal(got, grid_cdf(family, theta, U, V))
        bound = math.sqrt(var_i * var_j)
        expected = min(max(grid_covariance(family, theta, var_i, var_j, 2 * QUADRATURE_NODES), -bound), bound)
        assert predictive_covariance(pm, gaussian_moments([0.1, -0.3], [var_i, var_j]), (0, 1), x) == expected

    def test_parameter_with_a_non_finite_covariance_raises(self):
        mo = gaussian_moments([0.0, 0.0], [2.0, 0.5])
        x = np.array([0.0])
        # Clayton's theta = e^710 overflows to inf, e^709 leaves -theta log F past the float range
        # and e^-800 underflows to 0; each would give a NaN covariance
        for score in (710.0, 709.0, -800.0):
            with np.errstate(over="ignore"), pytest.raises(InvalidArgumentError, match="non-finite covariance"):
                predictive_covariance(single_point_pair_model(Clayton(), score), mo, (0, 1), x)
        # Gumbel's theta = inf is the comonotone limit, which its cdf evaluates exactly
        with np.errstate(over="ignore"), pytest.warns(QuadratureWarning):
            assert predictive_covariance(single_point_pair_model(Gumbel(), 710.0), mo, (0, 1), x) == 1.0

    def test_rules_keep_the_node_cdfs_as_a_vector(self):
        for nodes in (QUADRATURE_NODES, 2 * QUADRATURE_NODES):
            wq, F, UV = _quadrature_rule(nodes)
            assert wq.shape == F.shape == (nodes,)
            assert np.array_equal(UV, F[:, None] * F[None, :])

    def test_cached_rules_are_read_only(self):
        predictive_covariance(single_point_pair_model(Frank(), 1.0), gaussian_moments([0.0, 0.0], [1.0, 1.0]),
                              (0, 1), np.array([0.0]))
        for nodes in (QUADRATURE_NODES, 2 * QUADRATURE_NODES):
            for a in _quadrature_rule(nodes):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[(0,) * a.ndim] = 0.0

    def test_validation(self):
        pm = single_point_pair_model(Frank(), 2.0)
        mo = gaussian_moments([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(InvalidArgumentError):
            predictive_covariance(pm, mo, (0, 0), np.array([0.0]))
        with pytest.raises(InvalidArgumentError):
            predictive_covariance(pm, gaussian_moments([0.0, 0.0], [1.0, 0.0]), (0, 1), np.array([0.0]))
