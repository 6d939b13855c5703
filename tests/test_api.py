"""The package's public surface: every exported name resolves, and arguments are checked at the door.

Parameter objects reject non-finite and non-real values, and array
arguments that are not regular arrays of numbers, with
InvalidArgumentError naming the argument.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import mgpch
from mgpch.backtest import historical_volatility
from mgpch.copula import Clayton, PairwiseCopulaModel
from mgpch.errors import InvalidArgumentError
from mgpch.garch import GarchParams
from mgpch.kernels import Ar1Kernel
from mgpch.model import MgpchConfig, fit, predict, predict_batch
from mgpch.pyp import InnovationPosterior, PypConfig, StickPosterior
from mgpch.simulation import simulate

MODULES = sorted(info.name for info in pkgutil.iter_modules(mgpch.__path__, "mgpch."))


@pytest.mark.parametrize("name", ["mgpch", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_the_sampler_is_one_object_under_every_name():
    import mgpch.model
    import mgpch.simulation

    # a submodule named like the function would replace the package attribute when imported
    assert callable(mgpch.simulate)
    assert mgpch.model.simulate is mgpch.simulate is mgpch.simulation.simulate
    assert mgpch.model.SimulationDraw is mgpch.SimulationDraw is mgpch.simulation.SimulationDraw


PARAMETER_CASES = {
    "kernel variance inf": lambda: Ar1Kernel(phi=0.5, sigma0_sq=np.inf),
    "kernel phi a string": lambda: Ar1Kernel(phi="0.5", sigma0_sq=0.75),
    "innovation shape nan": lambda: InnovationPosterior(np.nan, 1.0),
    "innovation rate inf": lambda: InnovationPosterior(1.0, np.inf),
    "stick beta1 nan": lambda: StickPosterior([np.nan], [1.0]),
    "stick beta2 inf": lambda: StickPosterior([1.0], [np.inf]),
    "stick beta1 a string": lambda: StickPosterior(["a"], [1.0]),
    "garch a nan": lambda: GarchParams(1e-4, np.nan, 0.5),
    "garch b a string": lambda: GarchParams(1e-4, 0.1, "0.5"),
    "copula lengthscale inf": lambda: PairwiseCopulaModel(Clayton(), np.zeros((1, 1)), np.zeros(1), lengthscale=np.inf),
}


@pytest.mark.parametrize("build", PARAMETER_CASES.values(), ids=PARAMETER_CASES.keys())
def test_parameter_objects_reject_non_finite_and_non_real_values(build):
    with pytest.raises(InvalidArgumentError):
        build()


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    return fit(rng.standard_normal((8, 1)), 0.01 * rng.standard_normal((8, 1)),
               MgpchConfig(pyp=PypConfig(truncation=2), max_iters=2))


Y5 = 0.01 * np.arange(1.0, 6.0)[:, None]
ARRAY_CASES = {
    "fit X of strings": (lambda m: fit([["a"]] * 5, Y5), "X"),
    "fit Y ragged": (lambda m: fit(Y5, [[0.1], [0.2, 0.3], [0.1], [0.2], [0.3]]), "Y"),
    "predict a string": (lambda m: predict(m, "x"), "xstar"),
    "predict_batch a string": (lambda m: predict_batch(m, "x"), "Xstar"),
    "fit m_tilde a string": (lambda m: fit(Y5, Y5, MgpchConfig(pyp=PypConfig(truncation=2), m_tilde="x")), "m_tilde"),
    "fit m_tilde ragged": (lambda m: fit(Y5, Y5, MgpchConfig(pyp=PypConfig(truncation=2), m_tilde=[[0.0], [0.0, 1.0]])),
                           "m_tilde"),
    "simulate m_tilde a string": (lambda m: simulate(MgpchConfig(m_tilde="x"), 5, 1), "m_tilde"),
    "simulate m_tilde ragged": (lambda m: simulate(MgpchConfig(pyp=PypConfig(truncation=2), m_tilde=[[0.0], [0.0, 1.0]]), 5, 1),
                                "m_tilde"),
    "historical_volatility strings": (lambda m: historical_volatility(["a"], 1), "returns"),
}


@pytest.mark.parametrize("call, name", ARRAY_CASES.values(), ids=ARRAY_CASES.keys())
def test_non_numeric_array_inputs_name_the_argument(model, call, name):
    with pytest.raises(InvalidArgumentError, match=rf"^{name} "):
        call(model)
