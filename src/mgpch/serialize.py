"""Versioned JSON persistence for fitted models.

One container file holds the mixture model and any conditional copulas
trained on top of it.  Floats survive a round trip exactly (JSON text
uses the shortest representation that reparses to the same double), and
keys are emitted sorted, so the same model always produces the same
bytes.

Version 4 stores only the primal variational arrays, each O(C D N):
responsibilities, the latent means mu, the natural means t of q(g), the
bound parameters Q, the effective precisions B of the last mean update,
the sticks and the innovation.  Every derived array, the means m = m_tilde
+ Lam t included, is rebuilt on load by the fit's own expressions, so a
loaded model forecasts the same bits as the fitted one; it holds no N x N
posterior covariance.  A primal array with a non-finite entry is rejected
with a FormatError that names the field.  Kernels are zero or
autoregressive, fixed for the whole fit.  Files of earlier versions (1
stored S and Sigma, 2 a hyperparameter-step cadence, 3 the means m) are
not read; refit the model to write version 4.
"""

import json

import numpy as np

from .copula import PairwiseCopulaModel, family_from_name
from .errors import FormatError, InvalidArgumentError
from .kernels import Ar1Kernel, RbfKernel, ZeroKernel
from .model import MgpchConfig, MgpchModel, VariationalState
from .pyp import InnovationPosterior, PypConfig, StickPosterior

__all__ = ["save_model", "load_model", "dump_json", "FORMAT_NAME", "FORMAT_VERSION"]

FORMAT_NAME = "mgpch-model"
FORMAT_VERSION = 4


def dump_json(obj, path):
    """Write JSON with sorted keys and a stable layout."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, sort_keys=True, indent=1)
        handle.write("\n")


def _array(a):
    return np.asarray(a, dtype=float).tolist()


def _kernel_to_obj(kernel):
    if isinstance(kernel, ZeroKernel):
        return {"kind": "zero"}
    if isinstance(kernel, Ar1Kernel):
        return {"kind": "ar1", "phi": kernel.phi, "sigma0_sq": kernel.sigma0_sq}
    raise InvalidArgumentError(f"cannot serialize kernel {kernel!r}")


def _kernel_from_obj(obj):
    kind = obj.get("kind")
    if kind == "zero":
        return ZeroKernel()
    if kind == "ar1":
        return Ar1Kernel(phi=obj["phi"], sigma0_sq=obj["sigma0_sq"])
    raise FormatError(f"unknown kernel kind {kind!r}")


def _config_to_obj(config):
    def kernels(seq):
        return None if seq is None else [_kernel_to_obj(k) for k in seq]

    return {
        "pyp": {
            "delta": config.pyp.delta,
            "eta1": config.pyp.eta1,
            "eta2": config.pyp.eta2,
            "truncation": config.pyp.truncation,
        },
        "mean_kernels": kernels(config.mean_kernels),
        "noise_kernels": kernels(config.noise_kernels),
        "m_tilde": None if config.m_tilde is None else _array(config.m_tilde),
        "max_iters": config.max_iters,
        "tol": config.tol,
        "seed": config.seed,
    }


def _config_from_obj(obj):
    def kernels(seq):
        return None if seq is None else tuple(_kernel_from_obj(k) for k in seq)

    m_tilde = obj["m_tilde"]
    return MgpchConfig(
        pyp=PypConfig(**obj["pyp"]),
        mean_kernels=kernels(obj["mean_kernels"]),
        noise_kernels=kernels(obj["noise_kernels"]),
        m_tilde=None if m_tilde is None else np.asarray(m_tilde),
        max_iters=obj["max_iters"],
        tol=obj["tol"],
        seed=obj["seed"],
    )


def _state_to_obj(state):
    return {
        "R": _array(state.R),
        "mu": _array(state.mu),
        "t": _array(state.t),
        "Q": _array(state.Q),
        "B": _array(state.B),
        "sticks": {"beta1": _array(state.sticks.beta1), "beta2": _array(state.sticks.beta2)},
        "innovation": {
            "eta1_hat": state.innovation.eta1_hat,
            "eta2_hat": state.innovation.eta2_hat,
        },
    }


def _finite_array(value, name):
    """A primal state array; forecasts solve against factors built from it unchecked, so it must be finite."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"state field {name!r} is not a numeric array") from exc
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"state field {name!r} holds non-finite values")
    return arr


def _state_from_obj(obj):
    return VariationalState(
        R=_finite_array(obj["R"], "R"),
        mu=_finite_array(obj["mu"], "mu"),
        t=_finite_array(obj["t"], "t"),
        Q=_finite_array(obj["Q"], "Q"),
        B=_finite_array(obj["B"], "B"),
        sticks=StickPosterior(
            beta1=_finite_array(obj["sticks"]["beta1"], "sticks.beta1"),
            beta2=_finite_array(obj["sticks"]["beta2"], "sticks.beta2"),
        ),
        innovation=InnovationPosterior(
            eta1_hat=obj["innovation"]["eta1_hat"],
            eta2_hat=obj["innovation"]["eta2_hat"],
        ),
    )


def _copula_to_obj(pair, pairmodel):
    return {
        "pair": list(pair),
        "family": type(pairmodel.family).__name__.lower(),
        "basis_points": _array(pairmodel.basis_points),
        "w": _array(pairmodel.w),
        "lengthscale": pairmodel.basis_kernel.lengthscale,
    }


def _copula_from_obj(obj):
    pair = tuple(int(i) for i in obj["pair"])
    model = PairwiseCopulaModel(
        family=family_from_name(obj["family"]),
        basis_points=np.asarray(obj["basis_points"]),
        w=np.asarray(obj["w"]),
        basis_kernel=RbfKernel(lengthscale=obj["lengthscale"]),
    )
    return pair, model


def save_model(path, model, pairwise=None):
    """Write a fitted model, and optionally its pairwise copulas, to JSON.

    ``pairwise`` maps output index pairs to trained PairwiseCopulaModel
    instances; they are stored in the same container so a covariance
    predictor travels as one artifact.
    """
    if model.state is None:
        raise InvalidArgumentError("cannot serialize an unfitted model")
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "config": _config_to_obj(model.config),
        "X": _array(model.X),
        "Y": _array(model.Y),
        "mean_kernels": [_kernel_to_obj(k) for k in model.mean_kernels],
        "noise_kernels": [_kernel_to_obj(k) for k in model.noise_kernels],
        "m_tilde": _array(model.m_tilde),
        "state": _state_to_obj(model.state),
        "free_energy_trace": [float(v) for v in model.free_energy_trace],
        "trace_labels": list(model.trace_labels),
        "pairwise_copulas": [
            _copula_to_obj(pair, pm) for pair, pm in sorted((pairwise or {}).items())
        ],
    }
    dump_json(payload, path)


def load_model(path):
    """Read a model container; returns (model, pairwise copula dict)."""
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}", line=exc.lineno) from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise FormatError(f"not a {FORMAT_NAME} file")
    if payload.get("version") != FORMAT_VERSION:
        raise FormatError(
            f"unsupported version {payload.get('version')!r}; this release reads "
            f"version {FORMAT_VERSION} only, so refit the model to write a current file"
        )
    try:
        model = MgpchModel(
            config=_config_from_obj(payload["config"]),
            X=np.asarray(payload["X"]),
            Y=np.asarray(payload["Y"]),
            mean_kernels=tuple(_kernel_from_obj(k) for k in payload["mean_kernels"]),
            noise_kernels=tuple(_kernel_from_obj(k) for k in payload["noise_kernels"]),
            m_tilde=np.asarray(payload["m_tilde"]),
            state=_state_from_obj(payload["state"]),
            free_energy_trace=list(payload["free_energy_trace"]),
            trace_labels=list(payload["trace_labels"]),
        )
        pairwise = dict(_copula_from_obj(obj) for obj in payload["pairwise_copulas"])
    except KeyError as exc:
        raise FormatError(f"missing field {exc.args[0]!r}") from exc
    return model, pairwise
