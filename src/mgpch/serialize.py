"""Versioned JSON persistence for fitted models.

One container file holds the mixture model and any conditional copulas
trained on top of it.  Floats survive a round trip exactly (JSON text
uses the shortest representation that reparses to the same double), and
keys are emitted sorted, so the same model always produces the same
bytes.  A container is written compact, on one line with no whitespace
between tokens: indentation carries nothing and would be about a quarter
of the file.  Reports and forecasts keep :func:`dump_json`'s indented
layout, for reading by eye.

Version 5 stores only the primal variational arrays, each O(C D N):
responsibilities, the natural means t of q(g), the bound parameters Q,
the effective precisions B of the last mean update, the sticks and the
innovation.  A forecast factors the same Q and B as the fit, so a loaded
model forecasts the same bits as the fitted one.  The updates' own code
rebuilds every derived array when the free energy first needs it, the
means m = m_tilde + Lam t and the latent means mu that B fixes included;
a model holds no N x N posterior covariance.  A FormatError naming the
field rejects a data or primal array with a non-finite or non-numeric
entry, a state array whose shape disagrees with the file's N, C and D, a
non-positive stick or innovation parameter, and data, kernels, m_tilde
or settings that :func:`mgpch.fit` would reject, so a loaded model needs
no further check before its first forecast.  Kernels are zero or
autoregressive, fixed for the whole fit.  Version 4 files differ only in
also storing mu, which a load ignores.  Earlier versions (1 stored S and
Sigma, 2 a hyperparameter-step cadence, 3 the means m) are not read;
refit the model to write version 5.
"""

import json
from dataclasses import asdict, fields, replace

import numpy as np

from .copula import PairwiseCopulaModel, family_from_name, family_name
from .errors import FormatError, InvalidArgumentError
from .kernels import Ar1Kernel, ZeroKernel
from .model import MgpchConfig, VariationalState, _make_context, _validate_data
from .pyp import InnovationPosterior, PypConfig, StickPosterior

__all__ = ["save_model", "load_model", "dump_json", "FORMAT_NAME", "FORMAT_VERSION"]

FORMAT_NAME = "mgpch-model"
FORMAT_VERSION = 5
_KERNEL_FIELDS = ("mean_kernels", "noise_kernels")


def dump_json(obj, path, compact=False):
    """Write JSON with sorted keys and a stable layout: indented, or with no whitespace between tokens if ``compact``."""
    layout = {"separators": (",", ":")} if compact else {"indent": 1}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, sort_keys=True, **layout)
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
    """Every MgpchConfig field by name; kernels and m_tilde become JSON values."""
    obj = {f.name: getattr(config, f.name) for f in fields(config)}
    obj["pyp"] = asdict(config.pyp)
    for name in _KERNEL_FIELDS:
        if obj[name] is not None:
            obj[name] = [_kernel_to_obj(k) for k in obj[name]]
    if obj["m_tilde"] is not None:
        obj["m_tilde"] = _array(obj["m_tilde"])
    return obj


def _config_from_obj(obj):
    kwargs = {f.name: obj[f.name] for f in fields(MgpchConfig)}
    kwargs["pyp"] = PypConfig(**obj["pyp"])
    for name in _KERNEL_FIELDS:
        if kwargs[name] is not None:
            kwargs[name] = tuple(_kernel_from_obj(k) for k in kwargs[name])
    if kwargs["m_tilde"] is not None:
        kwargs["m_tilde"] = np.asarray(kwargs["m_tilde"])
    return MgpchConfig(**kwargs)


def _state_to_obj(state):
    return {
        "R": _array(state.R),
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
    """A data or primal state array; forecasts solve against factors built from it unchecked, so it must be finite."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise FormatError(f"field {name!r} is not a numeric array") from exc
    # numpy would parse a numeric string and take null for NaN; a file field holds numbers only
    if arr.dtype.kind not in "iuf":
        raise FormatError(f"field {name!r} is not a numeric array")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"field {name!r} holds non-finite values")
    return arr


def _state_array(value, name, shape):
    """A primal state array of the shape the file's N, C and D fix; forecasts index it unchecked."""
    arr = _finite_array(value, name)
    if arr.shape != shape:
        raise FormatError(f"field {name!r} has shape {arr.shape}, expected {shape}")
    return arr


def _posterior(cls, name, obj, shape):
    """The posterior ``cls`` of the file's field ``name``; its parameters have ``shape`` and, as in a fit, a scalar is a float."""
    params = {f.name: _state_array(obj[f.name], f"{name}.{f.name}", shape).tolist() for f in fields(cls)}
    try:
        return cls(**params)
    except InvalidArgumentError as exc:
        raise FormatError(f"field {name!r}: {exc}") from exc


def _state_from_obj(obj, n, c, d):
    """The state of a file whose data and kernels give N = n observations, C = c components and D = d outputs."""
    return VariationalState(
        R=_state_array(obj["R"], "R", (n, c)),
        **{name: _state_array(obj[name], name, (c, d, n)) for name in ("t", "Q", "B")},
        sticks=_posterior(StickPosterior, "sticks", obj["sticks"], (c - 1,)),
        innovation=_posterior(InnovationPosterior, "innovation", obj["innovation"], ()),
    )


def _copula_to_obj(pair, pairmodel):
    return {
        "pair": list(pair),
        "family": family_name(pairmodel.family),
        "basis_points": _array(pairmodel.basis_points),
        "w": _array(pairmodel.w),
        "lengthscale": pairmodel.lengthscale,
    }


def _copula_from_obj(obj):
    pair = tuple(int(i) for i in obj["pair"])
    model = PairwiseCopulaModel(
        family=family_from_name(obj["family"]),
        basis_points=np.asarray(obj["basis_points"]),
        w=np.asarray(obj["w"]),
        lengthscale=obj["lengthscale"],
    )
    return pair, model


def _unfitted_model(payload):
    """The unfitted model of the file's config, data, kernels and m_tilde, checked as :func:`mgpch.fit` checks them."""
    X, Y, m_tilde = (_finite_array(payload[name], name) for name in ("X", "Y", "m_tilde"))
    kernels = {name: tuple(_kernel_from_obj(k) for k in payload[name]) for name in _KERNEL_FIELDS}
    try:
        config = _config_from_obj(payload["config"])
        model = _make_context(*_validate_data(X, Y), replace(config, m_tilde=m_tilde, **kernels))
    except InvalidArgumentError as exc:
        raise FormatError(str(exc)) from exc
    model.config = config
    return model


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
    dump_json(payload, path, compact=True)


def load_model(path):
    """Read a model container; returns (model, pairwise copula dict)."""
    with open(path, encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not valid JSON: {exc}", line=exc.lineno) from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
        raise FormatError(f"not a {FORMAT_NAME} file")
    if payload.get("version") not in (4, FORMAT_VERSION):
        raise FormatError(
            f"unsupported version {payload.get('version')!r}; this release reads versions "
            f"4 and {FORMAT_VERSION} only, so refit the model to write a current file"
        )
    try:
        model = _unfitted_model(payload)
        n, d = model.Y.shape
        model.state = _state_from_obj(payload["state"], n, model.config.pyp.truncation, d)
        model.free_energy_trace = list(payload["free_energy_trace"])
        model.trace_labels = list(payload["trace_labels"])
        pairwise = dict(_copula_from_obj(obj) for obj in payload["pairwise_copulas"])
    except KeyError as exc:
        raise FormatError(f"missing field {exc.args[0]!r}") from exc
    return model, pairwise
