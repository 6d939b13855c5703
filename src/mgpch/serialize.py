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
non-positive stick or innovation parameter, a field of another JSON type
where an object or an array belongs, data, kernels, m_tilde or settings
that :func:`mgpch.fit` would reject, and a pairwise copula whose
pair, family, basis points, weights or lengthscale do not fit the
model's inputs and outputs, so a loaded model needs no further check
before its first forecast.  Kernels are zero or autoregressive, fixed
for the whole fit.  Version 4 files differ only in also storing mu,
which a load ignores.  Earlier versions (1 stored S and Sigma, 2 a
hyperparameter-step cadence, 3 the means m) are not read; refit the
model to write version 5.
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
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean", int: "a number",
               float: "a number", type(None): "null"}


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


def _field(value, name, kind):
    """The file's field ``name``, which must be a JSON object (``kind`` dict) or array (``kind`` list)."""
    if not isinstance(value, kind):
        raise FormatError(f"field {name!r} must be {_JSON_TYPES[kind]}, got {_JSON_TYPES[type(value)]}")
    return value


def _member(obj, key, name):
    """Member ``key`` of the file's object ``name``, which a saved file always holds."""
    try:
        return obj[key]
    except KeyError:
        raise FormatError(f"missing field '{name}.{key}'") from None


def _kernel_from_obj(obj, name):
    kind = _field(obj, name, dict).get("kind")
    if kind == "zero":
        return ZeroKernel()
    if kind == "ar1":
        params = {p: float(_shaped_array(_member(obj, p, name), f"{name}.{p}", ())) for p in ("phi", "sigma0_sq")}
        try:
            return Ar1Kernel(**params)
        except InvalidArgumentError as exc:
            raise FormatError(f"field {name!r}: {exc}") from exc
    raise FormatError(f"field '{name}.kind': unknown kernel kind {kind!r}")


def _kernels_from_obj(value, name):
    """The kernel list ``name`` of the file, one kernel per output."""
    return tuple(_kernel_from_obj(k, f"{name}[{i}]") for i, k in enumerate(_field(value, name, list)))


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
    kwargs = {f.name: _member(obj, f.name, "config") for f in fields(MgpchConfig)}
    pyp = _field(kwargs["pyp"], "config.pyp", dict)
    kwargs["pyp"] = PypConfig(**{f.name: _member(pyp, f.name, "config.pyp") for f in fields(PypConfig)})
    for name in _KERNEL_FIELDS:
        if kwargs[name] is not None:
            kwargs[name] = _kernels_from_obj(kwargs[name], f"config.{name}")
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


def _shaped_array(value, name, shape):
    """A finite array of the shape the file's other fields fix; forecasts index it unchecked."""
    arr = _finite_array(value, name)
    if arr.shape != shape:
        raise FormatError(f"field {name!r} has shape {arr.shape}, expected {shape}")
    return arr


def _posterior(cls, name, obj, shape):
    """The posterior ``cls`` of the file's field ``name``; its parameters have ``shape`` and, as in a fit, a scalar is a float."""
    obj = _field(obj, name, dict)
    params = {f.name: _shaped_array(_member(obj, f.name, name), f"{name}.{f.name}", shape).tolist() for f in fields(cls)}
    try:
        return cls(**params)
    except InvalidArgumentError as exc:
        raise FormatError(f"field {name!r}: {exc}") from exc


def _state_from_obj(obj, n, c, d):
    """The state of a file whose data and kernels give N = n observations, C = c components and D = d outputs."""
    obj = _field(obj, "state", dict)
    return VariationalState(
        R=_shaped_array(obj["R"], "R", (n, c)),
        **{name: _shaped_array(obj[name], name, (c, d, n)) for name in ("t", "Q", "B")},
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


def _copula_from_obj(obj, k, p, d):
    """Entry k of the file's pairwise copulas, for a model of p input columns and d outputs."""
    name = f"pairwise_copulas[{k}]"
    pair = _member(_field(obj, name, dict), "pair", name)
    # a saved file holds JSON integers here; a bool or a float is no index
    if not (
        isinstance(pair, list)
        and len(pair) == 2
        and all(type(i) is int and 0 <= i < d for i in pair)
        and pair[0] != pair[1]
    ):
        raise FormatError(f"field '{name}.pair' must hold two distinct output indices in [0, {d}), got {pair!r}")
    try:
        family = family_from_name(_member(obj, "family", name))
    except InvalidArgumentError as exc:
        raise FormatError(f"field '{name}.family': {exc}") from exc
    basis = _finite_array(_member(obj, "basis_points", name), f"{name}.basis_points")
    if basis.ndim != 2 or basis.shape[0] < 1 or basis.shape[1] != p:
        raise FormatError(f"field '{name}.basis_points' has shape {basis.shape}, expected (I, {p}) with I >= 1")
    w = _shaped_array(_member(obj, "w", name), f"{name}.w", basis.shape[:1])
    lengthscale = float(_shaped_array(_member(obj, "lengthscale", name), f"{name}.lengthscale", ()))
    if not lengthscale > 0.0:
        raise FormatError(f"field '{name}.lengthscale' must be positive, got {lengthscale}")
    return tuple(pair), PairwiseCopulaModel(family=family, basis_points=basis, w=w, lengthscale=lengthscale)


def _unfitted_model(payload):
    """The unfitted model of the file's config, data, kernels and m_tilde, checked as :func:`mgpch.fit` checks them."""
    X, Y, m_tilde = (_finite_array(payload[name], name) for name in ("X", "Y", "m_tilde"))
    kernels = {name: _kernels_from_obj(payload[name], name) for name in _KERNEL_FIELDS}
    try:
        config = _config_from_obj(_field(payload["config"], "config", dict))
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
        (n, p), d = model.X.shape, model.Y.shape[1]
        model.state = _state_from_obj(payload["state"], n, model.config.pyp.truncation, d)
        model.free_energy_trace = list(_field(payload["free_energy_trace"], "free_energy_trace", list))
        model.trace_labels = list(_field(payload["trace_labels"], "trace_labels", list))
        copulas = _field(payload["pairwise_copulas"], "pairwise_copulas", list)
        pairwise = dict(_copula_from_obj(obj, k, p, d) for k, obj in enumerate(copulas))
    except KeyError as exc:
        raise FormatError(f"missing field {exc.args[0]!r}") from exc
    return model, pairwise
