"""Spans and counts at mgpch's layer boundaries, for traced runs only.

The tracer replaces each listed public function under every name the
package binds it to: ``fit`` finds ``update_noise_processes`` and
``cholesky_factor`` through ``mgpch.model``, while ``mgpch.backtest``
and ``mgpch.cli`` import ``predict`` by name.  Spans live in memory and
are written out when the run ends.  Untraced rounds run with the
original functions in place.
"""

import json
import sys
import time
import warnings
from collections import Counter

import numpy as np

# (defining module, function, span name)
LAYERS = (
    ("mgpch.model", "fit", "model.fit"),
    ("mgpch.model", "update_noise_processes", "model.noise"),
    ("mgpch.model", "update_latent_functions", "model.mean"),
    ("mgpch.model", "update_responsibilities", "model.responsibilities"),
    ("mgpch.model", "update_mixture_posteriors", "model.mixture"),
    ("mgpch.model", "free_energy", "model.free_energy"),
    ("mgpch.model", "predict", "model.predict"),
    ("mgpch.model", "simulate", "model.simulate"),
    ("mgpch.linalg", "cholesky_factor", "linalg.cholesky"),
    ("mgpch.linalg", "cholesky_solve", "linalg.cholesky_solve"),
    ("mgpch.linalg", "solve_lower", "linalg.solve_lower"),
    ("mgpch.linalg", "logdet_from_factor", "linalg.logdet"),
    ("mgpch.kernels", "design_matrix", "kernels.design_matrix"),
    ("mgpch.copula", "train_pairwise", "copula.train"),
    ("mgpch.copula", "predictive_covariance", "copula.covariance"),
    ("mgpch.garch", "garch_fit", "garch.fit"),
    ("mgpch.serialize", "save_model", "serialize.save"),
    ("mgpch.serialize", "load_model", "serialize.load"),
    ("mgpch.data_io", "load_price_csv", "data_io.read_csv"),
    ("mgpch.data_io", "write_price_csv", "data_io.write_csv"),
    ("mgpch.backtest", "run_volatility_backtest", "backtest"),
    ("mgpch.backtest", "run_covariance_backtest", "backtest"),
    ("mgpch.cli", "run_command", "cli"),
)


def _rows(b):
    return b.shape[1] if getattr(b, "ndim", 1) == 2 else 1


# Floating-point operations computed from argument shapes, not counted.
def _flops_cholesky(args):
    n = args[0].shape[0]
    return n**3 / 3.0


def _flops_cholesky_solve(args):
    n = args[0].shape[0]
    return 2.0 * n * n * _rows(args[1])


def _flops_solve_lower(args):
    n = args[0].shape[0]
    return float(n * n * _rows(args[1]))


_FLOPS = {
    "linalg.cholesky": _flops_cholesky,
    "linalg.cholesky_solve": _flops_cholesky_solve,
    "linalg.solve_lower": _flops_solve_lower,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self._stack = []
        self._wrappers = {}
        self._patches = []

    def _wrap(self, fn, name):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        counts = self.counts
        flops = _FLOPS.get(name)

        def before(args):
            if flops is not None:
                counts["linalg.flop"] += flops(args)
            if name == "model.noise":
                Q = getattr(args[0], "Q", None)
                return None if Q is None else Q.copy()
            if name == "copula.covariance":
                catcher = warnings.catch_warnings(record=True)
                caught = catcher.__enter__()
                warnings.simplefilter("always")
                return catcher, caught
            return None

        def after(args, token):
            if name == "model.noise" and token is not None:
                Q = args[0].Q
                blocks = Q.shape[0] * Q.shape[1]
                counts["model.noise_blocks"] += blocks
                moved = np.any(Q != token, axis=-1)
                counts["model.noise_blocks_moved"] += int(np.count_nonzero(moved))
            elif name == "copula.covariance":
                catcher, caught = token
                catcher.__exit__(None, None, None)
                for item in caught:
                    if item.category.__name__ == "QuadratureWarning":
                        counts["copula.quadrature_warnings"] += 1
                    else:
                        warnings.warn_explicit(item.message, item.category, item.filename, item.lineno)

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            token = before(args)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                starts[index] = start
                stack.pop()
                after(args, token)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every binding of each listed function in the loaded mgpch modules."""
        modules = [m for key, m in sorted(sys.modules.items()) if key == "mgpch" or key.startswith("mgpch.")]
        for module_name, attr, span in LAYERS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                continue
            wrapper = self._wrappers.get(id(fn))
            if wrapper is None:
                wrapper = self._wrappers[id(fn)] = (fn, self._wrap(fn, span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper[1])
                        self._patches.append((module, key, fn))

    def uninstall(self):
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()

    def layer_metrics(self, rounds):
        """Per-layer totals per traced round."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        total = Counter()
        calls = Counter()
        self_time = Counter()
        train_predicts = 0
        for i, name in enumerate(self.names):
            total[name] += dur[i]
            calls[name] += 1
            self_time[name] += dur[i] - child[i]
            if name == "model.predict":
                p = self.parents[i]
                while p >= 0 and self.names[p] != "copula.train":
                    p = self.parents[p]
                train_predicts += p >= 0
        linalg_s = sum(v for k, v in total.items() if k.startswith("linalg."))
        values = {
            "model.sweeps": calls["model.noise"],
            "model.noise_s": total["model.noise"],
            "model.free_energy_s": total["model.free_energy"],
            "model.free_energy_calls": calls["model.free_energy"],
            "model.noise_blocks": self.counts["model.noise_blocks"],
            "model.noise_blocks_moved": self.counts["model.noise_blocks_moved"],
            "model.mean_s": total["model.mean"],
            "model.responsibilities_s": total["model.responsibilities"],
            "model.mixture_s": total["model.mixture"],
            "model.predict_s": total["model.predict"],
            "model.predict_calls": calls["model.predict"],
            "linalg.cholesky_calls": calls["linalg.cholesky"],
            "linalg.solve_calls": calls["linalg.cholesky_solve"] + calls["linalg.solve_lower"],
            "linalg.s": linalg_s,
            "linalg.gflop": self.counts["linalg.flop"] / 1e9,
            "kernels.design_matrix_s": total["kernels.design_matrix"],
            "copula.train_s": total["copula.train"],
            "copula.train_predict_calls": train_predicts,
            "copula.covariance_s": total["copula.covariance"],
            "copula.quadrature_warnings": self.counts["copula.quadrature_warnings"],
            "garch.fit_s": total["garch.fit"],
            "garch.fit_calls": calls["garch.fit"],
            "serialize.save_s": total["serialize.save"],
            "serialize.load_s": total["serialize.load"],
            "data_io.read_csv_s": total["data_io.read_csv"],
            "data_io.write_csv_s": total["data_io.write_csv"],
            "backtest.self_s": self_time["backtest"],
            "cli.self_s": self_time["cli"],
        }
        return {key: value / rounds for key, value in values.items()}

    def write(self, path):
        """Write every span as [name, start, end, parent index] with the counts."""
        spans = [
            [self.names[i], self.starts[i], self.ends[i], self.parents[i]] for i in range(len(self.names))
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"counts": dict(self.counts), "spans": spans}, handle)

