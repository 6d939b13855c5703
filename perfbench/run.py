"""Benchmark of mgpch: one user session per round, repeated for --seconds.

    python3 perfbench/run.py --workload uni-vol --seed 1 --seconds 30 --trace 0

Run from the repository root; mgpch is imported from ./src.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
perfbench/README.md.
"""

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
# BENCHMARK.json's run_seconds; every reference figure is measured with it.
RUN_SECONDS = 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "refit_s": "s",
    "forecast_per_s": "1/s",
    "load_s": "s",
    "model_mb": "MB",
    "simulate_s": "s",
    "free_energy_per_obs": "nats",
}


def _layer_unit(name):
    if name == "host.ref_gflops":
        return "GFLOP/s"
    if name == "linalg.gflop":
        return "GFLOP"
    if name.endswith("_s") or name == "linalg.s":
        return "s"
    return "count"


def _import_mgpch():
    """Put ./src first on the path and import mgpch from it."""
    src = ROOT / "src"
    if not (src / "mgpch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mgpch package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import mgpch

    if Path(mgpch.__file__).resolve().parent != (src / "mgpch").resolve():
        sys.exit(f"perfbench: imported mgpch from {mgpch.__file__}, not from {src}")


def _setup(workload, seed, workdir):
    """What setup_s times: mgpch imported, inputs generated and written."""
    _import_mgpch()
    import datagen

    return datagen.inputs(workload, seed, str(workdir))


def _probe_setup(workload, seed, workdir):
    """Time a fresh process from its start to mgpch imported and inputs written."""
    workdir.mkdir(parents=True)
    try:
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"perfbench: set-up probe exited with status {done.returncode}")
        return float(done.stdout.split()[-1]) - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _host_gflops():
    """A fixed numpy Cholesky probe of the host's speed; not program code."""
    import numpy as np

    n, reps = 400, 40
    rng = np.random.default_rng(12345)
    A = rng.standard_normal((n, n))
    A = A @ A.T + n * np.eye(n)
    np.linalg.cholesky(A)  # the first call also pays for BLAS start-up
    start = time.perf_counter()
    for _ in range(reps):
        np.linalg.cholesky(A)
    return reps * n**3 / 3.0 / (time.perf_counter() - start) / 1e9


def _blas_threads():
    """Threads of each loaded OpenBLAS (numpy's and scipy's), where they can be asked."""
    import numpy
    import scipy

    threads = {}
    for package in (numpy, scipy):
        libs = glob.glob(str(Path(package.__file__).parent.parent / f"{package.__name__}.libs" / "*openblas*"))
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    threads[package.__name__] = int(getattr(lib, symbol)())
                    break
    threads["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return threads


def _measure(session, tally, segments, seconds, tracer, probe):
    """Run whole passes over the input panel for about `seconds`.

    A pass runs one round on each of the panel's segments, so every run
    measures the same fits.  Untraced runs time one set-up probe after
    each round, and at least SETUP_PROBES, so that set-up samples spread
    over the run.  When tracing, each segment gets a pair of rounds, one
    untraced and one traced, in alternating order so that neither side
    always takes the first, slower round.
    """
    plain_s, traced_s, setup_s = [], [], []
    passes = []
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        for k in range(segments):
            _round(session, tally, k, tracer, plain_s, traced_s)
            if not tracer:
                setup_s.append(probe())
        passes.append(time.monotonic() - pass_start)
        if time.monotonic() - start + 0.5 * statistics.fmean(passes) >= seconds:
            while not tracer and len(setup_s) < SETUP_PROBES:
                setup_s.append(probe())
            return plain_s, traced_s, setup_s


def _round(session, tally, k, tracer, plain_s, traced_s):
    """One round on segment k; with a tracer, once untraced and once traced."""
    for traced in ((False, True) if k % 2 == 0 else (True, False)) if tracer else (False,):
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = session.run(k, tally)
            (traced_s if traced else plain_s).append(time.perf_counter() - t0)
        finally:
            if traced:
                tracer.uninstall()
        session.check(out, tally)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("uni-vol", "pair-cov", "cli-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        _setup(args.workload, args.seed, args.workdir)
        print(repr(time.monotonic()))
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    (workdir / "inputs").mkdir(parents=True)
    probes = []

    def probe():
        probes.append(workdir / f"probe-{len(probes)}")
        return _probe_setup(args.workload, args.seed, probes[-1])

    try:
        inputs = _setup(args.workload, args.seed, workdir / "inputs")
        import sessions
        import tracer as tracing

        session = sessions.WORKLOADS[args.workload](inputs, str(workdir / "inputs"))

        tally = sessions.Tally()
        tracer = tracing.Tracer() if args.trace else None
        session.warm_up()
        host_before = _host_gflops()
        plain_s, traced_s, setup = _measure(session, tally, len(inputs), args.seconds, tracer, probe)
        host_after = _host_gflops()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    median, mean = statistics.median, statistics.fmean
    if args.trace:
        values = tracer.layer_metrics(len(traced_s))
        values["host.ref_gflops"] = 0.5 * (host_before + host_after)
        # Both lists hold one round per segment, so their means compare the same work.
        values["trace.overhead_s"] = mean(traced_s) - mean(plain_s)
        units = {name: _layer_unit(name) for name in values}
    else:
        # Every run times the same operations on the same panel, so a mean
        # is total time over a fixed amount of work.  It follows the share
        # of the run the host spent in its slow state; a median picks one
        # sample and jumps between the host's fast and slow states, and
        # between unlike samples (a seed-0 draw costs about 1.5 times a
        # seed-1 or seed-2 draw).
        values = {
            "setup_s": median(setup),
            "wall_s": mean(plain_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "refit_s": mean(tally.refit_s),
            "forecast_per_s": len(tally.forecast_s) / sum(tally.forecast_s),
            "load_s": mean(tally.load_s),
            "model_mb": median(tally.model_bytes) / 1e6,
            "simulate_s": mean(tally.simulate_s),
            "free_energy_per_obs": median(tally.free_energy_per_obs),
        }
        units = END_TO_END_UNITS
    failed = sum(tally.failed.values())
    # The only failures expected today are forecasts hit by a known fault
    # in mgpch.predict; any other failed check makes the run incorrect.
    correct = set(tally.failed) <= {"forecast"}

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(plain_s),
        "C": sessions.C,
        "D": session.dims,
        "fits": [{"N": n, "sweeps": s, "free_energy": f} for n, s, f in tally.fits],
        "blas_threads": _blas_threads(),
        "host_ref_gflops": [host_before, host_after],
        "setup_s_samples": setup,
        "session_s": {"untraced": plain_s, "traced": traced_s},
        "samples_s": {
            "refit": tally.refit_s, "load": tally.load_s, "simulate": tally.simulate_s, "forecast": tally.forecast_s,
        },
        "attempted": tally.attempted,
        "failed_by_check": dict(tally.failed),
        "metrics": values,
    }
    with open(OUT / f"record-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if tracer:
        tracer.write(OUT / f"spans-{tag}.json")

    print(f"{tag}: {len(plain_s)} rounds, {tally.attempted} checked operations, {failed} failed {dict(tally.failed)}")
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
