"""One cold bscbounds process: import the CLI, run main(argv) calls, report.

Usage: ``python3 worker.py SPEC`` where SPEC is a JSON object with
``mode`` ("run" or "micro"), and for "run" the ``calls`` (argv lists) and
``trace`` (bool).  The last line of standard output is one JSON object.

The import of ``bscbounds.cli`` comes first (after the host-speed sampler,
which imports nothing heavy), so the monotonic timestamp taken right after it
marks the end of the set-up a CLI user pays on every call.
"""

import time

import calibrate

SAMPLER = calibrate.Sampler()
SAMPLER.start()

import bscbounds.cli as cli  # noqa: E402

IMPORTED_AT = time.monotonic()
SAMPLER.use_numpy()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracer  # noqa: E402


def run(calls: list, trace: bool) -> dict:
    caches_entry = tracer.cache_state()
    cold = all(info["hits"] == info["misses"] == info["currsize"] == 0
               for info in caches_entry.values())
    tr = tracer.Tracer() if trace else None
    if tr is not None:
        tr.install()
    results = []
    started = time.monotonic()
    for argv in calls:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - t0
        results.append({"argv": argv, "exit": code, "wall_s": wall,
                        "stdout": buf.getvalue()})
    SAMPLER.stop()
    rec = {"imported_at": IMPORTED_AT, "cold": cold,
           "setup_slowdown": SAMPLER.slowdown("pure", 0.0, IMPORTED_AT),
           "wall_slowdown": SAMPLER.slowdown("mixed", started,
                                             time.monotonic()),
           "caches_entry": caches_entry, "caches_exit": tracer.cache_state(),
           "calls": results,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "versions": _versions()}
    if tr is not None:
        rec["trace"] = tr.summary()
    return rec


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "bscbounds": cli.__file__}


def _per_call(fn, args_list: list, batches: int = 5) -> tuple:
    """Median over batches of the mean seconds per call over args_list:
    (scaled to the host's fast state like the end-to-end times, raw)."""
    scaled, raw = [], []
    for _ in range(batches):
        start = time.monotonic()
        t0 = time.perf_counter()
        for args in args_list:
            fn(*args)
        raw.append((time.perf_counter() - t0) / len(args_list))
        scaled.append(raw[-1] / SAMPLER.slowdown("mixed", start,
                                                 time.monotonic()))
    return statistics.median(scaled), statistics.median(raw)


def micro() -> dict:
    """Public-call microbenchmarks of the layers the curve spends its time in.

    Fixed point: p = 0.1, R = 0.2, alpha halfway along the constraint
    interval [h2^-1(1 - R), 1/2], omega over the middle of the slice's band.
    """
    from bscbounds.core import ChannelParam, binary_entropy_inv
    from bscbounds.optimizer import F1_maximize, F_minimize
    from bscbounds.spectrum import MuSlice

    ch, rate = ChannelParam(0.1), 0.2
    alpha = 0.5 * (binary_entropy_inv(1.0 - rate) + 0.5)
    sl = MuSlice(rate, alpha)
    omegas = [(sl.cap * (0.3 + 0.4 * k / 99),) for k in range(100)]
    # F_minimize caches per rate: a fresh rate per call keeps every call cold
    fresh = iter(range(1, 10 ** 6))
    # batches of about 50 ms, so the sampler fires a few times in each
    runs = {
        "binary_entropy_inv_us": (1e6, binary_entropy_inv,
                                  [(0.05 + 0.9 * k / 99,) for k in range(100)]
                                  * 8),
        "MuSlice_build_us": (1e6, MuSlice, [(rate, alpha)] * 400),
        "MuSlice_mu_us": (1e6, sl.mu, omegas * 15),
        "F1_maximize_ms": (1e3, lambda: F1_maximize(rate, alpha, ch, tol=1e-6),
                           [()] * 40),
        "F_minimize_ms": (1e3, lambda: F_minimize(
            rate * (1.0 + 1e-9 * next(fresh)), ch), [()]),
    }
    out = {"scaled": {}, "raw": {}}
    for name, (unit, fn, args_list) in runs.items():
        scaled, raw = _per_call(fn, args_list)
        out["scaled"][name] = unit * scaled
        out["raw"][name] = unit * raw
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "micro":
        rec = {"imported_at": IMPORTED_AT, "micro": micro()}
        SAMPLER.stop()
    else:
        rec = run(spec["calls"], spec["trace"])
    sys.stdout.write(json.dumps(rec) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
