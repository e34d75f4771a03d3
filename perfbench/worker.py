"""One benchmark process: set up a workload in a fresh interpreter, then run it.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload NAME --seed N --ops N \
        --work-dir DIR [--probe] [--spans PATH]

Set-up is: import numpy, import catport from this checkout's ``src/``,
generate every input from the seed, and run a few warm-up ops on inputs of
their own.  With --probe the process stops there; otherwise it runs the
timed loop, traced when --spans is given.  Prints one JSON object.
"""

import os

# One BLAS thread, fixed before numpy is imported.  Unpinned OpenBLAS
# runs on a 2-core machine were bimodal (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(np), "nproc": os.cpu_count(),
            "cpu": _cpu_model()}


def _quantile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ops", type=int, required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--spans")
    args = p.parse_args(argv)

    import numpy as np
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import catport
    import_s = time.perf_counter() - t0
    if not Path(catport.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"catport came from {catport.__file__}, "
                         f"not from {ROOT / 'src'}")
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs, warm_inputs = workloads.make_inputs(wl, args.seed, args.ops,
                                                args.work_dir)
    warm = workloads.run_loop(wl, warm_inputs)
    setup_end = time.monotonic()
    out = {"import_s": import_s, "setup_end": setup_end,
           "warmup_failed": warm.failed, "failures": warm.failures[:3]}
    if args.probe:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        out["caches_before"] = tracer.cache_info()
    res = workloads.run_loop(wl, inputs, tracer)
    if tracer is not None:
        tracer.uninstall()
        out["caches_after"] = tracer.cache_info()
        out["counters"] = tracer.counters
        tracer.spans.write(args.spans)
    lat_ms = [t * 1e3 for t in res.latencies_s]
    out.update({
        "attempted": res.attempted, "failed": res.failed,
        "failures": out["failures"] + res.failures[:3],
        "ops_per_s": (res.attempted - res.failed) / res.busy_s,
        "latency_p50_ms": _quantile(lat_ms, 5),
        "latency_p90_ms": _quantile(lat_ms, 9),
        "samples": len(lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": res.digest,
        "machine": machine_facts(np),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
