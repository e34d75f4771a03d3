"""The catport benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; catport is imported from the
checkout's ``src/``.  Every run does a fixed number of ops, set by the
workload and --seconds (not by how fast the program is), and checks each
op's output.  It starts fresh interpreters one after another:

- with --trace 0, set-up probes, which only set up (imports, inputs,
  warm-up) and with the measured process give the median ``setup_s``; then
  the measured process, untraced, which gives every end-to-end metric;
- with --trace 1, an untraced and then a traced process on a quarter of
  the ops; the traced one gives the per-layer metrics.

Prints a readable report, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  Exits non-zero, without that line, if a process fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (pure Python: no numpy, no catport)

#: set-up-only processes per untraced run; with the measured process, the
#: median of this many + 1 set-ups is setup_s
SETUP_PROBES = 4
#: a worker still running after this long is killed and the run fails
PROCESS_TIMEOUT_S = 150
#: ops per second of --seconds.  On the machine the benchmark was defined
#: on, a run measured about 1, 1.25 and 1.6 times --seconds: the workloads
#: whose timings drifted more there measure longer (see README.md)
RATES = {"payload_average": 170, "cli_teleport": 80, "homodyne_exact": 170}
#: a traced run traces this share of the ops, after an untraced pass over
#: the same ops that gives trace.overhead_fraction its base
TRACE_SHARE = 0.25


class RunFailed(Exception):
    pass


def _spawn(workload, seed, ops, work_dir, extra=()) -> tuple[dict, float]:
    """Run one worker to completion; return its JSON and its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--ops", str(ops), "--work-dir", str(work_dir),
           *extra]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc, doc["setup_end"] - t_spawn


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _untraced(workload, seed, ops, work):
    setups, warm_failed = [], 0
    for _ in range(SETUP_PROBES):
        doc, setup_s = _spawn(workload, seed, ops, work, ["--probe"])
        setups.append(setup_s)
        warm_failed += doc["warmup_failed"]
    main, setup_s = _spawn(workload, seed, ops, work)
    setups.append(setup_s)
    main["warmup_failed"] += warm_failed
    main["setups"] = len(setups)
    return main, {
        "ops_per_s": _metric(main["ops_per_s"], "1/s"),
        "latency_p50_ms": _metric(main["latency_p50_ms"], "ms"),
        "latency_p90_ms": _metric(main["latency_p90_ms"], "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(main["peak_rss_mb"], "MB"),
    }


def _traced(workload, seed, ops, work):
    base, _ = _spawn(workload, seed, ops, work)
    spans_path = work / "spans.bin"
    traced, _ = _spawn(workload, seed, ops, work, ["--spans", str(spans_path)])
    metrics = {name: _metric(value, unit) for name, (value, unit) in
               tracing.layer_metrics(
                   tracing.Spans.read(spans_path), traced["attempted"],
                   traced["counters"], traced["caches_before"],
                   traced["caches_after"]).items()}
    metrics["cli.import_s"] = _metric(
        statistics.median([base["import_s"], traced["import_s"]]), "s")
    metrics["trace.overhead_fraction"] = _metric(
        1.0 - traced["ops_per_s"] / base["ops_per_s"], "ratio")
    base["attempted"] += traced["attempted"]
    base["failed"] += traced["failed"]
    base["warmup_failed"] += traced["warmup_failed"]
    base["failures"] += traced["failures"]
    return base, metrics


def run(workload: str, seed: int, seconds: int, trace: bool,
        spec: dict) -> dict:
    ops = max(1, round(RATES[workload] * seconds))
    if trace:
        ops = max(1, round(ops * TRACE_SHARE))
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                 dir=ROOT / ".perfbench_work"))
    try:
        main, metrics = (_traced if trace else _untraced)(workload, seed, ops,
                                                         work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _report(workload, seed, ops, main, metrics)
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RunFailed(f"metrics not measured: {', '.join(missing)}")
    return {"correct": main["failed"] == 0 and main["warmup_failed"] == 0,
            "attempted": main["attempted"], "failed": main["failed"],
            "metrics": {name: metrics[name] for name in wanted}}


def _report(workload, seed, ops, main, metrics):
    facts = main["machine"]
    print("machine  " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {workload}  seed {seed}  ops {ops} per process  "
          f"closed loop, 1 client")
    for name, m in sorted(metrics.items()):
        note = ""
        if name.startswith("latency"):
            note = f"  ({main['samples']} samples)"
        elif name == "setup_s":
            note = f"  (median of {main['setups']} set-ups)"
        print(f"  {name:<58} {m['value']:.6g} {m['unit']}{note}")
    failed, attempted = main["failed"], main["attempted"]
    print(f"  {'failed_fraction':<58} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} ops; {main['warmup_failed']} warm-up "
          f"ops failed)")
    for line in main["failures"]:
        print(f"  failure: {line.strip()}", file=sys.stderr)
    print(f"  result sha256 {main['digest']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "catport" / "__init__.py").is_file():
        print(f"no catport sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), spec)
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
