"""The benchmark's workloads: seeded inputs, one op, and the op's output check.

Every workload is a closed loop with one client in one process: the next
op starts only after the previous one has returned and been checked.  Ops
reach catport only through module attributes (``protocol.run_teleport_ideal``,
``cli.main``), so the traced run's wrappers see every call.

Importing this module imports numpy; a caller that pins the BLAS thread
count must do so first.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from catport import cli, protocol
from catport.reports import RESULT_COLUMNS

#: (alpha, beta, gamma) triples cycled by payload_average
TRIPLES = ((2.0, 3.0, 2.5), (3.0, 3.0, 3.0), (4.5, 4.0, 5.0))

#: sampled trials per CLI op, for the branch counts and for the baseline
CLI_TRIALS = 10_000

#: slack for a fidelity computed in floating point: the exact algebra
#: returns 1 + 9e-16 for a perfect branch
FIDELITY_SLACK = 1e-12


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def uniform_payload(rng) -> tuple[complex, complex]:
    """(c_a, c_b) drawn uniformly on the logical Bloch sphere."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    half = math.acos(z) / 2.0
    return complex(math.cos(half)), math.sin(half) * cmath.exp(1j * phi)


def _check_fidelities(run) -> list[float]:
    fids = [br.branch_fidelity for br in run.branches]
    for f in fids:
        if not -FIDELITY_SLACK <= f <= 1.0 + FIDELITY_SLACK:
            raise CheckFailed(f"branch fidelity {f!r} outside [0, 1]")
    return fids


def _run_record(run, fids) -> bytes:
    values = [br.outcome.probability for br in run.branches] + fids
    values.append(run.inconclusive_rate)
    return ",".join(repr(float(v)) for v in values).encode()


class PayloadAverage:
    """Ideal enumerate runs on random payloads, cycling three fixed triples."""

    name = "payload_average"

    def inputs(self, rng, n, work_dir, tag):
        out = []
        for i in range(n):
            c_a, c_b = uniform_payload(rng)
            out.append((c_a, c_b) + TRIPLES[i % len(TRIPLES)])
        return out

    def op(self, x):
        c_a, c_b, alpha, beta, gamma = x
        return protocol.run_teleport_ideal(
            protocol.TargetState(c_a, c_b, gamma), alpha, beta,
            mode="enumerate")

    def check(self, x, run) -> bytes:
        defect = abs(float(run.probabilities().sum())
                     + run.inconclusive_rate - 1.0)
        if defect > 1e-10:
            raise CheckFailed(f"sum p + inconclusive is off 1 by {defect:.3g}")
        return _run_record(run, _check_fidelities(run))


class HomodyneExact:
    """Exact-collapse homodyne runs at continuous amplitudes in [1, 3]."""

    name = "homodyne_exact"

    def inputs(self, rng, n, work_dir, tag):
        out = []
        for _ in range(n):
            amp = float(rng.uniform(1.0, 3.0))
            c_a, c_b = uniform_payload(rng)
            out.append((c_a, c_b, amp))
        return out

    def op(self, x):
        c_a, c_b, amp = x
        return protocol.run_teleport_homodyne(
            protocol.TargetState(c_a, c_b, amp), amp, amp, collapse="exact")

    def check(self, x, run) -> bytes:
        # the half-line projectors are complete and truncation leaks < 1e-10
        defect = abs(float(run.probabilities().sum()) - 1.0)
        if defect > 1e-8:
            raise CheckFailed(f"sign-pair probabilities sum off 1 by {defect:.3g}")
        return _run_record(run, _check_fidelities(run))


class CliTeleport:
    """In-process ``catport teleport`` on configs written during set-up.

    The path alternates every op and the format every second op, so all
    four (path, format) pairs occur.  Ops of one format share an output
    file: creating a file costs far more than rewriting one on the disk the
    benchmark was defined on, and the check matches the seed inside it.
    """

    name = "cli_teleport"

    def inputs(self, rng, n, work_dir, tag):
        out = []
        for i in range(n):
            amp = float(rng.uniform(3.0, 6.0))
            c_a, c_b = uniform_payload(rng)
            path = ("ideal", "homodyne")[i % 2]
            fmt = ("csv", "json")[(i // 2) % 2]
            cfg = {"alpha": amp, "beta": amp, "gamma": amp,
                   "c_a": [c_a.real, c_a.imag], "c_b": [c_b.real, c_b.imag],
                   "path": path, "mode": "sample", "trials": CLI_TRIALS,
                   "baseline_trials": CLI_TRIALS}
            if path == "homodyne":
                cfg["collapse"] = "branch"
            cfg_path = os.path.join(work_dir, f"{tag}{i}.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            seed = int(rng.integers(0, 2 ** 63))
            out.append((cfg_path, seed, os.path.join(work_dir, f"{tag}.{fmt}"),
                        fmt))
        return out

    def op(self, x):
        cfg_path, seed, out_path, fmt = x
        argv = ["teleport", "--config", cfg_path, "--seed", str(seed),
                "--out", out_path, "--format", fmt]
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def check(self, x, code) -> bytes:
        _, seed, out_path, fmt = x
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        with open(out_path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
        if fmt == "csv":
            lines = text.split("\n")
            if lines[0] != ",".join(RESULT_COLUMNS):
                raise CheckFailed(f"CSV header {lines[0]!r}")
            rows = lines[1:-1]
            if lines[-1] != "" or len(rows) != 5:
                raise CheckFailed(f"CSV has {len(rows)} rows, not 5")
            if any(not row.endswith(f",{seed}") for row in rows):
                raise CheckFailed("CSV rows do not carry this op's seed")
        else:
            doc = json.loads(text)
            if doc["seed"] != seed:
                raise CheckFailed("JSON output does not carry this op's seed")
            if len(doc["branches"]) != 4:
                raise CheckFailed(f"{len(doc['branches'])} branches, not 4")
            guess = doc["baseline"]["guess_rate"]
            sigma = math.sqrt(0.25 * 0.75 / CLI_TRIALS)
            if abs(guess - 0.25) > 5.0 * sigma:
                raise CheckFailed(f"baseline guess rate {guess!r} is not 1/4")
        return data


WORKLOADS = {w.name: w for w in (PayloadAverage(), CliTeleport(),
                                 HomodyneExact())}

#: warm-up ops before timing, on inputs of their own; four covers every
#: triple of payload_average and every (path, format) pair of cli_teleport
WARMUP_OPS = 4


def make_inputs(workload, seed: int, n: int, work_dir) -> tuple[list, list]:
    """(timed inputs, warm-up inputs), both determined by ``seed``."""
    timed_seq, warm_seq = np.random.SeedSequence(seed).spawn(2)
    return (workload.inputs(np.random.default_rng(timed_seq), n, work_dir,
                            "op"),
            workload.inputs(np.random.default_rng(warm_seq), WARMUP_OPS,
                            work_dir, "warm"))


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digest: str = ""


def run_loop(workload, inputs, tracer=None) -> LoopResult:
    """Run and check every op; a failing op is counted, never fatal.

    Only the op call is timed.  The digest covers each op's result record
    (or a failure marker) in op order.
    """
    res = LoopResult()
    digest = hashlib.sha256()
    clock = time.perf_counter
    for i, x in enumerate(inputs):
        res.attempted += 1
        if tracer is not None:
            tracer.begin_op(i)
        t0 = clock()
        try:
            out, error = workload.op(x), None
        except Exception:
            out, error = None, traceback.format_exc(limit=-3)
        dt = clock() - t0
        if tracer is not None:
            tracer.end_op()
        res.busy_s += dt
        if error is None:
            try:
                record = workload.check(x, out)
            except Exception:
                error = traceback.format_exc(limit=-3)
        if error is None:
            res.latencies_s.append(dt)
            digest.update(record)
        else:
            res.failed += 1
            res.failures.append(f"op {i}: {error}")
            digest.update(f"failed {i}".encode())
        digest.update(b"\n")
    res.digest = digest.hexdigest()
    return res
