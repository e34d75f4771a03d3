"""The benchmark's own tests: inputs, output checks, failure counting, spans.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the package's test suite: they check the
benchmark, not catport.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from catport import algebra, bell, protocol  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _inputs(name, seed, n, work_dir):
    work_dir.mkdir(exist_ok=True)
    timed, warm = workloads.make_inputs(workloads.WORKLOADS[name], seed, n,
                                        str(work_dir))
    # the CLI workload's inputs are config files: compare what they hold
    files = [Path(x[0]).read_text() for x in timed + warm
             if isinstance(x[0], str)]
    return timed, warm, files


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name, tmp_path):
    first = _inputs(name, 7, 6, tmp_path / "a")
    again = _inputs(name, 7, 6, tmp_path / "a")
    other = _inputs(name, 8, 6, tmp_path / "a")
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_clean(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    timed, _, _ = _inputs(name, 3, 4, tmp_path)
    res = workloads.run_loop(wl, timed)
    assert (res.attempted, res.failed, len(res.latencies_s)) == (4, 0, 4)
    assert workloads.run_loop(wl, timed).digest == res.digest


def _wrong_output(name, out):
    """A deliberately wrong output of one op of each workload."""
    if name == "cli_teleport":
        return 1  # exit code of a failed check
    if name == "payload_average":
        return dataclasses.replace(out, inconclusive_rate=0.5)
    branch = out.branches[0]
    bad = dataclasses.replace(branch, branch_fidelity=1.5)
    return dataclasses.replace(out, branches=(bad,) + out.branches[1:])


@pytest.mark.parametrize("name", NAMES)
def test_wrong_output_counts_as_failed(name, tmp_path):
    real = workloads.WORKLOADS[name]

    class Faulty:
        def op(self, x):
            if x is timed[1]:
                raise RuntimeError("op raised")
            out = real.op(x)
            return _wrong_output(name, out) if x is timed[2] else out

        check = real.check

    timed, _, _ = _inputs(name, 5, 4, tmp_path)
    res = workloads.run_loop(Faulty(), timed)
    assert (res.attempted, res.failed, len(res.latencies_s)) == (4, 2, 2)
    assert "op 1:" in res.failures[0] and "op raised" in res.failures[0]
    assert "op 2:" in res.failures[1]


@pytest.mark.parametrize("name", NAMES)
def test_traced_self_times_fit_in_op(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    timed, _, _ = _inputs(name, 11, 3, tmp_path)
    untraced = workloads.run_loop(wl, timed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # one wrapper at every binding, so calls from any layer are seen
        assert protocol.overlap is bell.overlap is algebra.overlap
        assert algebra.overlap.__wrapped__ is not None
        traced = workloads.run_loop(wl, timed, tracer)
    finally:
        tracer.uninstall()
    assert not hasattr(algebra.overlap, "__wrapped__")
    assert traced.digest == untraced.digest
    tracer.spans.write(tmp_path / "spans.bin")
    spans = tracing.Spans.read(tmp_path / "spans.bin")
    assert spans.names == tracer.spans.names and spans.end == tracer.spans.end
    own = spans.self_times()
    for op in range(3):
        mine = [i for i in range(len(spans)) if spans.op[i] == op]
        (root,) = [i for i in mine if spans.name_id[i] == 0]  # OP_SPAN
        layer_self = sum(own[i] for i in mine if i != root)
        assert 0 < layer_self <= spans.end[root] - spans.start[root]
        assert all(own[i] >= 0 for i in mine)

    m = tracing.layer_metrics(spans, 3, tracer.counters, {}, {})
    fock_calls = sum(v for k, (v, _) in m.items()
                     if k.startswith("fock.") and k.endswith("calls_per_op"))
    cli_calls = sum(v for k, (v, _) in m.items()
                    if k.startswith(("cli.", "reports."))
                    and k.endswith("calls_per_op"))
    assert (fock_calls > 0) == (name == "homodyne_exact")
    assert (cli_calls > 0) == (name == "cli_teleport")


def test_fails_without_the_program(tmp_path):
    """A directory with only the benchmark exits non-zero, printing no result."""
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
