"""Every benchmark workload runs clean on the current catport.

perfbench/run.py rejects a run whose ops fail their output checks; this
runs each workload's warm-up and a few timed inputs through the same
loop, so a change that breaks a workload fails here first.  The module
is loaded by path, as perfbench/worker.py imports it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules while exec runs
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("name", sorted(_load().WORKLOADS))
def test_workload_ops_pass_their_checks(name, tmp_path):
    workloads = _load()
    wl = workloads.WORKLOADS[name]
    timed, warm = workloads.make_inputs(wl, 0, 8, str(tmp_path))
    for inputs in (warm, timed):
        res = workloads.run_loop(wl, inputs)
        assert res.attempted == len(inputs)
        assert res.failed == 0, res.failures[:1]
