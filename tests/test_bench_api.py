"""The benchmark's workloads still run on the package as it is.

``perfbench/workloads.py`` calls catamp's public API by name and gates
every op on a closed form or a recorded value. These tests run a short
stream of each workload through its own ``execute``, ``check`` and
``finish``, so a package change that breaks what the benchmark calls
fails here, not only in a benchmark run. The tests only read
``perfbench/``.
"""

import importlib.util
from itertools import islice
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 1


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _errors(workload, specs):
    """Every gate message of ``specs`` run through ``workload``, then its finish."""
    errors = []
    for spec in specs:
        error = workload.check(spec, workload.execute(spec))
        if error is not None:
            errors.append(error)
    return errors + workload.finish()


def test_deep_schedule_first_pass(workloads):
    workload = workloads.DeepSchedule(SEED)
    specs = []
    for spec, boundary in workload.specs():
        specs.append(spec)
        if boundary:
            break
    assert len(specs) == workload.pass_ops == 56
    assert {kind for kind, *_ in specs} == {"squeezed-photon", "mixed-photon"}
    assert _errors(workload, specs) == []


def test_pure_sweep_pool(workloads):
    workload = workloads.PureSweep(SEED)
    assert len(workload.pool) == workload.pool_size == 96
    assert _errors(workload, workload.pool) == []


def test_analytic_sweep_ops(workloads):
    # each op prepares every source kind
    workload = workloads.AnalyticSweep(SEED)
    specs = [spec for spec, _ in islice(workload.specs(), 20)]
    assert _errors(workload, specs) == []
