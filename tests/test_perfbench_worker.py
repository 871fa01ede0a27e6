"""The benchmark's timed solve still runs and passes its gates.

``perfbench/worker.py`` times ``aderfv.run`` and then gates each solve
through ``RunConfig.weno``, ``error_norms(..., component=, weno_config=)``,
``config.predictor.residual_tol`` and ``system.params["gamma"]``.  A solver
change that drops or renames one of these fails every benchmark solve, so
this test runs the timed path once per workload, as the benchmark does.
"""
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def worker():
    sys.path.insert(0, PERFBENCH)     # worker imports spans and workloads
    try:
        yield importlib.import_module("worker")
    finally:
        sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", ["stiff-o3", "shock-o3"])
def test_timed_solve_passes_its_gates(worker, name):
    record = worker.solve(worker.prepare(worker.WORKLOADS[name], 801))
    assert record["problems"] == []
    assert record["ok"] and record["completed"]
