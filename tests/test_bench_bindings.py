"""The names the benchmark binds in stefanlab still exist, and every
workload passes its own checks.

`bench/workloads.py` imports stefanlab by name, `bench/tracing.py` wraps
the functions its TARGETS list, and the `hum` workload reads a HUMConfig
field.  A change that deletes one of them, or changes an output that a
workload's check reads, breaks the benchmark; these checks fail at once
instead, without a benchmark run.
"""

import sys
from pathlib import Path

import pytest

from stefanlab.control import HUMConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tracer_resolves_every_target_without_installing():
    # the constructor looks every target up and wraps it; only install()
    # binds the wrappers
    tracing.Tracer()
    assert len(tracing.TARGETS) == 20


def test_hum_workload_reads_the_prox_cap():
    assert isinstance(HUMConfig().prox_max_iter, int)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_of_each_workload_passes_its_checks(name, tmp_path):
    # one untimed round as bench/run.py runs it, without finish(), whose
    # refinement estimates take seconds
    workload = workloads.WORKLOADS[name](7, str(tmp_path))
    workload.warm_up()
    outputs = {}
    for op, fn in workload.ops():
        outputs[op] = fn(outputs)
    units = workload.check(outputs, {}, {})
    assert units
    assert {unit: messages for unit, messages in units.items() if messages} == {}
