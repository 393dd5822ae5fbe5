"""The names the benchmark binds in stefanlab still exist.

`bench/workloads.py` imports stefanlab by name, `bench/tracing.py` wraps
the functions its TARGETS list, and the `hum` workload reads a HUMConfig
field.  A change that deletes one of them breaks the benchmark; these
checks fail at once instead, without a benchmark run.
"""

import sys
from pathlib import Path

from stefanlab.control import HUMConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402,F401


def test_tracer_resolves_every_target_without_installing():
    # the constructor looks every target up and wraps it; only install()
    # binds the wrappers
    tracing.Tracer()
    assert len(tracing.TARGETS) == 20


def test_hum_workload_reads_the_prox_cap():
    assert isinstance(HUMConfig().prox_max_iter, int)
