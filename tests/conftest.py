"""Shared fixtures and settings of the tier-1 suite."""

import threading

import pytest
from hypothesis import Phase, settings

from stefanlab import pde

# every property test runs derandomized, with no deadline and no shrink
# phase: shrinking a failing example re-runs whole sweeps over and over, for
# a minute or more, while the unshrunk example, one of the same derandomized
# ones, reports at once.  Each test sets only its max_examples.
settings.register_profile("stefanlab", derandomize=True, deadline=None,
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("stefanlab")


@pytest.fixture(autouse=True)
def fresh_propagator_slot(monkeypatch):
    # every test starts without a reusable Propagator, so no outcome depends
    # on the tests that ran before it in the same thread
    monkeypatch.setattr(pde, "_last", threading.local())
