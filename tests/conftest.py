"""Shared fixtures of the tier-1 suite."""

import threading

import pytest

from stefanlab import pde


@pytest.fixture(autouse=True)
def fresh_propagator_slot(monkeypatch):
    # every test starts without a reusable Propagator, so no outcome depends
    # on the tests that ran before it in the same thread
    monkeypatch.setattr(pde, "_last", threading.local())
