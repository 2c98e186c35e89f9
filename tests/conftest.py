"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from resilient_te import oracle


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def fresh_oracle_memo():
    """No test sees an intact MCF that another test built."""
    oracle._memo.clear()
    yield
    oracle._memo.clear()
