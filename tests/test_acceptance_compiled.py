"""The acceptance gate and the selftest of test_acceptance.py, run a second
time on the compiled twin that conftest builds from the shipped source."""

import pytest

from test_acceptance import *  # noqa: F403 -- the same tests, collected again here
from vedarith import backend, selftest


@pytest.fixture(scope="module", autouse=True)
def _on_compiled(compiled):
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(backend._BACKENDS, "compiled", compiled)
        with backend.use("compiled"):
            yield


@pytest.fixture(scope="module")
def division_small_suite(_on_compiled):
    """The exhaustive three-way division sweep on the compiled twin."""
    return selftest.division_agreement_small()
