import os

import pytest

import grouptensor
from grouptensor import Squares, group_from_spec

# subprocess tests run ``python -m grouptensor``: children import the same
# source tree as this process, with or without PYTHONPATH set by the caller
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(grouptensor.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (_SRC, os.environ.get("PYTHONPATH")) if part
)


@pytest.fixture(scope="session")
def groups():
    """Groups by spec string, built once per session."""
    cache = {}

    def get(spec: str):
        if spec not in cache:
            cache[spec] = group_from_spec(spec)
        return cache[spec]

    return get


@pytest.fixture(scope="session")
def tensors(groups):
    """Tensor squares by spec string, from one session for the test run."""
    squares = Squares()

    def get(spec: str):
        return squares(groups(spec))

    return get
