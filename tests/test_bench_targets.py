"""The benchmark's span tracer wraps program names from outside; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import cantoract as ca

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target, attr, span", _spans().WRAPPERS)
def test_every_traced_name_resolves(target, attr, span):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attr))


def test_chains_keep_the_traced_provider():
    assert callable(ca.odometer(2)._provider)
