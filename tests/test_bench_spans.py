"""The traced benchmark run can bind every span it names in the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def bench_spans():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = bench_spans()


@pytest.mark.parametrize("module_name, attr, name", SPANS, ids=[name for _, _, name in SPANS])
def test_bench_span_resolves_to_a_callable(module_name, attr, name):
    # a dotted attribute is a method looked up on its class, as the tracer does
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        owner, attr = getattr(owner, cls_name), method
        assert attr in vars(owner), f"{name}: {module_name}.{cls_name} defines no {attr}"
    assert callable(getattr(owner, attr, None)), f"{name}: {module_name} has no callable {attr}"
