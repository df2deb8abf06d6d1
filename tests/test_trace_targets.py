"""The benchmark tracer (perfbench/spans.py) wraps functions at the module
attributes their callers look them up in. Every one of those must exist,
or a traced benchmark run fails when it installs its wrappers."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_trace_target_resolves():
    missing = []
    for where, attr, _layer in load_spans().TARGETS:
        module, _, cls = where.partition(".")
        owner = importlib.import_module(f"slimquant.{module}")
        owner = getattr(owner, cls, None) if cls else owner
        if not callable(getattr(owner, attr, None)):
            missing.append(f"slimquant.{where}.{attr}")
    assert missing == []
