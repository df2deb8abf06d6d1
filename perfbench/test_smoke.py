"""Smoke test of the benchmark itself, at tiny shapes.

    python3 -m pytest perfbench

Runs one op of every workload, untraced and traced, and checks the
result line against BENCHMARK.json; then checks that a corrupted input
is counted as a failed op instead of crashing the run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.ensure_program()
import workloads  # noqa: E402

from slimquant import pipeline  # noqa: E402


def _run(capsys, workload: str, trace: int, after_setup=None) -> dict:
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, shapes=workloads.TINY, after_setup=after_setup) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.FULL))
def test_every_metric_prints_with_its_unit(capsys, workload, trace):
    result = _run(capsys, workload, trace)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 1 + trace  # a traced run adds one untraced op
    specs = run.metric_specs(bool(trace))
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, spec["name"]


@pytest.mark.parametrize("workload", ["quantize-wide", "quantize-tall"])
def test_traced_run_accounts_for_the_layer_and_restores_the_program(capsys, workload):
    metrics = _run(capsys, workload, 1)["metrics"]
    assert not hasattr(pipeline.damp_and_invert, "__wrapped__")
    spans = [
        json.loads(line)
        for line in (run.OUT / f"trace-{workload}-seed0.jsonl").read_text().splitlines()
    ]
    (layer,) = [s for s in spans if s["name"] == "pipeline.quantize_layer"]
    children = sorted(
        (s for s in spans if s["parent"] == layer["id"]), key=lambda s: s["start"]
    )
    assert all(a["end"] <= b["start"] for a, b in zip(children, children[1:]))
    child_s = sum(s["end"] - s["start"] for s in children)
    total = metrics["pipeline.quantize_layer_s"]["value"]
    assert child_s + metrics["pipeline.self_s"]["value"] == pytest.approx(total, rel=1e-9)
    assert metrics["sba.evaluations"]["value"] == workloads.TINY[workload].groups // 2 + 1


@pytest.mark.parametrize(
    ("workload", "victim"),
    [("packed-serve", "layer.slmq"), ("quantize-wide", "w.slmt")],
)
def test_corrupted_input_is_a_failed_op(capsys, workload, victim):
    def corrupt(wl):
        path = wl.dir / victim
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])

    result = _run(capsys, workload, 0, after_setup=corrupt)
    assert result["attempted"] == 1
    assert result["failed"] == 1
    assert result["correct"] is False
