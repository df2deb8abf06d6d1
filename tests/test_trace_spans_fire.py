"""Every span the benchmark tracer (perfbench/spans.py) wraps must fire.

A TARGETS entry pins the module attribute a caller looks a function up
in. If a refactor moves the call elsewhere, the entry still resolves
(tests/test_trace_targets.py) but its span silently stops, and the
per-layer figure read from it drops to zero. This test counts the calls
through every entry while the CLI quantizes, scores and serves a layer
whose plan has 1-bit groups, and while the calls the benchmark makes
itself, through the module attributes, set up and serve a packed layer.
"""

import contextlib
import importlib
import io
import json

from fixtures import clustered_layer
from slimquant import cli, kernel, packfmt, quant_core, tensor_store
from test_trace_targets import load_spans

# Entries no code path calls any more; the modules keep the names only so
# that the entries resolve. Drop an entry here when it is dropped from
# TARGETS, or when a call through it returns.
DEAD = {
    "pipeline.salient_mask_3sigma",
    "pipeline.binarize_block",
    "sba.binarize_block",
}


def count_calls(monkeypatch) -> dict[str, int]:
    """Wrap every TARGETS entry with a counter of its calls."""
    counts = {}
    for where, attr, _layer in load_spans().TARGETS:
        module, _, cls = where.partition(".")
        owner = importlib.import_module(f"slimquant.{module}")
        owner = getattr(owner, cls) if cls else owner
        key = f"{where}.{attr}"
        counts[key] = 0
        monkeypatch.setattr(owner, attr, counter(counts, key, getattr(owner, attr)))
    return counts


def counter(counts, key, fn):
    """fn, adding one to counts[key] per call."""

    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def run_cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([str(a) for a in argv]) == 0


def test_every_trace_target_fires(monkeypatch, tmp_path):
    counts = count_calls(monkeypatch)
    w, x = clustered_layer(0, n=16, m=256, t=512)
    paths = {name: str(tmp_path / f"{name}.slmt") for name in ("w", "x", "probe")}
    for name, values in (("w", w), ("x", x), ("probe", x[:8])):
        tensor_store.write_tensor(paths[name], values)
    model, report = tmp_path / "m.slmq", tmp_path / "m.json"
    run_cli("quantize", "--weights", paths["w"], "--calib", paths["x"], "--out", model,
            "--report", report, "--group-size", 64)
    # 1-bit groups take the pipeline's plain quantize_uniform path
    assert 1 in json.loads(report.read_text())["plan"]["bits"]
    run_cli("eval", "--model", model, "--weights", paths["w"], "--calib", paths["x"])
    for dense in ((), ("--dense",)):
        run_cli("matmul", "--model", model, "--input", paths["probe"],
                "--out", tmp_path / "y.slmt", *dense)

    # the benchmark's own set-up and serve calls
    blocks = [quant_core.quantize_uniform(w[:, g * 64:(g + 1) * 64], b)
              for g, b in enumerate((1, 2, 3, 2))]
    packfmt.write_packed(packfmt.pack(blocks, 16, 256, 64, 2), str(tmp_path / "s.slmq"))
    pm = packfmt.read_packed(str(model))
    for serve in (kernel.packed_matmul, kernel.dense_reference, kernel.matmul_tolerance):
        serve(pm, x[:8])

    silent = {name for name, calls in counts.items() if calls == 0}
    # names here stopped firing, or are listed as dead but fire
    assert sorted(silent ^ DEAD) == []
