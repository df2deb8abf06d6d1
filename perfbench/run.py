"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload quantize-wide --seed 0 --seconds 10 --trace 0

One process, one closed-loop client: set-up writes the seeded inputs
(SETUPS times; setup_s is the median), then ops run back to back until
--seconds have passed, at least one. Every op is checked; an op that
raises or fails a check counts as failed. The last line of standard
output is the JSON result. With --trace 0 it holds the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer ones, and the
spans go to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 5
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def ensure_program() -> None:
    """Import slimquant from this checkout's src/, never from elsewhere."""
    package = SRC / "slimquant"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import slimquant

    if Path(slimquant.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: slimquant was imported from {slimquant.__file__}")


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def _median(values):
    return statistics.median(values) if values else None


def run(workload: str, seed: int, seconds: float, trace: bool, shapes=None, after_setup=None):
    """Set up, run the closed loop, and return (result, fingerprint)."""
    import workloads
    from spans import Tracer

    shapes = shapes or workloads.FULL
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.make(workload, shapes, workdir)
        tracer = Tracer() if trace else None

        setup_s = []
        with _traced(tracer):
            for i in range(SETUPS):
                if tracer:
                    tracer.unit = f"setup-{i}"
                start = time.perf_counter()
                wl.setup(seed)
                setup_s.append(time.perf_counter() - start)
        if after_setup:
            after_setup(wl)

        samples = defaultdict(list)
        attempted = failed = 0
        untraced_op_s = None
        if trace:
            # one untraced op first: the reference for the tracing overhead
            attempted += 1
            if not _attempt(wl, samples):
                failed += 1
            untraced_op_s = _median(samples.pop("op_s", []))
        start = time.perf_counter()
        with _traced(tracer):
            while True:
                if tracer:
                    tracer.unit = f"op-{attempted}"
                attempted += 1
                if not _attempt(wl, samples):
                    failed += 1
                if time.perf_counter() - start >= seconds:
                    break

        if trace:
            metrics = layer_metrics(tracer, wl, samples, untraced_op_s)
            tracer.write_jsonl(OUT / f"trace-{workload}-seed{seed}.jsonl")
        else:
            metrics = {name: _median(v) for name, v in samples.items()}
            metrics["setup_s"] = statistics.median(setup_s)
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = rss_kb / 1024.0
        result = {"attempted": attempted, "failed": failed, "metrics": metrics}
        return result, wl.fingerprint
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(tracer):
    return tracer.install() if tracer else contextlib.nullcontext()


def _attempt(wl, samples) -> bool:
    """Run one op; keep its samples only if it passed."""
    mine = defaultdict(list)
    try:
        wl.op(mine)
    except Exception:
        traceback.print_exc()
        return False
    for name, values in mine.items():
        samples[name].extend(values)
    return True


def layer_metrics(tracer, wl, samples, untraced_op_s) -> dict:
    """Per-layer figures from the spans. A per-op figure is the median
    over the ops that made the call; a call no op makes is measured over
    the set-ups instead. Kernel and codec figures are per call."""
    import workloads

    units = sorted({s.unit for s in tracer.spans})
    totals = {u: tracer.totals(u) for u in units}
    ops = [u for u in units if u.startswith("op-")]
    setups = [u for u in units if u.startswith("setup-")]

    def per_op(name, value):
        where = [u for u in ops if name in totals[u][1]] or [
            u for u in setups if name in totals[u][1]
        ]
        return statistics.median(value(u) for u in where) if where else 0.0

    def seconds(name):
        return per_op(name, lambda u: totals[u][0][name])

    def calls(name):
        return per_op(name, lambda u: totals[u][1][name])

    def self_seconds(name):
        def value(u):
            return sum(
                s.seconds - tracer.covered_by_children(i)
                for i, s in tracer.unit_spans(u)
                if s.name == name
            )

        return per_op(name, value)

    def attr_values(name, key):
        return [s.attrs[key] for s in tracer.spans if s.name == name and key in s.attrs]

    def per_call(name, **match):
        return _median(
            [
                s.seconds
                for s in tracer.spans
                if s.name == name and all(s.attrs.get(k) == v for k, v in match.items())
            ]
        ) or 0.0

    layer_s = seconds("pipeline.quantize_layer")

    def share(name):
        return seconds(name) / layer_s if layer_s else 0.0

    evaluations = attr_values("sba.allocate_bits", "evaluations")
    gammas = attr_values("sqc.calibrate_group", "gamma")
    peaks = attr_values("packfmt.from_bytes", "peak_bytes")
    m = {
        "salience.accumulate_hessian_s": seconds("salience.accumulate_hessian"),
        "salience.damp_and_invert_s": seconds("salience.damp_and_invert"),
        "salience.damp_and_invert_share": share("salience.damp_and_invert"),
        "salience.salience_map_s": seconds("salience.salience_map"),
        "sba.allocate_bits_s": seconds("sba.allocate_bits"),
        "sba.allocate_bits_share": share("sba.allocate_bits"),
        "sba.evaluations": sum(evaluations) / len(evaluations) if evaluations else 0.0,
        "sba.output_kl_s": seconds("sba.output_kl"),
        "sqc.calibrate_group_s": seconds("sqc.calibrate_group"),
        "sqc.calibrate_group_share": share("sqc.calibrate_group"),
        "sqc.calibrate_group_calls": calls("sqc.calibrate_group"),
        "sqc.gamma_unity_share": (
            sum(g == 1.0 for g in gammas) / len(gammas) if gammas else 0.0
        ),
        "quant_core.quantize_uniform_s": seconds("quant_core.quantize_uniform"),
        "quant_core.quantize_uniform_calls": calls("quant_core.quantize_uniform"),
        "quant_core.dequantize_calls": calls("quant_core.dequantize"),
        "pipeline.quantize_layer_s": layer_s,
        "pipeline.self_s": self_seconds("pipeline.quantize_layer"),
        "pipeline.proxy_loss_s": seconds("pipeline.proxy_loss"),
        "packfmt.decode_s": per_call("packfmt.from_bytes"),
        "packfmt.decode_peak_mb": max(peaks) / 2**20 if peaks else 0.0,
        "packfmt.encode_s": per_call("packfmt.to_bytes"),
        "packfmt.read_packed_s": per_call("packfmt.read_packed"),
        "packfmt.write_packed_s": per_call("packfmt.write_packed"),
        "packfmt.group_block_calls": calls("packfmt.group_block"),
        "packfmt.pack_s": seconds("packfmt.pack"),
        "packfmt.packed_size_report_s": seconds("packfmt.packed_size_report"),
        "tensor_store.read_s": seconds("tensor_store.read_tensor"),
        "tensor_store.write_s": seconds("tensor_store.write_tensor"),
        "cli.self_s": self_seconds("cli.main"),
    }
    m["sba.s_per_evaluation"] = (
        m["sba.allocate_bits_s"] / m["sba.evaluations"] if m["sba.evaluations"] else 0.0
    )

    s = wl.shape
    packed_bytes = _median(samples["slmq_bytes"]) or 0
    for t in workloads.TOKENS:
        packed = per_call("kernel.packed_matmul", tokens=t)
        dense = per_call("kernel.dense_reference", tokens=t)
        io_bytes = 4 * t * (s.rows + s.cols)
        m[f"kernel.packed_matmul_{t}tok_s"] = packed
        m[f"kernel.dense_reference_{t}tok_s"] = dense
        m[f"kernel.packed_over_dense_{t}tok"] = packed / dense if dense else 0.0
        m[f"kernel.flops_{t}tok_computed"] = 2 * t * s.rows * s.cols
        m[f"kernel.packed_bytes_{t}tok_computed"] = packed_bytes + io_bytes
        m[f"kernel.dense_bytes_{t}tok_computed"] = 4 * s.rows * s.cols + io_bytes

    traced_op_s = _median(samples["op_s"])
    m["trace.overhead_s"] = (
        traced_op_s - untraced_op_s if None not in (traced_op_s, untraced_op_s) else 0.0
    )
    m["trace.spans_per_op"] = _median(
        [sum(1 for _ in tracer.unit_spans(u)) for u in ops]
    ) or 0
    return m


def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None, shapes=None, after_setup=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ensure_program()
    import workloads

    if args.workload not in workloads.FULL:
        parser.error(f"unknown workload {args.workload!r}, choose from {sorted(workloads.FULL)}")
    specs = metric_specs(bool(args.trace))
    print("machine " + json.dumps(machine_facts()))
    result, fingerprint = run(
        args.workload, args.seed, args.seconds, bool(args.trace), shapes, after_setup
    )
    print("fingerprint " + json.dumps(fingerprint))
    values = result.pop("metrics")
    names = {s["name"] for s in specs}
    if not args.trace:
        # the serve timings behind op_s, shown but not gated
        print("medians " + json.dumps({k: v for k, v in values.items() if k not in names}))
    result["metrics"] = {
        s["name"]: {"value": values.get(s["name"]), "unit": s["unit"]} for s in specs
    }
    result["correct"] = result["failed"] == 0 and all(
        v["value"] is not None for v in result["metrics"].values()
    )
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
