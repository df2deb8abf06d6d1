"""In-memory spans around the program's public functions.

Tracer.install() replaces each function in TARGETS with a recording
wrapper at the module attribute its callers look the name up in, and puts
the originals back when the block ends. pipeline.py does
`from .salience import damp_and_invert`, so that wrapper goes on
slimquant.pipeline, not on slimquant.salience. Nothing in the program
changes; spans stay in a list until write_jsonl() at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
import tracemalloc
from dataclasses import dataclass, field

# (where the caller looks the name up, attribute, layer the function belongs to)
TARGETS = [
    ("cli", "main", "cli"),
    ("cli", "read_tensor", "tensor_store"),
    ("cli", "load_calibration", "tensor_store"),
    ("cli", "quantize_layer", "pipeline"),
    ("cli", "pack", "packfmt"),
    ("cli", "packed_size_report", "packfmt"),
    ("tensor_store", "read_tensor", "tensor_store"),
    ("tensor_store", "write_tensor", "tensor_store"),
    ("pipeline", "accumulate_hessian", "salience"),
    ("pipeline", "damp_and_invert", "salience"),
    ("pipeline", "salience_map", "salience"),
    ("pipeline", "salient_mask_3sigma", "salience"),
    ("pipeline", "allocate_bits", "sba"),
    ("pipeline", "output_kl", "sba"),
    ("pipeline", "stride_subsample", "sba"),
    ("pipeline", "calibrate_group", "sqc"),
    ("pipeline", "quantize_uniform", "quant_core"),
    ("pipeline", "binarize_block", "quant_core"),
    ("pipeline", "dequantize", "quant_core"),
    ("pipeline", "block_mse", "quant_core"),
    ("pipeline", "reconstruct", "pipeline"),
    ("pipeline", "proxy_loss", "pipeline"),
    ("sba", "quantize_uniform", "quant_core"),
    ("sba", "binarize_block", "quant_core"),
    ("sba", "dequantize", "quant_core"),
    ("sqc", "quantize_uniform", "quant_core"),
    ("sqc", "dequantize", "quant_core"),
    ("sqc", "params_from_range", "quant_core"),
    ("quant_core", "quantize_uniform", "quant_core"),
    ("packfmt", "pack", "packfmt"),
    ("packfmt", "read_packed", "packfmt"),
    ("packfmt", "write_packed", "packfmt"),
    ("packfmt", "from_bytes", "packfmt"),
    ("packfmt.PackedModel", "to_bytes", "packfmt"),
    ("packfmt.PackedModel", "group_block", "packfmt"),
    ("kernel", "packed_matmul", "kernel"),
    ("kernel", "dense_reference", "kernel"),
    ("kernel", "matmul_tolerance", "kernel"),
    ("kernel", "dequantize", "quant_core"),
]


def _tokens(args, kwargs, result):
    return {"tokens": int(args[1].shape[0])}


# Counts read off a call's arguments or result, at the boundary where the
# work happens.
ATTRS = {
    "sba.allocate_bits": lambda a, kw, r: {"evaluations": int(r.evaluations)},
    "sqc.calibrate_group": lambda a, kw, r: {"gamma": float(r[1])},
    "kernel.packed_matmul": _tokens,
    "kernel.dense_reference": _tokens,
}

# Functions whose peak traced allocation is recorded; tracemalloc runs
# only for the duration of these calls.
PEAK_MEMORY = {"packfmt.from_bytes"}


@dataclass
class Span:
    name: str
    unit: str  # the set-up or op this span belongs to
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def install(self):
        """Wrap every target; restore the originals on exit."""
        saved = []
        try:
            for where, attr, layer in TARGETS:
                owner = _resolve(where)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, f"{layer}.{attr}"))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        attrs_of = ATTRS.get(name)
        peak = name in PEAK_MEMORY

        def traced(*args, **kwargs):
            span = Span(name, self.unit, stack[-1] if stack else None, 0.0)
            stack.append(len(spans))
            spans.append(span)
            if peak:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if peak:
                    span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if attrs_of is not None:
                span.attrs.update(attrs_of(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def unit_spans(self, unit: str) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.unit == unit]

    def totals(self, unit: str) -> tuple[dict, dict]:
        """Seconds and call counts per span name within one unit. A call
        nested inside a call of the same name counts once, in the outer."""
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, s in self.unit_spans(unit):
            calls[s.name] = calls.get(s.name, 0) + 1
            if not self._inside_same_name(i):
                seconds[s.name] = seconds.get(s.name, 0.0) + s.seconds
        return seconds, calls

    def covered_by_children(self, index: int) -> float:
        """The part of one span's interval that its direct children cover;
        overlapping children (threads) are counted once."""
        covered, reach = 0.0, float("-inf")
        children = sorted((s.start, s.end) for s in self.spans if s.parent == index)
        for start, end in children:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return covered

    def _inside_same_name(self, index: int) -> bool:
        name = self.spans[index].name
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i,
                    "name": s.name,
                    "unit": s.unit,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    **s.attrs,
                }
                fh.write(json.dumps(row) + "\n")


def _resolve(where: str):
    module, _, cls = where.partition(".")
    owner = importlib.import_module(f"slimquant.{module}")
    return getattr(owner, cls) if cls else owner
