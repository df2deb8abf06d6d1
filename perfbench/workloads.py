"""The benchmark's workloads: seeded set-up, one op, and the op's checks.

Set-up writes the inputs as .slmt/.slmq files; an op hands the program
those files (the CLI) or what it read from them (the kernel). The harness
calls every program function through its module attribute, so that a
traced run sees the call.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from slimquant import cli, kernel, packfmt, quant_core, tensor_store

# Token counts the kernel is timed at: 1 and 8 are overhead-bound,
# 256 is compute-bound.
TOKENS = (1, 8, 256)
MATMUL_CALLS = 5  # timed packed_matmul calls per token count per serve

# Layer structure, the same for every seed; the seed draws only the
# values. Boosted channel clusters make some groups far more salient
# (they get promoted) and quiet groups far less (they get demoted), so the
# width search finds the same non-uniform plan at every seed. Left to the
# noise, which groups drop to 1 bit would change with the seed, and with
# it, through the left-to-right error compensation, the quality metrics.
ACTIVATION_BOOST = 8.0
WEIGHT_BOOST = 3.0
QUIET_WEIGHT = 0.5

# packed-serve's fixed plan: every width 1..4, averaging exactly 2 bits.
SERVE_PLAN = (1, 2, 3, 4, 2, 1, 2, 1)


@dataclass(frozen=True)
class Shape:
    rows: int
    cols: int
    tokens: int  # calibration tokens; unused by packed-serve
    bits: int
    beta: int = 128
    clusters: int = 0

    @property
    def groups(self) -> int:
        return self.cols // self.beta


FULL = {
    "quantize-wide": Shape(1024, 4096, 2048, 2, clusters=4),
    "quantize-tall": Shape(4096, 1024, 2048, 3, clusters=3),
    "packed-serve": Shape(1024, 4096, 0, 2),
}

# The same workloads at a size that runs in a second, for the smoke test.
TINY = {
    "quantize-wide": Shape(64, 256, 256, 2, beta=32, clusters=2),
    "quantize-tall": Shape(256, 64, 256, 3, beta=16, clusters=1),
    "packed-serve": Shape(64, 256, 0, 2, beta=32),
}


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    def __init__(self, shape: Shape, workdir: Path) -> None:
        self.shape = shape
        self.dir = workdir
        self.copy_path = workdir / "roundtrip.slmq"
        self.x_path = workdir / "serve_x.slmt"
        self.fingerprint: dict | None = None

    def _write_serve_x(self, rng: np.random.Generator) -> None:
        x = rng.standard_normal((max(TOKENS), self.shape.cols), dtype=np.float32)
        tensor_store.write_tensor(str(self.x_path), x)
        self.x = tensor_store.read_tensor(str(self.x_path))

    def serve(self, path: Path, blob: bytes, samples: dict) -> tuple[np.ndarray, float]:
        """Read, multiply at every token count, write back. Checks the
        kernel against the dense oracle and the rewrite against the file.
        Returns the output at the largest token count and the seconds the
        timed calls took, the checks left out."""
        start = time.perf_counter()
        pm = packfmt.read_packed(str(path))
        samples["load_ms"].append(_ms_since(start))
        for t in TOKENS:
            x = self.x[:t]
            for _ in range(MATMUL_CALLS):
                start = time.perf_counter()
                y = kernel.packed_matmul(pm, x)
                samples[f"matmul_{t}tok_ms"].append(_ms_since(start))
            err = float(np.abs(y - kernel.dense_reference(pm, x)).max())
            tol = kernel.matmul_tolerance(pm, x)
            if not err <= tol:
                raise CheckFailed(f"{t}-token packed_matmul off by {err}, tolerance {tol}")
        start = time.perf_counter()
        packfmt.write_packed(pm, str(self.copy_path))
        samples["save_ms"].append(_ms_since(start))
        if self.copy_path.read_bytes() != blob:
            raise CheckFailed("write_packed after read_packed changed the bytes")
        timed_ms = sum(samples[name][-1] for name in ("load_ms", "save_ms"))
        timed_ms += sum(sum(samples[f"matmul_{t}tok_ms"][-MATMUL_CALLS:]) for t in TOKENS)
        return y, timed_ms / 1e3


class Quantize(Workload):
    """One in-process CLI quantize of a clustered layer; its output is
    then served once, as a check."""

    def setup(self, seed: int) -> None:
        s = self.shape
        rng = np.random.default_rng(seed)
        # unit-variance outputs keep the softmax behind recon_kl unsaturated
        w = rng.standard_normal((s.rows, s.cols), dtype=np.float32) / np.sqrt(s.cols)
        x = rng.standard_normal((s.tokens, s.cols), dtype=np.float32)
        width = s.beta * 3 // 16
        for i in range(s.clusters):
            lo = (2 * i + 1) * s.groups // (2 * s.clusters) * s.beta + (s.beta - width) // 2
            x[:, lo : lo + width] *= ACTIVATION_BOOST
            w[:, lo : lo + width] *= WEIGHT_BOOST
            quiet = i * s.groups // s.clusters * s.beta
            w[:, quiet : quiet + s.beta] *= QUIET_WEIGHT
        tensor_store.write_tensor(str(self.dir / "w.slmt"), w)
        tensor_store.write_tensor(str(self.dir / "x.slmt"), x)
        self._write_serve_x(rng)

    def op(self, samples: dict) -> None:
        s = self.shape
        out, report_path = self.dir / "out.slmq", self.dir / "out.json"
        argv = [
            "quantize",
            "--weights", str(self.dir / "w.slmt"),
            "--calib", str(self.dir / "x.slmt"),
            "--out", str(out),
            "--report", str(report_path),
            "--bits", str(s.bits),
            "--group-size", str(s.beta),
            "--threads", "1",
        ]
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
        samples["op_s"].append(time.perf_counter() - start)
        if code != 0:
            raise CheckFailed(f"quantize exited with {code}")
        report = json.loads(report_path.read_text())
        bits = report["plan"]["bits"]
        if sum(bits) != s.bits * s.groups:
            raise CheckFailed(f"plan spends {sum(bits)} bits, budget is {s.bits * s.groups}")
        blob = out.read_bytes()
        fingerprint = {
            "p_star": report["plan"]["p_star"],
            "bits": bits,
            "kl_curve": report["plan"]["kl_curve"],
            "sha256": _sha256(blob),
        }
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            raise CheckFailed("quantize output differs from the run's first op")
        self.serve(out, blob, samples)
        samples["recon_kl"].append(report["metrics"]["recon_kl"])
        samples["proxy_loss"].append(report["metrics"]["proxy_loss"])
        samples["slmq_bytes"].append(len(blob))


class PackedServe(Workload):
    """Read, multiply and rewrite one packed layer built without the
    quantizer, so quantize changes cannot move it."""

    def setup(self, seed: int) -> None:
        s = self.shape
        rng = np.random.default_rng(seed)
        # unit-variance outputs keep the softmax behind recon_kl unsaturated
        w = rng.standard_normal((s.rows, s.cols), dtype=np.float32) / np.sqrt(s.cols)
        widths = np.resize(SERVE_PLAN, s.groups)
        blocks = [
            quant_core.quantize_uniform(w[:, g * s.beta : (g + 1) * s.beta], int(widths[g]))
            for g in range(s.groups)
        ]
        self.src = self.dir / "layer.slmq"
        packfmt.write_packed(packfmt.pack(blocks, s.rows, s.cols, s.beta, s.bits), str(self.src))
        self.blob = self.src.read_bytes()
        self._write_serve_x(rng)
        # float outputs of the unquantized layer, the quality reference
        self.y_float = self.x.astype(np.float64) @ w.astype(np.float64).T
        self.fingerprint = {"widths": widths.tolist(), "sha256": _sha256(self.blob)}

    def op(self, samples: dict) -> None:
        y, seconds = self.serve(self.src, self.blob, samples)
        y = y.astype(np.float64)
        samples["op_s"].append(seconds)
        samples["recon_kl"].append(_output_kl(self.y_float, y))
        samples["proxy_loss"].append(float(np.sum((y - self.y_float) ** 2)) / len(y))
        samples["slmq_bytes"].append(len(self.blob))


def _output_kl(y_ref: np.ndarray, y: np.ndarray) -> float:
    """Mean over rows of KL(softmax(y_ref) || softmax(y))."""

    def log_softmax(z):
        z = z - z.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    lp, lq = log_softmax(y_ref), log_softmax(y)
    return float(np.mean(np.sum(np.exp(lp) * (lp - lq), axis=1)))


def make(name: str, shapes: dict, workdir: Path) -> Workload:
    cls = PackedServe if name == "packed-serve" else Quantize
    return cls(shapes[name], workdir)
