"""Command-line entry points.

Subcommands: gen (synthetic fixtures), quantize, eval, inspect, matmul.
Reports are JSON, per-channel series are CSV. The quantization
path is fully deterministic; --seed only drives fixture generation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from collections import Counter

import numpy as np
import scipy

from .errors import InvalidConfig, ShapeMismatch, SlimQuantError
from .kernel import dense_reference, packed_matmul
from .packfmt import pack, packed_size_report, read_packed
from .pipeline import PipelineConfig, check_layer, quantize_layer, reconstruct, score
from .salience import (
    accumulate_hessian,
    damp_and_invert,
    salience,
    salience_means,
    salient_mask_3sigma,
)
from .sba import kl_reference
from .tensor_store import atomic_write, load_calibration, read_rows, read_tensor, write_tensor


# Environment variables that set a BLAS thread count. The thread count can
# change float summation order, so the report records them.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _check_paths(inputs: dict[str, str], outputs: dict[str, str]) -> None:
    """Refuse, before anything is read, an output path that resolves to
    one of the command's inputs or to another output: writing it would
    destroy that file. Both dicts map an option to its path."""
    seen = {os.path.realpath(path): flag for flag, path in inputs.items()}
    for flag, path in outputs.items():
        real = os.path.realpath(path)
        if real in seen:
            raise InvalidConfig(f"{flag} and {seen[real]} name the same file, {path}")
        seen[real] = flag


def _write_outputs(outputs: list[tuple[str, bytes | str]]) -> None:
    """Write each output atomically, removing the ones already written on
    the first failure so a failed run never leaves partial artifacts."""
    written = []
    try:
        for path, payload in outputs:
            atomic_write(path, payload)
            written.append(path)
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------- gen


def _check_sizes(**sizes: int) -> None:
    for name, value in sizes.items():
        if value < 1:
            raise InvalidConfig(f"--{name} must be >= 1, got {value}")


def cmd_gen_weights(args) -> int:
    _check_sizes(rows=args.rows, cols=args.cols)
    w = np.random.default_rng(args.seed).standard_normal((args.rows, args.cols)).astype(np.float32)
    write_tensor(args.out, w)
    print(f"wrote {args.out} ({args.rows}x{args.cols})")
    return 0


def _parse_cluster(text: str, channels: int) -> tuple[int, int, float]:
    try:
        start, width, scale = text.split(":")
        start, width, scale = int(start), int(width), float(scale)
    except ValueError as exc:
        raise SlimQuantError(f"bad --cluster value {text!r}, want START:WIDTH:SCALE") from exc
    if start < 0 or width < 1 or start + width > channels:
        raise InvalidConfig(
            f"--cluster {text!r} needs START >= 0, WIDTH >= 1 and "
            f"START + WIDTH <= {channels} channels"
        )
    return start, width, scale


def cmd_gen_calib(args) -> int:
    _check_sizes(samples=args.samples, tokens=args.tokens, channels=args.channels)
    clusters = [_parse_cluster(item, args.channels) for item in args.cluster or []]
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.samples, args.tokens, args.channels))
    # values past float32's range become infinite without numpy's warning;
    # write_tensor rejects them with one NonFiniteValue error
    with np.errstate(over="ignore"):
        for start, width, scale in clusters:
            x[..., start : start + width] *= scale
        x = x.astype(np.float32)
    write_tensor(args.out, x)
    print(f"wrote {args.out} ({args.samples}x{args.tokens}x{args.channels})")
    return 0


# ----------------------------------------------------------- quantize


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(
        beta=args.group_size,
        bits=args.bits,
        sba_enabled=not args.no_sba,
        sqc_enabled=not args.no_sqc,
        compensation_enabled=not args.no_compensation,
    )


def _blas(show_config) -> dict:
    """Name and version of the BLAS a library was built with. numpy and
    scipy each load their own; quantize's products run on scipy's."""
    blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def cmd_quantize(args) -> int:
    start = time.perf_counter()
    report_path = args.report or args.out + ".json"
    _check_paths(
        {"--weights": args.weights, "--calib": args.calib},
        {"--out": args.out, "--report": report_path},
    )
    w = read_tensor(args.weights)
    x = load_calibration(args.calib)
    cfg = _pipeline_config(args)
    result = quantize_layer(w, x, cfg)
    n, m = w.shape
    pack_start = time.perf_counter()
    pm = pack(result.blocks, n, m, cfg.beta, target_bits=cfg.bits)
    blob = pm.to_bytes()
    pack_s = time.perf_counter() - pack_start
    size = packed_size_report(pm)

    report = {
        "config": {
            "bits": cfg.bits,
            "group_size": cfg.beta,
            "sba": cfg.sba_enabled,
            "sqc": cfg.sqc_enabled,
            "compensation": cfg.compensation_enabled,
            "threads": args.threads,
        },
        "shape": {"rows": n, "channels": m, "groups": m // cfg.beta},
        "plan": {
            "bits": result.plan.bits.tolist(),
            "p_star": result.plan.p_star,
            "evaluations": result.plan.evaluations,
            "kl_curve": result.plan.kl_curve.tolist(),
        },
        "gammas": {"per_group": result.gammas.tolist()},
        "metrics": {
            "proxy_loss": result.proxy_loss,
            "recon_mse": result.recon_mse,
            "recon_kl": result.recon_kl,
            "bits_per_weight": size.bits_per_weight,
            "payload_bits": size.payload_bits,
            "padding_bits": size.padding_bits,
            "metadata_bits": size.metadata_bits,
            "file_bytes": len(blob),
        },
        "timing": {
            "total_s": time.perf_counter() - start,
            "stages": {**result.stage_s, "pack": pack_s},
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"numpy": _blas(np.show_config), "scipy": _blas(scipy.show_config)},
            "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        },
    }

    _write_outputs([(args.out, blob), (report_path, _json(report))])
    print(f"wrote {args.out} ({size.bits_per_weight:.3f} bits/weight), report {report_path}")
    return 0


# --------------------------------------------------------------- eval


def cmd_eval(args) -> int:
    pm = read_packed(args.model)
    w = read_tensor(args.weights)
    x = load_calibration(args.calib)
    if w.shape != (pm.n, pm.m):
        raise ShapeMismatch(f"weights {w.shape} do not match packed model {(pm.n, pm.m)}")
    check_layer(w, x, pm.beta)
    hs = damp_and_invert(accumulate_hessian(x))
    ref = kl_reference(x, w)
    loss, mse, kl = score(w, reconstruct(pm.blocks), hs, ref)
    size = packed_size_report(pm)
    hist = Counter(int(b) for b in pm.widths)
    report = {
        "shape": {"rows": pm.n, "channels": pm.m, "groups": pm.k},
        "metrics": {
            "recon_mse": mse,
            "proxy_loss": loss,
            "recon_kl": kl,
            "bits_per_weight": size.bits_per_weight,
        },
        "bit_histogram": {str(b): hist[b] for b in sorted(hist)},
    }
    sys.stdout.write(_json(report))
    return 0


# ------------------------------------------------------------ inspect


def cmd_inspect(args) -> int:
    _check_paths(
        {"--weights": args.weights, "--calib": args.calib},
        {"--out": args.out} if args.out else {},
    )
    w = read_tensor(args.weights)
    x = load_calibration(args.calib)
    check_layer(w, x, args.group_size)
    delta = salience(w, damp_and_invert(accumulate_hessian(x)))
    sal = salience_means(delta, args.group_size)
    k = w.shape[1] // args.group_size
    lines = ["kind,index,value"]
    lines += [f"channel_mean,{j},{float(v)!r}" for j, v in enumerate(sal.channel_mean)]
    lines += [f"group_mean,{g},{float(v)!r}" for g, v in enumerate(sal.group_mean)]
    for g in range(k):
        block = delta[:, g * args.group_size : (g + 1) * args.group_size]
        density = float(salient_mask_3sigma(block).mean())
        lines.append(f"mask_density,{g},{density!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_outputs([(args.out, text)])
    else:
        sys.stdout.write(text)
    return 0


# ------------------------------------------------------------- matmul


def cmd_matmul(args) -> int:
    _check_paths({"--model": args.model, "--input": args.input}, {"--out": args.out})
    pm = read_packed(args.model)
    x = read_rows(args.input)
    # outputs past float32's range come out as inf or nan, which
    # write_tensor refuses with one error line; numpy's warnings would add
    # lines before it
    with np.errstate(over="ignore", invalid="ignore"):
        y = dense_reference(pm, x) if args.dense else packed_matmul(pm, x)
    write_tensor(args.out, y)
    print(f"wrote {args.out} ({y.shape[0]}x{y.shape[1]})")
    return 0


# ------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slimquant",
        description="Mixed-precision weight quantization with salience-driven "
        "bit allocation, range calibration and error compensation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic fixture tensors")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gw = gen_sub.add_parser("weights", help="random weight matrix")
    gw.add_argument("--rows", type=int, required=True)
    gw.add_argument("--cols", type=int, required=True)
    gw.add_argument("--seed", type=int, default=0)
    gw.add_argument("--out", required=True)
    gw.set_defaults(func=cmd_gen_weights)
    gc = gen_sub.add_parser("calib", help="random calibration activations")
    gc.add_argument("--samples", type=int, default=1)
    gc.add_argument("--tokens", type=int, required=True)
    gc.add_argument("--channels", type=int, required=True)
    gc.add_argument(
        "--cluster",
        action="append",
        metavar="START:WIDTH:SCALE",
        help="scale a span of adjacent channels; repeatable",
    )
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--out", required=True)
    gc.set_defaults(func=cmd_gen_calib)

    q = sub.add_parser("quantize", help="quantize a weight matrix")
    q.add_argument("--weights", required=True)
    q.add_argument("--calib", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--report", default=None, help="report path, default OUT.json")
    q.add_argument("--bits", type=int, choices=(2, 3), default=2)
    q.add_argument("--group-size", type=int, default=128)
    q.add_argument("--no-sba", action="store_true")
    q.add_argument("--no-sqc", action="store_true")
    q.add_argument("--no-compensation", action="store_true")
    q.add_argument(
        "--threads",
        type=int,
        default=1,
        help="recorded in the report; every stage runs on one Python thread",
    )
    q.set_defaults(func=cmd_quantize)

    e = sub.add_parser("eval", help="score a packed model against the originals")
    e.add_argument("--model", required=True)
    e.add_argument("--weights", required=True)
    e.add_argument("--calib", required=True)
    e.set_defaults(func=cmd_eval)

    i = sub.add_parser("inspect", help="emit salience series as CSV")
    i.add_argument("--weights", required=True)
    i.add_argument("--calib", required=True)
    i.add_argument("--group-size", type=int, default=128)
    i.add_argument("--out", default=None, help="CSV path, default stdout")
    i.set_defaults(func=cmd_inspect)

    mm = sub.add_parser("matmul", help="multiply activations through a packed model")
    mm.add_argument("--model", required=True)
    mm.add_argument("--input", required=True)
    mm.add_argument("--out", required=True)
    mm.add_argument("--dense", action="store_true", help="use the dense oracle path")
    mm.set_defaults(func=cmd_matmul)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SlimQuantError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
