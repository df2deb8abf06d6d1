"""End-to-end tests of the command-line interface.

Everything runs in-process through main(argv) so stdout, stderr, exit
codes and written files can all be checked cheaply.
"""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import slimquant
from fixtures import clustered_layer, identity_calib, random_calib, random_layer
from slimquant import cli, sba
from slimquant.cli import BLAS_THREAD_VARS, build_parser, main
from slimquant.packfmt import _layout, pack, read_packed, unpack_fields, write_packed
from slimquant.pipeline import STAGES, PipelineConfig, quantize_layer, reconstruct
from slimquant.quant_core import GroupQuantParams, QuantizedBlock, dequantize, quantize_uniform
from slimquant.salience import salience
from slimquant.sba import kl_reference, output_kl, stride_subsample
from slimquant.tensor_store import read_tensor, write_tensor


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(report):
    return {k: v for k, v in report.items() if k != "timing"}


@pytest.fixture
def layer_files(tmp_path):
    """A 16x64 weight file plus a 128-token calibration file."""
    rng = np.random.default_rng(50)
    w = random_layer(rng, 16, 64)
    x = random_calib(rng, 128, 64)
    wpath = tmp_path / "w.slmt"
    xpath = tmp_path / "x.slmt"
    write_tensor(wpath, w)
    write_tensor(xpath, x)
    return wpath, xpath, w, x


def quantize_args(wpath, xpath, out, **over):
    argv = ["quantize", "--weights", wpath, "--calib", xpath, "--out", out,
            "--group-size", over.pop("group_size", 16)]
    for flag, value in over.items():
        name = "--" + flag.replace("_", "-")
        if value is True:
            argv.append(name)
        else:
            argv += [name, value]
    return argv


def test_gen_weights_round_trip(tmp_path, capsys):
    out = tmp_path / "w.slmt"
    code, msg, _ = run(capsys, "gen", "weights", "--rows", 4, "--cols", 8,
                       "--seed", 3, "--out", out)
    assert code == 0
    assert "wrote" in msg
    w = read_tensor(out)
    assert w.shape == (4, 8)
    rng = np.random.default_rng(3)
    expected = rng.standard_normal((4, 8)).astype(np.float32)
    assert np.array_equal(w, expected)


def test_gen_calib_with_outlier_and_cluster(tmp_path, capsys):
    # an outlier channel is a cluster one channel wide
    out = tmp_path / "x.slmt"
    code, _, _ = run(capsys, "gen", "calib", "--samples", 2, "--tokens", 16,
                     "--channels", 8, "--cluster", "5:1:100.0", "--cluster", "1:2:3.0",
                     "--seed", 7, "--out", out)
    assert code == 0
    x = read_tensor(out)
    assert x.shape == (2, 16, 8)
    rng = np.random.default_rng(7)
    base = rng.standard_normal((2, 16, 8))
    base[..., 5] *= 100.0
    base[..., 1:3] *= 3.0
    assert np.array_equal(x, base.astype(np.float32))


def test_gen_calib_bad_cluster_value(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "calib", "--tokens", 4, "--channels", 4,
                       "--cluster", "nonsense", "--out", tmp_path / "x.slmt")
    assert code == 1
    assert "error[SlimQuantError]" in err
    assert not (tmp_path / "x.slmt").exists()


CALIB_4 = ["gen", "calib", "--tokens", 4, "--channels", 4]


@pytest.mark.parametrize("argv", [
    ["gen", "weights", "--rows", -1, "--cols", 4],
    ["gen", "weights", "--rows", 0, "--cols", 4],
    ["gen", "weights", "--rows", 4, "--cols", 0],
    ["gen", "calib", "--samples", 0, "--tokens", 4, "--channels", 4],
    ["gen", "calib", "--tokens", 0, "--channels", 4],
    ["gen", "calib", "--tokens", 4, "--channels", 0],
    [*CALIB_4, "--cluster", "9:2:3.0"],
    [*CALIB_4, "--cluster", "3:2:3.0"],
    [*CALIB_4, "--cluster=-1:2:3.0"],
    [*CALIB_4, "--cluster", "1:0:3.0"],
    [*CALIB_4, "--cluster", "0:1:2.0", "--cluster", "1:4:2.0"],
], ids=lambda argv: ",".join(str(a) for a in argv[1:]))
def test_gen_rejects_out_of_range_arguments(tmp_path, capsys, argv):
    out = tmp_path / "t.slmt"
    code, stdout, err = run(capsys, *argv, "--out", out)
    assert code == 1
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error[InvalidConfig]: ")
    assert not out.exists()


def test_gen_calib_accepts_the_last_channel(tmp_path, capsys):
    out = tmp_path / "x.slmt"
    code, _, _ = run(capsys, *CALIB_4, "--cluster", "3:1:100.0", "--cluster", "2:2:3.0",
                     "--out", out)
    assert code == 0
    base = np.random.default_rng(0).standard_normal((1, 4, 4))
    base[..., 3] *= 100.0
    base[..., 2:4] *= 3.0
    assert np.array_equal(read_tensor(out), base.astype(np.float32))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    [*CALIB_4, "--cluster", "0:2:1e39"],
], ids=lambda argv: argv[1])
def test_gen_values_past_float32_are_one_error_line(tmp_path, capsys, argv):
    # no numpy overflow warning comes before the error
    out = tmp_path / "t.slmt"
    code, stdout, err = run(capsys, *argv, "--out", out)
    assert code == 1
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error[NonFiniteValue]: ")
    assert not out.exists()


def test_quantize_writes_model_and_report(layer_files, tmp_path, capsys):
    wpath, xpath, w, x = layer_files
    out = tmp_path / "m.slmq"
    code, msg, _ = run(capsys, *quantize_args(wpath, xpath, out))
    assert code == 0
    assert "bits/weight" in msg
    pm = read_packed(out)
    assert (pm.n, pm.m, pm.beta) == (16, 64, 16)
    report = json.loads((tmp_path / "m.slmq.json").read_text())
    assert report["config"] == {"bits": 2, "group_size": 16, "sba": True, "sqc": True,
                                "compensation": True, "threads": 1}
    assert report["shape"] == {"rows": 16, "channels": 64, "groups": 4}
    assert report["plan"]["bits"] == [int(b) for b in pm.widths]
    assert len(report["plan"]["kl_curve"]) == report["plan"]["evaluations"] == 3
    # the curve is the width search's own, to the bit
    res = quantize_layer(w, x, PipelineConfig(beta=16, bits=2))
    assert report["plan"]["kl_curve"] == res.plan.kl_curve.tolist()
    assert report["metrics"]["proxy_loss"] > 0.0
    assert report["metrics"]["file_bytes"] == out.stat().st_size
    assert report["gammas"] == {"per_group": res.gammas.tolist()}


def test_quantize_ablation_floor_reproduces_rtn(layer_files, tmp_path, capsys):
    wpath, xpath, w, _ = layer_files
    out = tmp_path / "rtn.slmq"
    code, _, _ = run(capsys, *quantize_args(
        wpath, xpath, out, no_sba=True, no_sqc=True, no_compensation=True))
    assert code == 0
    pm = read_packed(out)
    assert np.all(pm.widths == 2)
    for g, qb in enumerate(pm.blocks):
        ref = quantize_uniform(w[:, g * 16:(g + 1) * 16], 2)
        assert np.array_equal(qb.codes, ref.codes)
        assert np.array_equal(qb.params.scale, ref.params.scale)
        assert np.array_equal(qb.params.zero, ref.params.zero)


def test_quantize_runs_are_byte_identical(layer_files, tmp_path, capsys):
    wpath, xpath, _, _ = layer_files
    out1, out2 = tmp_path / "a.slmq", tmp_path / "b.slmq"
    assert run(capsys, *quantize_args(wpath, xpath, out1))[0] == 0
    assert run(capsys, *quantize_args(wpath, xpath, out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    r1 = json.loads((tmp_path / "a.slmq.json").read_text())
    r2 = json.loads((tmp_path / "b.slmq.json").read_text())
    assert strip_timing(r1) == strip_timing(r2)


def test_quantize_custom_report_path(layer_files, tmp_path, capsys):
    wpath, xpath, _, _ = layer_files
    out = tmp_path / "m.slmq"
    rep = tmp_path / "custom.json"
    code, _, _ = run(capsys, *quantize_args(wpath, xpath, out, report=rep))
    assert code == 0
    assert rep.exists()
    assert not (tmp_path / "m.slmq.json").exists()


def test_quantize_failure_leaves_no_partial_outputs(layer_files, tmp_path,
                                                    capsys):
    wpath, xpath, _, _ = layer_files
    out = tmp_path / "m.slmq"
    bad_report = tmp_path / "no-such-dir" / "r.json"
    code, _, err = run(capsys, *quantize_args(wpath, xpath, out,
                                              report=bad_report))
    assert code == 1
    assert "error[IoFailure]" in err
    assert sorted(tmp_path.iterdir()) == sorted([wpath, xpath])


def test_quantize_missing_input_fails_cleanly(tmp_path, capsys):
    code, _, err = run(capsys, "quantize", "--weights", tmp_path / "nope.slmt",
                       "--calib", tmp_path / "x.slmt", "--out",
                       tmp_path / "m.slmq")
    assert code == 1
    assert "error[IoFailure]" in err
    assert not (tmp_path / "m.slmq").exists()


@pytest.mark.parametrize("rows, channels", [(0, 8), (8, 0)])
def test_quantize_empty_layer_fails_cleanly(tmp_path, capfd, rows, channels):
    # capfd, not capsys: LAPACK writes its argument errors to the process's
    # stderr, which capsys does not see
    wpath, xpath = tmp_path / "w.slmt", tmp_path / "x.slmt"
    write_tensor(wpath, np.ones((rows, channels), dtype=np.float32))
    write_tensor(xpath, np.ones((16, channels), dtype=np.float32))
    code = main([str(a) for a in quantize_args(wpath, xpath, tmp_path / "m.slmq", group_size=8)])
    out, err = capfd.readouterr()
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error[ShapeMismatch]: ")
    assert not (tmp_path / "m.slmq").exists()


@pytest.mark.parametrize("command", ["eval", "inspect"])
def test_mismatched_calibration_is_rejected_before_the_gram_matrix(
    layer_files, tmp_path, capsys, monkeypatch, command
):
    wpath, xpath, _, _ = layer_files
    model = tmp_path / "m.slmq"
    assert run(capsys, *quantize_args(wpath, xpath, model))[0] == 0
    wide = tmp_path / "wide.slmt"
    write_tensor(wide, random_calib(np.random.default_rng(51), 32, 96))

    def refused(calib):
        raise AssertionError("the Gram matrix of a mismatched calibration was formed")

    monkeypatch.setattr(cli, "accumulate_hessian", refused)
    args = {"eval": ["--model", model], "inspect": ["--group-size", 16]}[command]
    code, out, err = run(capsys, command, "--weights", wpath, "--calib", wide, *args)
    assert code == 1
    assert out == ""
    assert err == "error[ShapeMismatch]: calibration has 96 channels, weights 64\n"


def layer_with_model(tmp_path, rows, channels, beta=16):
    """Weights of shape (rows, channels), a matching 16-token calibration
    and a packed model of that shape, built without the quantizer."""
    block = QuantizedBlock(
        codes=np.zeros((rows, beta), dtype=np.uint8),
        params=GroupQuantParams(2, np.ones(rows, dtype=np.float32),
                                np.zeros(rows, dtype=np.uint8)),
    )
    paths = tmp_path / "w.slmt", tmp_path / "x.slmt", tmp_path / "m.slmq"
    write_tensor(paths[0], np.ones((rows, channels), dtype=np.float32))
    write_tensor(paths[1], np.ones((16, channels), dtype=np.float32))
    write_packed(pack([block] * (channels // beta), rows, channels, beta, target_bits=2), paths[2])
    return paths


@pytest.mark.parametrize("command, rows, channels, group_size, error", [
    *[pytest.param(c, 0, 64, 16, "ShapeMismatch", id=f"{c}-zero-rows") for c in ("eval", "inspect")],
    *[pytest.param(c, 2, 0, 16, "ShapeMismatch", id=f"{c}-zero-channels") for c in ("eval", "inspect")],
    # eval takes the model's group size, which divides its channels
    pytest.param("inspect", 16, 64, 24, "BadGroupSize", id="inspect-group-size"),
])
@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_malformed_layer_is_rejected_before_the_gram_matrix(
    tmp_path, capfd, monkeypatch, command, rows, channels, group_size, error
):
    # capfd, not capsys: BLAS writes its argument errors to the process's
    # stderr, which capsys does not see
    wpath, xpath, model = layer_with_model(tmp_path, rows, channels)

    def refused(calib):
        raise AssertionError("the Gram matrix of a malformed layer was formed")

    monkeypatch.setattr(cli, "accumulate_hessian", refused)
    args = {"eval": ["--model", model], "inspect": ["--group-size", group_size]}[command]
    code = main([str(a) for a in [command, "--weights", wpath, "--calib", xpath, *args]])
    out, err = capfd.readouterr()
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error[{error}]: ")


@pytest.mark.parametrize("shape", [(5, 64), (4, 48)], ids=["rows", "channels"])
def test_eval_weights_of_another_shape_are_shape_mismatch(tmp_path, capsys, shape):
    wpath, xpath, model = layer_with_model(tmp_path, 4, 64)
    write_tensor(wpath, np.ones(shape, dtype=np.float32))
    code, out, err = run(capsys, "eval", "--model", model, "--weights", wpath, "--calib", xpath)
    assert code == 1
    assert out == ""
    assert err == f"error[ShapeMismatch]: weights {shape} do not match packed model (4, 64)\n"


def test_eval_matches_quantize_report(layer_files, tmp_path, capsys):
    wpath, xpath, _, _ = layer_files
    out = tmp_path / "m.slmq"
    run(capsys, *quantize_args(wpath, xpath, out))
    report = json.loads((tmp_path / "m.slmq.json").read_text())
    code, stdout, _ = run(capsys, "eval", "--model", out, "--weights", wpath,
                          "--calib", xpath)
    assert code == 0
    scored = json.loads(stdout)
    for key in ("recon_mse", "proxy_loss", "recon_kl", "bits_per_weight"):
        assert scored["metrics"][key] == report["metrics"][key]
    hist = scored["bit_histogram"]
    assert sum(hist.values()) == 4
    assert hist.get("1", 0) == hist.get("3", 0)  # paired promote/demote


@pytest.mark.parametrize("options", [
    {"bits": 3},
    {"no_sba": True},
    {"no_sqc": True},
    {"no_compensation": True},
    {"bits": 3, "no_sba": True, "no_sqc": True, "no_compensation": True, "threads": 2},
], ids=lambda options: "+".join(k if v is True else f"{k}={v}" for k, v in options.items()))
@pytest.mark.parametrize("samples", [1, 2])
def test_eval_matches_quantize_report_under_every_option(layer_files, tmp_path, capsys,
                                                         options, samples):
    # eval scores under the settings quantize scored under, whatever options
    # quantize took, on a 2-D calibration file or a 3-D one of samples
    wpath, _, _, x = layer_files
    xpath = tmp_path / "x3.slmt"
    write_tensor(xpath, x.reshape(samples, -1, x.shape[1]))
    out = tmp_path / "m.slmq"
    assert run(capsys, *quantize_args(wpath, xpath, out, **options))[0] == 0
    report = json.loads((tmp_path / "m.slmq.json").read_text())
    code, stdout, _ = run(capsys, "eval", "--model", out, "--weights", wpath,
                          "--calib", xpath)
    assert code == 0
    scored = json.loads(stdout)
    for key in ("recon_mse", "proxy_loss", "recon_kl", "bits_per_weight"):
        assert scored["metrics"][key] == report["metrics"][key]


def test_eval_matches_quantize_report_on_a_small_uncompensated_layer(tmp_path, capsys):
    # a read model's groups are Fortran-ordered and quantize's
    # uncompensated ones C-ordered, and BLAS sums a product this small in
    # another order for the other layout; the dgemm wrapper copies every
    # block of weights into Fortran-ordered float64, so eval reports what
    # quantize scored
    wpath, xpath, out = tmp_path / "w.slmt", tmp_path / "x.slmt", tmp_path / "m.slmq"
    run(capsys, "gen", "weights", "--rows", 16, "--cols", 256, "--seed", 1, "--out", wpath)
    run(capsys, "gen", "calib", "--tokens", 32, "--channels", 256, "--seed", 2, "--out", xpath)
    assert run(capsys, *quantize_args(wpath, xpath, out, group_size=64,
                                      no_compensation=True))[0] == 0
    report = json.loads((tmp_path / "m.slmq.json").read_text())
    code, stdout, _ = run(capsys, "eval", "--model", out, "--weights", wpath,
                          "--calib", xpath)
    assert code == 0
    scored = json.loads(stdout)
    for key in ("recon_mse", "proxy_loss", "recon_kl"):
        assert scored["metrics"][key] == report["metrics"][key]
    recon = reconstruct(read_packed(out).blocks)
    assert recon.flags.f_contiguous and not recon.flags.c_contiguous
    x = read_tensor(xpath).reshape(-1, 256)
    ref = kl_reference(x, read_tensor(wpath))
    got = [output_kl(ref, order(recon)) for order in (np.asfortranarray, np.ascontiguousarray)]
    assert np.float64(got[0]).tobytes() == np.float64(got[1]).tobytes()


@pytest.mark.parametrize("samples", [1, 2])
def test_eval_matches_quantize_report_on_strided_and_batched_rows(tmp_path, capsys, monkeypatch,
                                                                  samples):
    # eval scores on the rows quantize scored on: past sba.MAX_TOKENS
    # calibration rows, a strided subsample of the rows of every sample
    w, x = clustered_layer(5, n=16, m=256, t=4200)
    assert len(x) > sba.MAX_TOKENS
    wpath, xpath, out = tmp_path / "w.slmt", tmp_path / "x.slmt", tmp_path / "m.slmq"
    write_tensor(wpath, w)
    write_tensor(xpath, x.reshape(samples, -1, x.shape[1]))
    run(capsys, *quantize_args(wpath, xpath, out, group_size=64))
    report = json.loads((tmp_path / "m.slmq.json").read_text())
    code, stdout, _ = run(capsys, "eval", "--model", out, "--weights", wpath,
                          "--calib", xpath)
    assert code == 0
    scored = json.loads(stdout)
    for key in ("recon_mse", "proxy_loss", "recon_kl"):
        assert scored["metrics"][key] == report["metrics"][key]
    # the score is that of the strided rows, and every row scores differently,
    # so the stride was applied
    recon = reconstruct(read_packed(out).blocks)
    strided = stride_subsample(x, sba.MAX_TOKENS)
    assert len(strided) < len(x)
    assert scored["metrics"]["recon_kl"] == output_kl(kl_reference(strided, w), recon)
    monkeypatch.setattr(sba, "MAX_TOKENS", len(x))
    every_row = kl_reference(x, w)
    assert scored["metrics"]["recon_kl"] != output_kl(every_row, recon)


def test_2d_and_3d_calibration_files_of_the_same_rows_give_the_same_outputs(tmp_path, capsys):
    # a 3-D file is read as its rows, so a file of 2 samples quantizes and
    # scores as the 2-D file of the same rows: the Gram matrix is summed
    # over fixed row blocks, not over samples
    w, x = clustered_layer(6, n=16, m=256, t=1024)
    wpath = tmp_path / "w.slmt"
    write_tensor(wpath, w)
    outputs = []
    for name, rows in (("x2", x), ("x3", x.reshape(2, -1, x.shape[1]))):
        xpath, out = tmp_path / f"{name}.slmt", tmp_path / f"{name}.slmq"
        write_tensor(xpath, rows)
        assert run(capsys, *quantize_args(wpath, xpath, out, group_size=64))[0] == 0
        report = strip_timing(json.loads((tmp_path / f"{name}.slmq.json").read_text()))
        code, stdout, _ = run(capsys, "eval", "--model", out, "--weights", wpath,
                              "--calib", xpath)
        assert code == 0
        outputs.append((out.read_bytes(), json.dumps(report, sort_keys=True), stdout))
    assert outputs[0] == outputs[1]


def test_one_bit_groups_are_written_as_sign_magnitude(tmp_path, capsys):
    w, x = clustered_layer(0, n=16, m=256, t=512)
    wpath, xpath, out = tmp_path / "w.slmt", tmp_path / "x.slmt", tmp_path / "m.slmq"
    write_tensor(wpath, w)
    write_tensor(xpath, x)
    code, _, _ = run(capsys, *quantize_args(wpath, xpath, out, group_size=64))
    assert code == 0
    report = json.loads((tmp_path / "m.slmq.json").read_text())
    assert 1 in report["plan"]["bits"]
    pm = read_packed(out)
    for qb, bits in zip(pm.blocks, report["plan"]["bits"]):
        assert qb.params.bit_width == bits
        if bits == 1:  # every weight decodes to plus or minus its row's alpha
            alpha = np.broadcast_to(qb.params.scale[:, None], qb.codes.shape)
            assert np.array_equal(np.abs(dequantize(qb)), alpha)
    code, stdout, _ = run(capsys, "eval", "--model", out, "--weights", wpath,
                          "--calib", xpath)
    assert code == 0
    scored = json.loads(stdout)
    for key in ("recon_mse", "proxy_loss", "recon_kl", "bits_per_weight"):
        assert scored["metrics"][key] == report["metrics"][key]


def test_one_bit_groups_are_written_shared(tmp_path, capsys):
    # a 1-bit group has one magnitude and no zero level, so the file stores
    # its scale and zero-point once; per-row magnitudes would cost each
    # 1024-row group 4,216 more bytes
    w, x = clustered_layer(0, n=16, m=256, t=512)
    wpath, xpath, out = tmp_path / "w.slmt", tmp_path / "x.slmt", tmp_path / "m.slmq"
    write_tensor(wpath, w)
    write_tensor(xpath, x)
    code, _, _ = run(capsys, *quantize_args(wpath, xpath, out, group_size=32, bits=2))
    assert code == 0
    bits = np.array(json.loads((tmp_path / "m.slmq.json").read_text())["plan"]["bits"])
    one_bit = bits == 1
    assert one_bit.any()
    raw = out.read_bytes()
    group_codes = unpack_fields(raw[24:28], 1, len(bits), 3, "group codes")[0]
    assert np.array_equal(group_codes & 3, bits - 1)
    assert np.all(group_codes[one_bit] & 4)  # the shared bit
    pm = read_packed(out)
    assert np.array_equal(pm.shared, one_bit)
    # the scales section: one value per shared group, n per other group
    assert _layout(pm.n, pm.beta, pm.widths, pm.shared)[2][1] == 4 * (
        one_bit.sum() + pm.n * (~one_bit).sum())
    for qb in (qb for qb, one in zip(pm.blocks, one_bit) if one):
        assert np.all(qb.params.scale == qb.params.scale[0])
        assert not qb.params.zero.any()


def test_binarize_flag_is_a_usage_error(layer_files, tmp_path, capsys):
    wpath, xpath, _, _ = layer_files
    argv = quantize_args(wpath, xpath, tmp_path / "m.slmq") + ["--binarize-1bit"]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    assert exc.value.code == 2
    assert "--binarize-1bit" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([wpath, xpath])


def parser_flags(parser):
    """Every option string of a parser and of its subcommands, recursively."""
    flags = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= parser_flags(sub)
    return flags


def subcommand(name):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def test_readme_cli_flags_exist():
    # two-way: every flag the README's CLI section names exists, and every
    # option of quantize, eval and inspect is named there
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert named, "README's CLI section names no flags"
    assert sorted(named - parser_flags(build_parser())) == []
    for command in ("quantize", "eval", "inspect"):
        accepted = parser_flags(subcommand(command)) - {"-h", "--help"}
        assert sorted(accepted - named) == [], command


def test_eval_on_grid_weights_score_zero(tmp_path, capsys):
    rng = np.random.default_rng(51)
    codes = rng.integers(0, 4, size=(8, 32))
    codes[:, 0] = 0
    codes[:, 1] = 3  # pin every row's range
    w = codes.astype(np.float32) * 0.25
    x = random_calib(rng, 64, 32)
    wpath, xpath = tmp_path / "w.slmt", tmp_path / "x.slmt"
    write_tensor(wpath, w)
    write_tensor(xpath, x)
    out = tmp_path / "m.slmq"
    run(capsys, *quantize_args(wpath, xpath, out))
    code, stdout, _ = run(capsys, "eval", "--model", out, "--weights", wpath,
                          "--calib", xpath)
    assert code == 0
    scored = json.loads(stdout)
    assert scored["metrics"]["recon_mse"] == 0.0
    assert scored["metrics"]["recon_kl"] == 0.0
    assert scored["metrics"]["bits_per_weight"] == 2.0


def test_eval_rejects_corrupt_model(layer_files, tmp_path, capsys):
    wpath, xpath, _, _ = layer_files
    bad = tmp_path / "bad.slmq"
    bad.write_bytes(b"SLMQ" + b"\x00" * 40)
    code, _, err = run(capsys, "eval", "--model", bad, "--weights", wpath,
                       "--calib", xpath)
    assert code == 1
    assert "error[" in err


def test_inspect_identity_gram_channel_means(tmp_path, capsys):
    rng = np.random.default_rng(52)
    w = random_layer(rng, 8, 16)
    wpath, xpath = tmp_path / "w.slmt", tmp_path / "x.slmt"
    write_tensor(wpath, w)
    write_tensor(xpath, identity_calib(16))
    code, stdout, _ = run(capsys, "inspect", "--weights", wpath, "--calib",
                          xpath, "--group-size", 4)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(stdout)))
    channel = [float(r["value"]) for r in rows if r["kind"] == "channel_mean"]
    # H = I, damped by 1% of its mean diagonal: every inverse diagonal is 1 / 1.01
    expected = (w.astype(np.float64) ** 2).mean(axis=0) * 1.01 ** 2
    np.testing.assert_allclose(channel, expected, rtol=1e-6)
    groups = [float(r["value"]) for r in rows if r["kind"] == "group_mean"]
    np.testing.assert_allclose(
        groups, np.asarray(channel).reshape(4, 4).mean(axis=1), rtol=1e-12)
    densities = [float(r["value"]) for r in rows if r["kind"] == "mask_density"]
    assert len(densities) == 4
    assert all(0.0 <= d <= 0.2 for d in densities)


def test_inspect_flags_injected_outlier(tmp_path, capsys):
    rng = np.random.default_rng(53)
    w = random_layer(rng, 8, 32)
    x = random_calib(rng, 128, 32)
    x[:, 11] *= 100.0
    wpath, xpath = tmp_path / "w.slmt", tmp_path / "x.slmt"
    write_tensor(wpath, w)
    write_tensor(xpath, x)
    csv_out = tmp_path / "sal.csv"
    code, _, _ = run(capsys, "inspect", "--weights", wpath, "--calib", xpath,
                     "--group-size", 8, "--out", csv_out)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(csv_out.read_text())))
    channel = [(int(r["index"]), float(r["value"])) for r in rows
               if r["kind"] == "channel_mean"]
    top = max(channel, key=lambda iv: iv[1])[0]
    assert top == 11


def test_inspect_builds_the_salience_map_once(layer_files, tmp_path, capsys, monkeypatch):
    # the means and the masks are read off one n x m map
    wpath, xpath, _, _ = layer_files
    calls = []

    def counted(*args):
        calls.append(1)
        return salience(*args)

    monkeypatch.setattr("slimquant.salience.salience", counted)
    monkeypatch.setattr("slimquant.cli.salience", counted)
    code, _, _ = run(capsys, "inspect", "--weights", wpath, "--calib", xpath,
                     "--group-size", 16)
    assert code == 0
    assert len(calls) == 1


def test_matmul_both_paths(layer_files, tmp_path, capsys):
    wpath, xpath, _, x = layer_files
    out = tmp_path / "m.slmq"
    run(capsys, *quantize_args(wpath, xpath, out))
    probe = tmp_path / "probe.slmt"
    write_tensor(probe, x[:4])
    y_packed = tmp_path / "yp.slmt"
    y_dense = tmp_path / "yd.slmt"
    assert run(capsys, "matmul", "--model", out, "--input", probe,
               "--out", y_packed)[0] == 0
    assert run(capsys, "matmul", "--model", out, "--input", probe,
               "--out", y_dense, "--dense")[0] == 0
    yp = read_tensor(y_packed)
    yd = read_tensor(y_dense)
    assert yp.shape == (4, 16)
    pm = read_packed(out)
    from slimquant.kernel import matmul_tolerance, packed_matmul

    assert np.array_equal(yp, packed_matmul(pm, x[:4]))
    assert float(np.abs(yp - yd).max()) <= matmul_tolerance(pm, x[:4])


def test_matmul_accepts_generated_probe_batches(layer_files, tmp_path, capsys):
    wpath, xpath, _, x = layer_files
    out = tmp_path / "m.slmq"
    run(capsys, *quantize_args(wpath, xpath, out))
    probe = tmp_path / "probe.slmt"
    assert run(capsys, "gen", "calib", "--samples", 2, "--tokens", 3,
               "--channels", 64, "--seed", 9, "--out", probe)[0] == 0
    y_path = tmp_path / "y.slmt"
    code, stdout, _ = run(capsys, "matmul", "--model", out, "--input", probe,
                          "--out", y_path)
    assert code == 0
    assert "6x16" in stdout
    y = read_tensor(y_path)
    pm = read_packed(out)
    flat = read_tensor(probe).reshape(-1, 64)
    from slimquant.kernel import packed_matmul

    assert np.array_equal(y, packed_matmul(pm, flat))
    bad = tmp_path / "bad.slmt"
    # a 4-D input, and a 3-D one of no channels, which no reshape to rows
    # with an inferred row count can take
    for shape in ((2, 2, 2, 2), (2, 2, 0)):
        write_tensor(bad, np.zeros(shape, dtype=np.float32))
        code, _, err = run(capsys, "matmul", "--model", out, "--input", bad,
                           "--out", y_path)
        assert code == 1
        assert "error[ShapeMismatch]" in err


def test_matmul_overflow_prints_only_its_error_line(layer_files, tmp_path, capsys):
    # outputs past float32's range are refused by write_tensor; in a fresh
    # process, as from the shell, no numpy warning comes before the error
    wpath, xpath, _, _ = layer_files
    out = tmp_path / "m.slmq"
    run(capsys, *quantize_args(wpath, xpath, out))
    big = np.full((4, 64), 3e38, dtype=np.float32)
    big[:, ::2] *= -1.0
    probe, y_path = tmp_path / "big.slmt", tmp_path / "y.slmt"
    write_tensor(probe, big)
    src = str(Path(slimquant.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for dense in ([], ["--dense"]):
        done = subprocess.run(
            [sys.executable, "-m", "slimquant.cli", "matmul", "--model", out,
             "--input", probe, "--out", y_path, *dense],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            f"error[NonFiniteValue]: refusing to serialize non-finite values for {y_path}"
        ]
        assert not y_path.exists()


def test_threads_flag_recorded_in_report(layer_files, tmp_path, capsys):
    wpath, xpath, _, _ = layer_files
    out = tmp_path / "m.slmq"
    code, _, _ = run(capsys, *quantize_args(wpath, xpath, out, threads=2))
    assert code == 0
    report = json.loads((tmp_path / "m.slmq.json").read_text())
    assert report["config"]["threads"] == 2


def test_quantize_report_times_stages_and_records_environment(layer_files, tmp_path,
                                                              capsys):
    wpath, xpath, _, _ = layer_files
    out = tmp_path / "m.slmq"
    code, _, _ = run(capsys, *quantize_args(wpath, xpath, out))
    assert code == 0
    timing = json.loads((tmp_path / "m.slmq.json").read_text())["timing"]
    assert sorted(timing["stages"]) == sorted([*STAGES, "pack"])
    assert sum(timing["stages"].values()) <= timing["total_s"]
    assert timing["numpy"] == np.__version__
    assert timing["scipy"] == scipy.__version__
    # quantize's products run on scipy's BLAS, which need not be numpy's
    for lib, config in (("numpy", np.show_config), ("scipy", scipy.show_config)):
        blas = config(mode="dicts")["Build Dependencies"]["blas"]
        assert timing["blas"][lib] == {"name": blas["name"], "version": blas["version"]}
        assert blas["name"] and blas["version"]
    assert sorted(timing["blas"]) == ["numpy", "scipy"]
    assert sorted(timing["blas_thread_env"]) == sorted(BLAS_THREAD_VARS)


@pytest.mark.parametrize("report", ["m.slmq", "./m.slmq"])
def test_report_naming_the_model_file_is_invalid_config(layer_files, tmp_path, capsys,
                                                         monkeypatch, report):
    # the report would overwrite the model it describes
    wpath, xpath, _, _ = layer_files
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, *quantize_args(wpath, xpath, "m.slmq", report=report))
    assert code == 1
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error[InvalidConfig]: ")
    assert sorted(tmp_path.iterdir()) == sorted([wpath, xpath])


@pytest.mark.parametrize("command, output, named", [
    ("quantize", "--out", "x.slmt"),
    ("quantize", "--out", "./w.slmt"),
    ("quantize", "--report", "x.slmt"),
    ("inspect", "--out", "w.slmt"),
    ("inspect", "--out", "link.slmt"),
    ("matmul", "--out", "probe.slmt"),
    ("matmul", "--out", "m.slmq"),
])
def test_output_naming_an_input_is_invalid_config(layer_files, tmp_path, capsys, monkeypatch,
                                                  command, output, named):
    # writing the output would replace the input it names, here directly,
    # through "./" or through a symlink to the calibration
    wpath, xpath, _, x = layer_files
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *quantize_args(wpath, xpath, "m.slmq"))[0] == 0
    write_tensor("probe.slmt", x[:4])
    os.symlink("x.slmt", "link.slmt")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = {
        "quantize": quantize_args("w.slmt", "x.slmt", "q.slmq", report="q.json"),
        "inspect": ["inspect", "--weights", "w.slmt", "--calib", "x.slmt",
                    "--group-size", 16, "--out", "sal.csv"],
        "matmul": ["matmul", "--model", "m.slmq", "--input", "probe.slmt", "--out", "y.slmt"],
    }[command]
    argv[argv.index(output) + 1] = named
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error[InvalidConfig]: ")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("value", [0, -8])
@pytest.mark.parametrize("command", ["quantize", "inspect"])
def test_group_size_below_one_is_invalid_config(layer_files, tmp_path, capsys, command,
                                                 value):
    wpath, xpath, _, _ = layer_files
    argv = {
        "quantize": quantize_args(wpath, xpath, tmp_path / "m.slmq", group_size=value),
        "inspect": ["inspect", "--weights", wpath, "--calib", xpath, "--group-size", value,
                    "--out", tmp_path / "sal.csv"],
    }[command]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error[InvalidConfig]: ")
    assert sorted(tmp_path.iterdir()) == sorted([wpath, xpath])


@pytest.mark.parametrize("command, flag", [
    *[("quantize", flag) for flag in ("--percdamp", "--gamma-lambda", "--gamma-steps",
                                      "--kl-temperature", "--kl-epsilon",
                                      "--kl-max-tokens", "--emit-curve")],
    *[("eval", flag) for flag in ("--percdamp", "--kl-temperature", "--kl-epsilon",
                                  "--kl-max-tokens")],
    ("inspect", "--percdamp"),
])
def test_fixed_settings_are_not_options(layer_files, tmp_path, capsys, command, flag):
    # damping, divergence and gamma grid are fixed, so eval always scores
    # under the settings quantize scored under
    wpath, xpath, _, _ = layer_files
    inputs = ["--weights", wpath, "--calib", xpath]
    argv = {
        "quantize": quantize_args(wpath, xpath, tmp_path / "m.slmq"),
        "eval": ["eval", "--model", tmp_path / "m.slmq", *inputs],
        "inspect": ["inspect", *inputs, "--group-size", 16, "--out", tmp_path / "sal.csv"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in [*argv, flag, tmp_path / "value"]])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == sorted([wpath, xpath])
