"""The determinism claim across BLAS thread counts.

CLI quantize runs in two fresh processes, with the BLAS thread count set
to 1 and then 2 before numpy loads. The layer is large enough that
OpenBLAS splits its products between two threads, and its plan has 1-bit
groups. The .slmq bytes and the report minus its timing block must match,
except proxy_loss, which is compared to 1e-12 relative: the Cholesky
factor of the Gram matrix differs in its low bits between thread counts,
and on the benchmark's 1024x4096 layer that moves proxy_loss in its last
bit while the codes, plan and KL curve stay the same (the README's
determinism paragraph).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slimquant
from fixtures import clustered_layer
from slimquant.tensor_store import write_tensor

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def thread_env(threads: int) -> dict:
    """The environment of a fresh process with `threads` BLAS threads that
    imports this checkout's slimquant."""
    env = dict(os.environ)
    env.update({v: str(threads) for v in THREAD_VARS})
    src = str(Path(slimquant.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return env


def quantize(tmp_path: Path, threads: int) -> tuple[bytes, dict]:
    env = thread_env(threads)
    out = tmp_path / f"m{threads}.slmq"
    subprocess.run(
        [sys.executable, "-m", "slimquant.cli", "quantize", "--weights", tmp_path / "w.slmt",
         "--calib", tmp_path / "x.slmt", "--out", out, "--group-size", "128"],
        env=env, check=True, capture_output=True,
    )
    report = json.loads(out.with_name(out.name + ".json").read_text())
    assert report["timing"]["blas_thread_env"]["OPENBLAS_NUM_THREADS"] == str(threads)
    return out.read_bytes(), report


def test_one_and_two_blas_threads_give_the_same_model(tmp_path):
    w, x = clustered_layer(0, n=256, m=1024, t=2048)
    write_tensor(tmp_path / "w.slmt", w)
    write_tensor(tmp_path / "x.slmt", x)
    (blob1, report1), (blob2, report2) = quantize(tmp_path, 1), quantize(tmp_path, 2)
    assert 1 in report1["plan"]["bits"]
    assert blob1 == blob2
    loss1 = report1["metrics"].pop("proxy_loss")
    loss2 = report2["metrics"].pop("proxy_loss")
    assert loss2 == pytest.approx(loss1, rel=1e-12, abs=0.0)
    del report1["timing"], report2["timing"]
    assert report1 == report2


GRAM_HASH = """
import hashlib, sys
from slimquant.salience import accumulate_hessian
from slimquant.tensor_store import load_calibration
H = accumulate_hessian(load_calibration(sys.argv[1]))
print(hashlib.sha256(H.tobytes()).hexdigest())
"""


def test_gram_matrix_is_the_same_under_one_and_two_blas_threads(tmp_path):
    # the README's determinism paragraph: the thread count moves the
    # Cholesky factor's low bits, but not the dsyrk-built Gram matrix
    _, x = clustered_layer(0, n=256, m=1024, t=2048)
    write_tensor(tmp_path / "x.slmt", x)
    digests = [
        subprocess.run(
            [sys.executable, "-c", GRAM_HASH, tmp_path / "x.slmt"],
            env=thread_env(threads), check=True, capture_output=True, text=True,
        ).stdout
        for threads in (1, 2)
    ]
    assert len(digests[0]) == 65
    assert digests[0] == digests[1]
