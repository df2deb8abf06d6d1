"""Every error type in errors.py is raised somewhere in the package, and
the package's array-taking entry points refuse an array of anything but
real numbers with one.

Each src/slimquant/*.py is parsed with ast. SlimQuantError and each class
in errors.py derived from it must appear in at least one `raise`
statement, so a type whose last raise is deleted goes with it.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import slimquant
from slimquant import (
    PipelineConfig,
    SlimQuantError,
    dense_reference,
    pack,
    packed_matmul,
    quantize_layer,
    write_tensor,
)

SOURCES = sorted(Path(slimquant.__file__).parent.glob("*.py"))


def error_classes(tree: ast.Module) -> set[str]:
    """SlimQuantError and the classes of the module derived from it."""
    found = {"SlimQuantError"}
    for node in tree.body:  # a class follows its bases in errors.py
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id in found for b in node.bases
        ):
            found.add(node.name)
    return found


def raised_names(tree: ast.Module) -> set[str]:
    """Names of the classes the module raises, called or bare."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    raised = set().union(*map(raised_names, trees.values()))
    assert sorted(error_classes(trees["errors"]) - raised) == []


# dtypes that hold no real numbers; a float array cast to each keeps its
# shape, and a string of digits is what numpy would otherwise parse
NON_REAL = [np.complex64, np.complex128, object, np.str_, np.bytes_]
CFG = PipelineConfig(beta=8, bits=2)
W = np.random.default_rng(3).standard_normal((4, 16)).astype(np.float32)
X = np.random.default_rng(4).standard_normal((8, 16)).astype(np.float32)
MODEL = pack(quantize_layer(W, X, CFG).blocks, 4, 16, 8, CFG.bits)


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("non_real") / "t.slmt"


@settings(max_examples=100)
@given(
    entry=st.sampled_from(
        ["quantize_layer w", "quantize_layer x", "packed_matmul", "dense_reference", "write_tensor"]
    ),
    dtype=st.sampled_from(NON_REAL),
    rows=st.integers(1, 8),
    data=st.data(),
)
def test_non_real_arrays_raise_typed_errors(out_path, entry, dtype, rows, data):
    shape = (4, 16) if entry == "quantize_layer w" else (rows, 16)
    a = data.draw(arrays(np.float32, shape, elements=st.floats(-100, 100, width=32)))
    a = a.astype(dtype)
    run = {
        "quantize_layer w": lambda: quantize_layer(a, X, CFG),
        "quantize_layer x": lambda: quantize_layer(W, a, CFG),
        "packed_matmul": lambda: packed_matmul(MODEL, a),
        "dense_reference": lambda: dense_reference(MODEL, a),
        "write_tensor": lambda: write_tensor(out_path, a),
    }[entry]
    with pytest.raises(SlimQuantError, match="real numbers"):
        run()
    assert not out_path.exists()
