"""Activation files are read one way, and calibration is one row matrix.

tensor_store.py, cli.py and every other module of the package are parsed
with ast. tensor_store.read_rows is the one reader of activation files: a
2-D tensor is its rows, a 3-D tensor of samples is reshaped to rows.
load_calibration and cmd_matmul both call it, and cli.py neither reshapes
nor tests the rank of anything, so it cannot grow a second reader. A
CalibrationSet holds only its rows, so no module reads a list of samples
or a stacked copy (ROADMAP aim 2: one code path per stage).
"""

import ast
from pathlib import Path

import slimquant
from test_one_check import first_calls

PACKAGE = Path(slimquant.__file__).parent
AIM = "activation files are read only by tensor_store.read_rows (ROADMAP aim 2: one code path per stage)"


def attributes(path: Path) -> list[ast.Attribute]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def test_both_activation_readers_call_read_rows():
    assert "read_rows" in first_calls(PACKAGE / "tensor_store.py")["load_calibration"], AIM
    assert "read_rows" in first_calls(PACKAGE / "cli.py")["cmd_matmul"], AIM


def test_cli_does_not_reshape_or_test_ranks():
    names = {node.attr for node in attributes(PACKAGE / "cli.py")}
    assert not names & {"reshape", "ndim"}, AIM


def test_no_module_reads_samples_or_a_stacked_copy():
    # args.samples is `gen calib --samples`, the sample count of a
    # generated file
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in attributes(path)
        if node.attr in ("samples", "stacked")
        and not (isinstance(node.value, ast.Name) and node.value.id == "args")
    ]
    assert found == [], "a CalibrationSet holds only its rows"
