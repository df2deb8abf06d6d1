"""Each kind of input is checked by one rule, and its readers call it.

The package's modules are parsed with ast. Three rules hold the input
checks: quant_core.check_group for a quantized group (pack and dequantize),
errors.require_rows for calibration token rows (check_layer,
accumulate_hessian and kl_reference) and errors.require_real for a float
block's dtype (quant_core.as_block, every quantizer's entry). A copy of a
rule drifts from it, so the rule's telltale parts may not appear outside
it (ROADMAP aim 2: one code path per stage).
"""

import ast
from pathlib import Path

import slimquant
from test_one_check import first_calls
from test_one_product import called_name, enclosing_functions

PACKAGE = Path(slimquant.__file__).parent
AIM = "each input is checked by its one rule (ROADMAP aim 2: one code path per stage)"


def parsed(module: str) -> tuple[ast.Module, dict[ast.AST, str]]:
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    return tree, enclosing_functions(tree)


def test_empty_calibration_is_raised_only_by_the_rows_rule():
    raisers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree, owner = parsed(path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "EmptyCalibration":
                    raisers.add(f"{path.name}:{owner.get(node)}")
    assert raisers == {"errors.py:require_rows"}, AIM


def test_only_the_group_rule_takes_the_code_range():
    # the code-range test is a .min or .max with initial=, so that an empty
    # array passes
    takers = set()
    for module in ("quant_core.py", "packfmt.py"):
        tree, owner = parsed(module)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and called_name(node) in ("min", "max")
                    and any(k.arg == "initial" for k in node.keywords)):
                takers.add(f"{module}:{owner.get(node)}")
    assert takers == {"quant_core.py:check_group"}, AIM


def test_each_reader_calls_its_rule():
    readers = {
        ("packfmt.py", "pack"): "check_group",
        ("quant_core.py", "dequantize"): "check_group",
        ("pipeline.py", "check_layer"): "require_rows",
        ("salience.py", "accumulate_hessian"): "require_rows",
        ("sba.py", "kl_reference"): "require_rows",
        ("quant_core.py", "as_block"): "require_real",
    }
    missing = [f"{module}:{fn} does not call {rule}" for (module, fn), rule in readers.items()
               if rule not in first_calls(PACKAGE / module).get(fn, {})]
    assert missing == [], AIM
