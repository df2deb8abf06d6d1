"""The width search and the scores share one divergence reference per run.

Every module of the package is parsed with ast. sba.kl_reference builds
the exact layer's side of every divergence, so it may be called only
where a run starts: once in pipeline.quantize_layer, whose reference
serves the width search and the final score, and once in cli.cmd_eval.
allocate_bits takes that reference and cannot build a second one, which
could round the rows another way (ROADMAP aim 2: one code path per stage).
"""

import ast
from pathlib import Path

import slimquant
from test_one_product import called_name, enclosing_functions

PACKAGE = Path(slimquant.__file__).parent
AIM = "kl_reference is called only by quantize_layer and cmd_eval (ROADMAP aim 2: one code path per stage)"


def test_reference_is_built_only_where_a_run_starts():
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = enclosing_functions(tree)
        callers += [
            f"{path.stem}.{owner.get(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and called_name(node) == "kl_reference"
        ]
    assert sorted(callers) == ["cli.cmd_eval", "pipeline.quantize_layer"], AIM
