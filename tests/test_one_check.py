"""eval, inspect and quantize reject a malformed layer by one check.

cli.py and pipeline.py are parsed with ast. pipeline.check_layer holds the
layer check (shape, finiteness, group size, channels); every function of
either module that forms a Gram matrix must call it on an earlier line,
and cli.py may not name BadGroupSize, so it cannot grow a partial copy of
the check again (ROADMAP aim 2: one code path per stage).
"""

import ast
from pathlib import Path

import slimquant
from test_one_product import called_name, enclosing_functions

PACKAGE = Path(slimquant.__file__).parent
AIM = "a Gram matrix is formed only after pipeline.check_layer (ROADMAP aim 2: one code path per stage)"


def first_calls(path: Path) -> dict[str, dict[str, int]]:
    """For each function of the module at path, the line of its first call
    to each name it calls."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = enclosing_functions(tree)
    first: dict[str, dict[str, int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node in owner:
            lines = first.setdefault(owner[node], {})
            name = called_name(node)
            lines[name] = min(lines.get(name, node.lineno), node.lineno)
    return first


def test_gram_matrix_is_formed_only_after_the_layer_check():
    forming, unchecked = set(), []
    for module in ("cli.py", "pipeline.py"):
        for fn, lines in first_calls(PACKAGE / module).items():
            gram = lines.get("accumulate_hessian")
            if gram is not None:
                forming.add(fn)
                if lines.get("check_layer", gram) >= gram:
                    unchecked.append(f"{module}:{fn}")
    assert forming >= {"cmd_eval", "cmd_inspect", "quantize_layer"}
    assert unchecked == [], AIM


def test_cli_does_not_check_group_sizes_itself():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert "BadGroupSize" not in names, AIM
