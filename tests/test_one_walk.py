"""pipeline.py and sqc.py quantize a group's columns one way.

Both modules are parsed with ast. Every group, calibrated or not, with
compensation on or off, goes through sqc's walk, so across the two modules
exactly one function may call quant_core's encode and decode: the walk,
which encodes one column at a time. Neither module may quantize a whole
block with quantize_uniform. A second column loop would round in its own
way and let the calibration's scores and the deployed codes drift apart
(ROADMAP aim 2: one code path per stage).
"""

import ast
from pathlib import Path

import slimquant
from test_one_product import called_name, enclosing_functions

SOURCES = [Path(slimquant.__file__).parent / name for name in ("pipeline.py", "sqc.py")]
AIM = "groups must be quantized only by sqc's walk (ROADMAP aim 2: one code path per stage)"


def callers(name: str) -> list[str]:
    """The function each call of name in SOURCES is made from."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = enclosing_functions(tree)
        found += [
            f"{path.stem}.{owner.get(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and called_name(node) == name
        ]
    return found


def test_one_function_encodes_each_column():
    assert callers("encode") == ["sqc._walk"], AIM
    assert callers("decode") == ["sqc._walk"], AIM
    assert callers("quantize_uniform") == [], AIM
