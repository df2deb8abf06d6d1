"""The quantizer's and the packer's parameters are the ones pinned here.

quantize_uniform derives a block's params itself, params_from_range gives
the unscaled (gamma = 1) params, and pack is told the average width target
that the file's header records: range calibration, the only caller that
scales a range, calls affine_params, and every caller of pack knows its
target. A parameter that only tests pass goes against ROADMAP aim 2
("delete any knob that has no measured effect").
"""

import inspect

import pytest

from slimquant.packfmt import pack
from slimquant.quant_core import params_from_range, quantize_uniform

ADVICE = "ROADMAP aim 2: delete any knob that has no measured effect"

# function -> the parameters it takes
SIGNATURES = {
    quantize_uniform: ["block", "bit_width"],
    params_from_range: ["lo", "hi", "bit_width"],
    pack: ["blocks", "n", "m", "beta", "target_bits"],
}


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__name__)
def test_takes_only_the_pinned_parameters(fn):
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn], ADVICE


def test_every_parameter_is_required():
    for fn in SIGNATURES:
        for p in inspect.signature(fn).parameters.values():
            assert p.default is inspect.Parameter.empty, f"{fn.__name__}.{p.name}"
