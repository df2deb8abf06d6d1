"""The quantizer's and the packer's parameters, and the data model, are the
ones pinned here.

quantize_uniform derives a block's params itself, params_from_range gives
the unscaled (gamma = 1) params, and pack is told the average width target
that the file's header records: range calibration, the only caller that
scales a range, calls affine_params, and every caller of pack knows its
target. The width search takes the divergence reference its caller built
(allocate_bits has no second way to build one), range calibration takes
no settings, and pack_fields has one form, the array to_bytes joins.
The Gram matrix, the layer check and the quantizer take calibration as
one (T, m) array of token rows x, which load_calibration reads. A
group's params are its width, scales and zero-points, and the
width alone picks the rule encode and decode apply (sign/magnitude at
1 bit, affine above). A parameter that only tests pass goes against
ROADMAP aim 2 ("delete any knob that has no measured effect"), and a
second mode beside the width against its "keep one code path per stage".
"""

import dataclasses
import inspect

import pytest

from slimquant.packfmt import pack, pack_fields
from slimquant.pipeline import check_layer, quantize_layer
from slimquant.quant_core import (
    GroupQuantParams,
    decode,
    encode,
    params_from_range,
    quantize_uniform,
)
from slimquant.salience import accumulate_hessian
from slimquant.sba import allocate_bits, kl_reference
from slimquant.sqc import calibrate_group
from slimquant.tensor_store import load_calibration

ADVICE = "ROADMAP aim 2: delete any knob that has no measured effect"

# function -> the parameters it takes
SIGNATURES = {
    quantize_uniform: ["block", "bit_width"],
    params_from_range: ["lo", "hi", "bit_width"],
    pack: ["blocks", "n", "m", "beta", "target_bits"],
    pack_fields: ["values", "width"],
    allocate_bits: ["w", "ref", "sal", "beta", "target_bits"],
    kl_reference: ["x", "w"],
    calibrate_group: ["block", "bit_width", "u"],
    accumulate_hessian: ["x"],
    check_layer: ["w", "x", "beta"],
    quantize_layer: ["w", "x", "cfg"],
    load_calibration: ["path"],
}

# the only defaults: u = None is the identity factor, the walk without
# compensation
DEFAULTS = {(calibrate_group, "u"): None}

# the one quantizer rule: function -> the parameters it takes
RULE = {
    encode: ["w", "scale", "zero", "bit_width"],
    decode: ["codes", "scale", "zero", "bit_width", "out"],
}


@pytest.mark.parametrize("fn", SIGNATURES, ids=lambda fn: fn.__name__)
def test_takes_only_the_pinned_parameters(fn):
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn], ADVICE


def test_every_parameter_is_required():
    for fn in SIGNATURES:
        for p in inspect.signature(fn).parameters.values():
            want = DEFAULTS.get((fn, p.name), inspect.Parameter.empty)
            assert p.default is want, f"{fn.__name__}.{p.name}"


@pytest.mark.parametrize("fn", RULE, ids=lambda fn: fn.__name__)
def test_rule_takes_only_the_pinned_parameters(fn):
    assert list(inspect.signature(fn).parameters) == RULE[fn], ADVICE


def test_group_params_are_width_scale_and_zero():
    fields = [f.name for f in dataclasses.fields(GroupQuantParams)]
    assert fields == ["bit_width", "scale", "zero"], ADVICE
