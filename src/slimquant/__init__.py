"""Salience-driven mixed-precision weight quantization.

Quantizes standalone weight matrices against calibration activations:
second-order salience ranks column groups, a paired promote/demote search
assigns per-group bit widths around the average target, and one walk over
each group's columns picks every row's range factor by its compensated
loss while spreading rounding error onto unprocessed columns through the
inverse activation Gram factor.
Results serialize to a bit-exact packed format with a reference kernel.
"""

from .errors import SlimQuantError
from .kernel import dense_reference, packed_matmul
from .packfmt import PackedModel, pack, packed_size_report, read_packed, write_packed
from .pipeline import (
    PipelineConfig,
    QuantizationResult,
    proxy_loss,
    quantize_layer,
    reconstruct,
    score,
)
from .quant_core import (
    GroupQuantParams,
    QuantizedBlock,
    block_mse,
    dequantize,
    quantize_uniform,
)
from .salience import (
    HessianState,
    SalienceMap,
    accumulate_hessian,
    damp_and_invert,
    salience_map,
    salient_mask_3sigma,
)
from .sba import BitPlan, KlReference, allocate_bits, kl_reference, output_kl
from .sqc import calibrate_group
from .tensor_store import load_calibration, read_tensor, write_tensor

__version__ = "0.1.0"

__all__ = [
    "BitPlan",
    "GroupQuantParams",
    "HessianState",
    "KlReference",
    "PackedModel",
    "PipelineConfig",
    "QuantizationResult",
    "QuantizedBlock",
    "SalienceMap",
    "SlimQuantError",
    "accumulate_hessian",
    "allocate_bits",
    "block_mse",
    "calibrate_group",
    "damp_and_invert",
    "dense_reference",
    "dequantize",
    "kl_reference",
    "load_calibration",
    "output_kl",
    "pack",
    "packed_matmul",
    "packed_size_report",
    "proxy_loss",
    "quantize_layer",
    "quantize_uniform",
    "read_packed",
    "read_tensor",
    "reconstruct",
    "salience_map",
    "salient_mask_3sigma",
    "score",
    "write_packed",
    "write_tensor",
    "__version__",
]
