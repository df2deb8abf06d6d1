"""Salience-driven mixed-precision weight quantization.

Quantizes standalone weight matrices against calibration activations:
second-order salience ranks column groups, a paired promote/demote search
assigns per-group bit widths around the average target, and one walk over
each group's columns picks every row's range factor by its compensated
loss while spreading rounding error onto unprocessed columns through the
inverse activation Gram factor.
Results serialize to a bit-exact packed format with a reference kernel.

The package exports its entry points; every other name is imported from
its module.
"""

from .errors import SlimQuantError
from .kernel import dense_reference, packed_matmul
from .packfmt import pack, read_packed, write_packed
from .pipeline import PipelineConfig, QuantizationResult, quantize_layer
from .tensor_store import read_tensor, write_tensor

__version__ = "0.1.0"

__all__ = [
    "PipelineConfig",
    "QuantizationResult",
    "SlimQuantError",
    "dense_reference",
    "pack",
    "packed_matmul",
    "quantize_layer",
    "read_packed",
    "read_tensor",
    "write_packed",
    "write_tensor",
    "__version__",
]
