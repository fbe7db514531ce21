"""Bit-accurate simulator of lookup-based attention scoring over a quantized
KV cache.

The pipeline: keys are norm-normalized, rotated by a signed Hadamard
transform, and scalar-quantized against a shared Lloyd-Max codebook
(write path); queries are rotated once and expanded into a d x 2^b
product table so scoring a key costs table lookups and additions instead
of a length-d dot product (read path).  Everything is instrumented with
an operation counter so the arithmetic-cost claims can be checked, not
estimated.
"""

from . import (codebook, errors, evalkit, opcount, read_path, reference, signopt,
               transform, write_path)
from .codebook import *
from .errors import *
from .evalkit import *
from .opcount import *
from .read_path import *
from .reference import *
from .signopt import *
from .transform import *
from .write_path import *

__version__ = "0.1.0"

__all__ = ["__version__", *codebook.__all__, *transform.__all__, *write_path.__all__,
           *reference.__all__, *read_path.__all__, *signopt.__all__, *evalkit.__all__,
           *opcount.__all__, *errors.__all__]
