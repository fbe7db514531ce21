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

from .codebook import (Codebook, analytic_distortion, deserialize_rom,
                       infer_b, lloyd_residual, max_residual, rom_size,
                       serialize_rom, solve_codebook, solve_lloyd_max)
from .errors import (ConfigConflictError, CorruptCacheError, CorruptRomError,
                     EmptyCalibrationError, FormatError, InvalidDimensionError,
                     InvalidInputError, IoError, KvlutError,
                     NonConvergenceError)
from .evalkit import (ErrorReport, JensenReport, LayerProfile, SweepResult,
                      SyntheticSpec, evaluate_pipeline, generate_keys,
                      jensen_bias_probe, sensitivity_sweep)
from .opcount import OpCounter
from .read_path import PrecomputedTable, precompute_table, score_sequence
from .reference import dequantize_key
from .signopt import (CalibrationSet, NormDiagnostic, SignSearchReport,
                      candidate_mse, norm_ratio_diagnostic, select_signs,
                      select_signs_all_layers)
from .transform import (RotationSpec, SignVector, deserialize_signs, fwht,
                        inverse_rotate, pack_sign_rom, random_signs,
                        read_sign_rom, rotate, serialize_signs,
                        splitmix64_stream, unpack_sign_rom, write_sign_rom)
from .write_path import (KVCache, QuantizedKey, load_key_matrix, pack,
                         packed_size, quantize_batch, read_kvq, unpack,
                         write_kvq)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # codebook
    "Codebook", "solve_codebook", "solve_lloyd_max", "analytic_distortion",
    "lloyd_residual", "max_residual", "serialize_rom", "deserialize_rom",
    "rom_size", "infer_b",
    # transform
    "SignVector", "RotationSpec", "fwht", "rotate", "inverse_rotate",
    "splitmix64_stream", "random_signs", "serialize_signs",
    "deserialize_signs", "pack_sign_rom", "unpack_sign_rom",
    "write_sign_rom", "read_sign_rom",
    # write path
    "QuantizedKey", "KVCache", "quantize_batch", "dequantize_key",
    "pack", "unpack", "packed_size", "write_kvq", "read_kvq",
    "load_key_matrix",
    # read path
    "PrecomputedTable", "precompute_table", "score_sequence",
    # sign selection
    "CalibrationSet", "SignSearchReport", "NormDiagnostic", "candidate_mse",
    "select_signs", "select_signs_all_layers", "norm_ratio_diagnostic",
    # evaluation
    "LayerProfile", "SyntheticSpec", "ErrorReport", "JensenReport",
    "SweepResult", "generate_keys", "evaluate_pipeline", "jensen_bias_probe",
    "sensitivity_sweep",
    # instrumentation and errors
    "OpCounter",
    "KvlutError", "IoError", "FormatError", "CorruptRomError",
    "CorruptCacheError", "InvalidDimensionError", "InvalidInputError",
    "NonConvergenceError", "ConfigConflictError", "EmptyCalibrationError",
]
