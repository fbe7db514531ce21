"""The package root's export set: pinned by name, each the object its module defines."""

import importlib
from pathlib import Path

import kvlut

# sorted(kvlut.__all__): a change to what the package root exports is an
# edit here.
EXPORTS = [
    'CalibrationSet', 'Codebook', 'ConfigConflictError', 'CorruptCacheError',
    'CorruptRomError', 'EmptyCalibrationError', 'FormatError',
    'InvalidDimensionError', 'InvalidInputError', 'IoError', 'JensenReport', 'KVCache',
    'KvlutError', 'LayerProfile', 'NonConvergenceError', 'NormDiagnostic', 'OpCounter',
    'PrecomputedTable', 'QuantizedKey', 'RotationSpec', 'SignSearchReport', 'SignVector',
    'SweepResult', 'SyntheticSpec', '__version__', 'analytic_distortion', 'candidate_mse',
    'dequantize_key', 'deserialize_rom', 'deserialize_signs', 'fwht',
    'generate_keys', 'infer_b', 'inverse_rotate', 'jensen_bias_probe', 'lloyd_residual',
    'load_key_matrix', 'max_residual', 'norm_ratio_diagnostic', 'pack_sign_rom',
    'packed_size', 'precompute_table', 'quantize_batch', 'random_signs', 'read_kvq',
    'read_sign_rom', 'rom_size', 'rotate', 'score_sequence', 'select_signs',
    'select_signs_all_layers', 'sensitivity_sweep', 'serialize_rom', 'serialize_signs',
    'solve_codebook', 'solve_lloyd_max', 'splitmix64_stream', 'unpack_sign_rom',
    'write_kvq', 'write_sign_rom',
]


def test_package_root_exports_the_pinned_names_once():
    assert sorted(kvlut.__all__) == EXPORTS
    assert len(kvlut.__all__) == len(set(kvlut.__all__)) == 60


def test_each_export_is_the_object_its_module_defines():
    # Every module but the CLI declares an __all__; each name in one comes
    # from that module alone, and the package root holds the same object.
    owners = {}
    for path in sorted(Path(kvlut.__file__).parent.glob("*.py")):
        if path.stem in ("__init__", "cli"):
            continue
        module = importlib.import_module(f"kvlut.{path.stem}")
        for name in module.__all__:
            owners.setdefault(name, []).append(module)
    assert sorted(owners) == [name for name in EXPORTS if name != "__version__"]
    for name, (module, *others) in owners.items():
        assert not others, name
        obj = getattr(kvlut, name)
        assert obj is getattr(module, name) and obj.__module__ == module.__name__, name
