"""The benchmark's single doorway into kvlut.

Every call the benchmark makes into the program goes through `Kvlut`, which
uses only names exported in `kvlut.__all__` plus the CLI entry point with an
argv list.  Each call is wrapped in a tracer span named after the module it
enters, so a traced run times every layer from outside the program.  When
the program's API changes (a columnar cache, say), this is the one file a
benchmark update has to touch.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np


class ProgramMissing(RuntimeError):
    """The checkout holds no importable kvlut source tree."""


def import_kvlut(root: Path):
    """Import kvlut from `root/src`, refusing any other copy on the path."""
    src = (root / "src").resolve()
    if not (src / "kvlut" / "__init__.py").is_file():
        raise ProgramMissing(f"no kvlut package under {src}")
    sys.path.insert(0, str(src))
    import kvlut
    import kvlut.cli
    if Path(kvlut.__file__).resolve().parent != src / "kvlut":
        raise ProgramMissing(f"imported kvlut from {kvlut.__file__}, not {src}")
    return kvlut


class Kvlut:
    """Traced wrappers over the public kvlut API."""

    def __init__(self, kvlut, tracer):
        self.k = kvlut
        self.cli_main = kvlut.cli.main
        self.tr = tracer
        self.Error = kvlut.KvlutError

    # -- codebook ---------------------------------------------------------

    def solve_codebook(self, d: int, b: int):
        with self.tr.span(f"codebook.solve.b{b}"):
            return self.k.solve_codebook(d, b)

    def rom_round_trip(self, cb) -> tuple[bytes, bytes]:
        """ROM image of `cb`, and the image re-serialized from its decode."""
        with self.tr.span("codebook.rom"):
            rom = self.k.serialize_rom(cb)
            return rom, self.k.serialize_rom(self.k.deserialize_rom(rom, cb.d, cb.b))

    def residual(self, cb) -> float:
        return max(self.k.lloyd_residual(cb.centroids, cb.boundaries),
                   self.k.max_residual(cb.sigma, cb.centroids, cb.boundaries))

    def rom_size(self, b: int) -> int:
        return self.k.rom_size(b)

    # -- transform --------------------------------------------------------

    def rotation(self, d: int, seed: int, layer: int = 0):
        with self.tr.span("transform.random_signs"):
            return self.k.RotationSpec(d=d, sign=self.k.random_signs(d, seed, layer_id=layer))

    def rotations_from_rom(self, path) -> list:
        with self.tr.span("transform.read_sign_rom"):
            return [self.k.RotationSpec(d=s.d, sign=s) for s in self.k.read_sign_rom(path)]

    def rotate(self, spec, x: np.ndarray) -> np.ndarray:
        with self.tr.span("transform.rotate.query" if x.ndim == 1 else "transform.rotate.block"):
            return self.k.rotate(spec, x)

    def pack_signs(self, reports) -> bytes:
        with self.tr.span("transform.pack_sign_rom"):
            return self.k.pack_sign_rom([r.selected for r in reports])

    # -- write path -------------------------------------------------------

    def counter(self):
        return self.k.OpCounter()

    def quantize(self, keys, spec, cb, counter):
        """Flat-comparator write path: (indices (T, d) uint8, norms (T,))."""
        with self.tr.span("write_path.quantize_batch"):
            return self.k.quantize_batch(keys, spec, cb, counter, comparator="flat")

    def to_cache(self, idx: np.ndarray, norms: np.ndarray):
        with self.tr.span("write_path.records"):
            return [self.k.QuantizedKey(indices=idx[i], norm=np.float16(norms[i]))
                    for i in range(idx.shape[0])]

    def cache_arrays(self, cache) -> tuple[np.ndarray, np.ndarray]:
        """A cache as (indices (T, d) uint8, norms (T,) float16)."""
        return (np.stack([qk.indices for qk in cache]),
                np.array([qk.norm for qk in cache], dtype=np.float16))

    def write_kvq(self, path, cache, d: int, b: int, layer: int) -> None:
        with self.tr.span("write_path.write_kvq"):
            self.k.write_kvq(path, cache, d, b, layer_id=layer)

    def read_kvq(self, path):
        """(cache, d, b, layer_id) from a .kvq file."""
        with self.tr.span("write_path.read_kvq"):
            return self.k.read_kvq(path)

    def dequantize(self, cache, spec, cb) -> np.ndarray:
        """Reconstructed keys (T, d), the dequantize half of the oracle."""
        with self.tr.span("write_path.dequantize"):
            return np.array([self.k.dequantize_key(qk, spec, cb) for qk in cache])

    # -- read path --------------------------------------------------------

    def score(self, q, cache, spec, cb, mode: str):
        """(scores, counter) for one query over the whole cache."""
        with self.tr.span(f"read_path.score.{mode}"):
            return self.k.score_sequence(q, cache, spec, cb, mode)

    def table(self, q, spec, cb) -> np.ndarray:
        with self.tr.span("read_path.precompute_table"):
            return self.k.precompute_table(q, spec, cb).entries

    # -- sign selection ---------------------------------------------------

    def calibration_set(self, keys: np.ndarray, layer: int):
        return self.k.CalibrationSet(keys=keys, layer_id=layer)

    def select_signs(self, cs, C: int, b: int, base_seed: int):
        with self.tr.span("signopt.select"):
            return self.k.select_signs(cs, C, b, base_seed)

    def select_signs_all_layers(self, layers: dict, C: int, b: int, base_seed: int):
        with self.tr.span("signopt.select_all"):
            return self.k.select_signs_all_layers(layers, C, b, base_seed)

    def norm_diagnostic(self, layers: dict):
        with self.tr.span("signopt.norm_diag"):
            return self.k.norm_ratio_diagnostic(layers)

    # -- command line -----------------------------------------------------

    def cli(self, argv: list[str], variant: str = "") -> tuple[int, str]:
        """Run one subcommand in-process; (exit code, captured stdout).

        `variant` only names the span, so calls of one subcommand with
        different flags are timed apart.
        """
        name = f"cli.{argv[0]}" + (f".{variant}" if variant else "")
        out = io.StringIO()
        with self.tr.span(name), contextlib.redirect_stdout(out):
            code = self.cli_main(argv)
        return code, out.getvalue()
