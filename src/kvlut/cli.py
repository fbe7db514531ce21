"""Command-line entry point wiring codebooks, signs, caches, and evaluation.

Artifacts are binary with versioned headers (sign ROMs, caches); reports are
JSON with sorted keys and no timestamps, so identical invocations produce
byte-identical outputs.  The codebook ROM is the one headerless artifact (its
size is part of the design contract); its (d, b) travel in a JSON sidecar
written next to it and are cross-checked against the other artifacts'
headers on load.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import codebook as cbmod
from .errors import (ConfigConflictError, FormatError, InvalidInputError,
                     IoError, KvlutError, _MAX_DRAWN_VALUES, _check_power_of_two,
                     _layer_items)
from .evalkit import (LayerProfile, SyntheticSpec, _check_jensen_args, generate_keys,
                      jensen_bias_probe, sensitivity_sweep)
from .opcount import OpCounter
from .read_path import score_sequence
from .reference import score_sequence_reference
from .signopt import CalibrationSet, norm_ratio_diagnostic, select_signs_all_layers
from .transform import (RotationSpec, SignVector, _check_rom_header, _open_sign_rom,
                        _seed64, random_signs, write_sign_rom)
from .write_path import (_TYPED_KEY_SUFFIXES, KVCache, load_key_matrix, quantize_batch,
                         read_kvq, write_kvq)

__all__ = ["main"]


def _check_consistent(name: str, *sources: tuple[str, int | None]) -> int:
    """Cross-check one parameter across flags and artifact headers.

    Every caller passes at least one source that is never None: a rows
    matrix's width or the codebook ROM's length.
    """
    seen: dict[int, str] = {}
    for origin, value in sources:
        if value is not None:
            seen.setdefault(int(value), origin)
    if len(seen) > 1:
        detail = ", ".join(f"{origin}={value}" for value, origin in seen.items())
        raise ConfigConflictError(f"conflicting {name}: {detail}")
    return next(iter(seen))


def _json_text(value, pad: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2), each line after the first
    indented by pad.

    The encoder runs Python code per float under indent, so a list of floats
    is joined in C over float.__repr__, the encoder's own text for a finite
    float; a list whose text holds nan or inf falls back to the encoder's
    NaN/Infinity tokens.  A dict with str keys and a list among its values is
    walked to reach such lists.  Anything else is one json.dumps call, so a
    report with no list is encoded as a whole.
    """
    inner = pad + "  "
    if type(value) is list and set(map(type, value)) == {float}:
        text = (",\n" + inner).join(map(float.__repr__, value))
        if "n" not in text:
            return f"[\n{inner}{text}\n{pad}]"
    elif (type(value) is dict and all(type(k) is str for k in value)
          and any(type(v) is list for v in value.values())):
        body = (",\n" + inner).join(f"{json.dumps(k)}: {_json_text(v, inner)}"
                                    for k, v in sorted(value.items()))
        return f"{{\n{inner}{body}\n{pad}}}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def _write_json(path: str | None, payload: dict) -> None:
    """Write payload as json.dumps(payload, sort_keys=True, indent=2) + newline."""
    text = _json_text(payload) + "\n"
    if path is None:
        print(text, end="")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def _sidecar_path(rom_path: str) -> str:
    return rom_path + ".json"


def _load_codebook(path: str, d_sources: list[tuple[str, int | None]],
                   b_sources: list[tuple[str, int | None]]) -> cbmod.Codebook:
    """Load a codebook ROM, resolving (d, b) across headers and the sidecar."""
    with open(path, "rb") as fh:
        blob = fh.read()
    b_len = cbmod.infer_b(len(blob))
    try:
        side = _read_json(_sidecar_path(path))
    except FileNotFoundError:
        side = {}
    if not isinstance(side, dict):
        raise FormatError(f"codebook sidecar for {path} is not a JSON object")
    side_d, side_b = side.get("d"), side.get("b")
    if not all(v is None or type(v) is int for v in (side_d, side_b)):
        raise InvalidInputError(
            f"codebook sidecar for {path} needs integer d and b, "
            f"got d={side_d!r}, b={side_b!r}")
    b = _check_consistent("b", *b_sources, ("rom-length", b_len),
                          ("sidecar", side_b))
    d = _check_consistent("d", *d_sources, ("sidecar", side_d))
    return cbmod.deserialize_rom(blob, d, b)


def _load_keys_cli(path: str, d: int | None) -> np.ndarray:
    # Raw files structurally need d to recover rows; typed files carry their
    # own width, and a width mismatch goes through the config cross-check so
    # it surfaces as a conflict rather than a loader error.
    if str(path).endswith(_TYPED_KEY_SUFFIXES):
        return load_key_matrix(path)
    return load_key_matrix(path, d)


def _open_layer(args, rows_path: str, layer: int, cache_db: tuple[int, int] | None = None
                ) -> tuple[np.ndarray, RotationSpec, cbmod.Codebook]:
    """The rows of rows_path, and the layer's rotation and codebook.

    d is the sign ROM's (and cache_db's, a cache header's (d, b)), b the
    codebook ROM length's (and the cache's); a raw rows file takes the
    cache's d, else the ROM's.  The rows' width and the sidecar must agree.
    """
    rom = _open_sign_rom(args.signs)
    cache_d, cache_b = cache_db or (None, None)
    rows = _load_keys_cli(rows_path, cache_d or rom.d)
    cb = _load_codebook(
        args.codebook,
        [(rows_path, rows.shape[1]), ("cache", cache_d), ("sign-rom", rom.d)],
        [("cache", cache_b)])
    return rows, RotationSpec(d=cb.d, sign=rom.layer(layer)), cb


def _load_layer_sets(paths: list[str], d: int | None) -> dict[int, CalibrationSet]:
    mats = [(p, _load_keys_cli(p, d)) for p in paths]
    _check_consistent("d", ("--d", d), *[(p, m.shape[1]) for p, m in mats])
    return {i: CalibrationSet(keys=m, layer_id=i) for i, (_, m) in enumerate(mats)}


def _synthetic_from_json(path: str) -> SyntheticSpec:
    raw = _read_json(path)
    profiles = raw.get("profiles", [{}]) if isinstance(raw, dict) else None
    if not (isinstance(profiles, list)
            and all(isinstance(p, dict) for p in profiles)):
        raise InvalidInputError(
            f"synthetic spec {path} must be an object with a list of profile objects")
    try:
        return SyntheticSpec(
            d=int(raw["d"]), N=int(raw["N"]),
            profiles=tuple(LayerProfile(
                scale=float(p.get("scale", 1.0)),
                gain=p.get("gain"),
                direction_gain=float(p.get("direction_gain", 1.0)),
            ) for p in profiles),
            seed=int(raw.get("seed", 0)))
    except KeyError as exc:
        raise InvalidInputError(f"synthetic spec {path} lacks field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"synthetic spec {path} has an invalid field: {exc}") from exc


def _number_list(text: str, kind=int) -> list:
    """A comma-separated list of kind (int or float); empty items are skipped."""
    try:
        return [kind(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise InvalidInputError(
            f"expected a comma-separated list of {kind.__name__} values: {text!r}") from exc


# -- subcommand handlers --------------------------------------------------
# Each returns its report payload and its summary text; main writes both.

def _cmd_solve_codebook(args) -> tuple[dict, str]:
    cb = cbmod.solve_codebook(args.d, args.b)
    blob = cbmod.serialize_rom(cb)
    lloyd = cbmod.lloyd_residual(cb.centroids, cb.boundaries)
    maxr = cbmod.max_residual(cb.sigma, cb.centroids, cb.boundaries)
    report = {
        "d": cb.d,
        "b": cb.b,
        "tol": cbmod.DEFAULT_TOL,
        "rom_bytes": len(blob),
        "lloyd_residual": lloyd,
        "max_residual": maxr,
        "distortion": cbmod.analytic_distortion(cb),
        "centroids": [float(c) for c in cb.centroids],
        "boundaries": [float(t) for t in cb.boundaries],
    }
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
        _write_json(_sidecar_path(args.out), {"d": cb.d, "b": cb.b})
    return report, (f"solved d={cb.d} b={cb.b}: {len(blob)} bytes, "
                    f"lloyd {lloyd:.3e}, max {maxr:.3e}")


def _cmd_gen_signs(args) -> tuple[dict, str]:
    d = args.d
    if args.seeds is not None:
        seeds = _number_list(args.seeds)
    else:
        seeds = range(args.base_seed + 1, args.base_seed + 1 + args.layers)
    # Before any sign is built: --d 2147483648 would otherwise exhaust memory.
    _check_rom_header(d, len(seeds))
    signs = [random_signs(d, sd, layer_id=i) for i, sd in enumerate(seeds)]
    write_sign_rom(args.out, signs)
    return ({"d": d, "layers": len(signs), "seeds": list(seeds)},
            f"wrote {len(signs)} sign vectors (d={d}) to {args.out}")


def _cmd_optimize_signs(args) -> tuple[dict, str]:
    layers = _load_layer_sets(args.keys, args.d)
    reports, rom = select_signs_all_layers(layers, C=args.candidates, b=args.b,
                                           base_seed=args.base_seed)
    with open(args.out, "wb") as fh:
        fh.write(rom)
    spreads = ", ".join(f"L{r.selected.layer_id}:{r.spread:.3f}" for r in reports)
    return ({"b": args.b,
             "candidates": args.candidates,
             "base_seed": args.base_seed,
             "layers": [r.to_dict() for r in reports]},
            f"selected signs for {len(reports)} layer(s); spread {spreads}")


def _cmd_quantize(args) -> tuple[dict, str]:
    keys, spec, cb = _open_layer(args, args.keys, args.layer)
    counter = OpCounter()
    idx, norms = quantize_batch(keys, spec, cb, counter)
    # A norm past half's range is stored as +inf, which marks an overflowed
    # key: the line below names it in place of numpy's cast warning.
    with np.errstate(over="ignore"):
        cache = KVCache(idx, norms)
    overflowed = np.flatnonzero(np.isinf(cache.norms))
    if overflowed.size:
        print(f"warning: {overflowed.size} of {len(cache)} key norms overflow half "
              f"precision and are stored as +inf; the first is key {overflowed[0]}",
              file=sys.stderr)
    write_kvq(args.out, cache, cb.d, cb.b, layer_id=args.layer)
    return ({"d": cb.d, "b": cb.b, "T": len(cache), "layer": args.layer,
             "comparator": "flat",
             "ops": counter.to_dict()},
            f"quantized {len(cache)} keys (d={cb.d}, b={cb.b}) to {args.out}")


def _cmd_simulate_attention(args) -> tuple[dict, str]:
    cache, cache_d, cache_b, layer_id = read_kvq(args.cache)
    qmat, spec, cb = _open_layer(args, args.query, layer_id, (cache_d, cache_b))
    if qmat.shape[0] != 1:
        raise InvalidInputError(
            f"query file must hold exactly one row, got {qmat.shape[0]}")
    scores, counter = score_sequence(qmat[0], cache, spec, cb, mode=args.mode)
    saturated = np.flatnonzero(~np.isfinite(scores))
    if saturated.size:
        print(f"warning: {saturated.size} of {len(cache)} {args.mode} scores are not "
              f"finite; the first is key {saturated[0]}", file=sys.stderr)
    payload = {
        "d": cb.d, "b": cb.b, "T": len(cache), "layer": layer_id,
        "mode": args.mode,
        "scores": scores.tolist(),
        "saturated": int(saturated.size),
        "ops": counter.to_dict(),
    }
    if args.reference:
        ref_scores, ref_counter = score_sequence_reference(qmat[0], cache, spec, cb)
        payload["reference_scores"] = ref_scores.tolist()
        payload["reference_ops"] = ref_counter.to_dict()
    mults = counter.mults_in("table", "score")
    return payload, (f"scored T={len(cache)} keys in {args.mode} mode: "
                     f"{mults} table+score multiplications")


def _cmd_bench_mults(args) -> tuple[dict, str]:
    d, b, T = args.d, args.b, args.T
    # Before any array is built: d a power of two, then (T + 1) * d, the
    # query and the keys, at most _MAX_DRAWN_VALUES, which bounds the uint8
    # cache and the read path's gather offsets.
    _check_power_of_two(d, "--d")
    if not 0 <= T < _MAX_DRAWN_VALUES // d:
        raise InvalidInputError(f"--T must be >= 0 and (T + 1) * d <= 2^27, got T={T} at d={d}")
    cb = cbmod.solve_codebook(d, b)
    # Every tally is a closed form of (d, b, T), whatever the values, so a
    # zero cache is scored against a zero query: nothing is drawn or quantized.
    spec = RotationSpec(d=d, sign=SignVector(d, np.ones(d, dtype=np.int8)))
    q, cache = np.zeros(d), KVCache(np.zeros((T, d), dtype=np.uint8), np.zeros(T))
    _, lut_counter = score_sequence(q, cache, spec, cb)
    _, ref_counter = score_sequence_reference(q, cache, spec, cb)

    lut = lut_counter.mults_in("table", "score")
    ref = ref_counter.mults_in("score")
    closed_lut = d * (1 << b) + T
    closed_ref = T * d
    if lut != closed_lut or ref != closed_ref:
        raise AssertionError(
            f"counter disagrees with closed form: {lut} vs {closed_lut}, "
            f"{ref} vs {closed_ref}")
    ratio = ref / lut
    return ({"d": d, "b": b, "T": T,
             "lookup_mults": lut,
             "reference_mults": ref,
             "ratio": ratio,
             "lookup_ops": lut_counter.to_dict(),
             "reference_ops": ref_counter.to_dict()},
            f"{lut} vs {ref} multiplications, ratio {ratio:.1f}")


def _gather_layers(args) -> dict[int, CalibrationSet]:
    if (args.synthetic is None) == (not args.keys):
        raise InvalidInputError("give exactly one of --synthetic or --keys")
    if args.synthetic is not None:
        return generate_keys(_synthetic_from_json(args.synthetic))
    return _load_layer_sets(args.keys, args.d)


# --jensen-scores draws that many floats, and the probe's trials draw them
# again; the count is checked before any key or score is drawn.
MAX_JENSEN_SCORES = 1 << 16


def _cmd_eval(args) -> tuple[dict, str]:
    stds = []
    if args.jensen_std is not None:
        if not 1 <= args.jensen_scores <= MAX_JENSEN_SCORES:
            raise InvalidInputError(
                f"--jensen-scores must be in 1..{MAX_JENSEN_SCORES}, got {args.jensen_scores}")
        stds = _number_list(args.jensen_std, float)
        _check_jensen_args(stds, args.jensen_trials, args.jensen_scores)
    layers = _gather_layers(args)
    seeds = _number_list(args.seeds)
    bs = _number_list(args.b_list)
    payload: dict = {"seeds": seeds, "bs": bs, "layers": {}}
    csv_rows = ["layer,seed,b,mse"]
    for layer_id, cs in _layer_items(layers):
        sweep = sensitivity_sweep(cs, seeds, bs)
        payload["layers"][str(layer_id)] = sweep.to_dict()
        for i, sd in enumerate(seeds):
            for j, b in enumerate(bs):
                csv_rows.append(f"{layer_id},{sd},{b},{float(sweep.mses[i, j])!r}")
    if len(layers) > 1:
        payload["norm_diagnostic"] = norm_ratio_diagnostic(layers).to_dict()
    if args.jensen_std is not None:
        rng = np.random.default_rng(_seed64(args.seed))
        true_scores = rng.normal(size=args.jensen_scores)
        payload["jensen"] = [
            jensen_bias_probe(true_scores, s, args.jensen_trials, seed=args.seed).to_dict()
            for s in stds
        ]
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("\n".join(csv_rows) + "\n")
    spreads = [payload["layers"][str(i)]["spread_maxmin"] for i in layers]
    return payload, "\n".join(
        f"layer {i}: max/min spread " + ", ".join(f"b={b}:{sw[str(b)]:.3f}" for b in bs)
        for i, sw in zip(layers, spreads))


def _cmd_diagnose_norms(args) -> tuple[dict, str]:
    diag = norm_ratio_diagnostic(_gather_layers(args))
    return diag.to_dict(), f"norm ratio {diag.ratio:.2f}: {diag.recommendation}"


# -- argument wiring ------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kvlut",
        description="Bit-accurate simulator for lookup-based KV-cache "
                    "attention scoring.")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report",
                        help="JSON report path (default: stdout, with no summary line)")

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=[common])
        p.set_defaults(func=func)
        return p

    p = command("solve-codebook", _cmd_solve_codebook, "solve and serialize a codebook")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--out", help="codebook ROM path (.cbrom)")

    p = command("gen-signs", _cmd_gen_signs, "generate seeded sign vectors")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seeds", help="comma-separated seeds, one per layer")
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--out", required=True, help="sign ROM path (.sgnrom)")

    p = command("optimize-signs", _cmd_optimize_signs, "calibration-based sign selection")
    p.add_argument("--keys", nargs="+", required=True,
                   help="one key-matrix file per layer")
    p.add_argument("--d", type=int, help="row width of raw key files")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--candidates", type=int, default=200)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--out", required=True)

    # d and b come from the sign ROM, the codebook ROM and the cache.
    p = command("quantize", _cmd_quantize, "quantize a key matrix into a cache")
    p.add_argument("--keys", required=True)
    p.add_argument("--signs", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--out", required=True)

    p = command("simulate-attention", _cmd_simulate_attention,
                "score one query against a quantized cache")
    p.add_argument("--query", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--signs", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--mode", choices=("double", "fp16"), default="double")
    p.add_argument("--reference", action="store_true",
                   help="also run the dequantize-and-dot oracle")

    p = command("bench-mults", _cmd_bench_mults, "multiplication-count comparison")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--T", type=int, required=True)

    p = command("eval", _cmd_eval, "sensitivity sweeps and bias probes")
    p.add_argument("--synthetic", help="synthetic ensemble JSON spec")
    p.add_argument("--keys", nargs="*", default=[],
                   help="one key-matrix file per layer")
    p.add_argument("--d", type=int, help="row width of raw key files")
    p.add_argument("--b-list", default="3", help="comma-separated bit-widths")
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for probe-internal randomness")
    p.add_argument("--jensen-std", help="comma-separated noise levels")
    p.add_argument("--jensen-trials", type=int, default=100_000)
    p.add_argument("--jensen-scores", type=int, default=64)
    p.add_argument("--csv")

    p = command("diagnose-norms", _cmd_diagnose_norms, "cross-layer norm heterogeneity")
    p.add_argument("--synthetic")
    p.add_argument("--keys", nargs="*", default=[])
    p.add_argument("--d", type=int, help="row width of raw key files")

    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; its report goes to --report, and its summary
    then to stdout, or else to stdout alone.  An error prints one "error:"
    line to stdout and returns its exit code."""
    args = _build_parser().parse_args(argv)
    try:
        report, summary = args.func(args)
        _write_json(args.report, report)
    except KvlutError as exc:
        print(f"error: {exc}", flush=True)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", flush=True)
        return IoError.exit_code
    if args.report is not None:
        print(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
