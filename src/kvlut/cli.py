"""Command-line entry point wiring codebooks, signs, caches, and evaluation.

Artifacts are binary with versioned headers (sign ROMs, caches); reports are
JSON with sorted keys and no timestamps, so identical invocations produce
byte-identical outputs.  The codebook ROM is the one headerless artifact (its
size is part of the design contract); its (d, b) travel in a JSON sidecar
written next to it and are cross-checked against flags and other headers on
load.
"""

from __future__ import annotations

import argparse
import functools
import json

import numpy as np

from . import codebook as cbmod
from .errors import (ConfigConflictError, FormatError, InvalidInputError,
                     IoError, KvlutError)
from .evalkit import (LayerProfile, SyntheticSpec, generate_keys,
                      jensen_bias_probe, sensitivity_sweep)
from .opcount import OpCounter
from .read_path import score_sequence
from .reference import score_sequence_reference
from .signopt import CalibrationSet, norm_ratio_diagnostic, select_signs_all_layers
from .transform import RotationSpec, _open_sign_rom, random_signs, write_sign_rom
from .write_path import (KVCache, load_key_matrix, quantize_batch, read_kvq,
                         write_kvq)

__all__ = ["main"]


def _check_consistent(name: str, *sources: tuple[str, int | None]) -> int:
    """Cross-check one parameter across flags and artifact headers."""
    seen: dict[int, str] = {}
    for origin, value in sources:
        if value is not None:
            seen.setdefault(int(value), origin)
    if not seen:
        raise InvalidInputError(f"{name} is not determined by any flag or header")
    if len(seen) > 1:
        detail = ", ".join(f"{origin}={value}" for value, origin in seen.items())
        raise ConfigConflictError(f"conflicting {name}: {detail}")
    return next(iter(seen))


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
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
    """Load a codebook ROM, resolving (d, b) across flags, headers, sidecar."""
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


def _load_keys_cli(path: str, d_flag: int | None) -> np.ndarray:
    # Raw files structurally need d to recover rows; typed files carry their
    # own width, and flag mismatches go through the config cross-check so
    # they surface as conflicts rather than loader errors.
    if str(path).endswith((".npy", ".txt", ".csv")):
        return load_key_matrix(path)
    return load_key_matrix(path, d_flag)


def _load_layer_sets(paths: list[str], d: int | None) -> dict[int, CalibrationSet]:
    mats = [(p, _load_keys_cli(p, d)) for p in paths]
    _check_consistent("d", ("--d", d), *[(p, m.shape[1]) for p, m in mats])
    return {i: CalibrationSet(keys=m, layer_id=i, source=p)
            for i, (p, m) in enumerate(mats)}


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


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise InvalidInputError(f"expected a comma-separated integer list: {text!r}") from exc


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise InvalidInputError(f"expected a comma-separated number list: {text!r}") from exc


# -- subcommand handlers --------------------------------------------------

def _cmd_solve_codebook(args) -> int:
    cb = cbmod.solve_codebook(args.d, args.b, tol=args.tol)
    blob = cbmod.serialize_rom(cb)
    lloyd = cbmod.lloyd_residual(cb.centroids, cb.boundaries)
    maxr = cbmod.max_residual(cb.sigma, cb.centroids, cb.boundaries)
    report = {
        "d": cb.d,
        "b": cb.b,
        "tol": args.tol,
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
    _write_json(args.report, report)
    print(f"solved d={cb.d} b={cb.b}: {len(blob)} bytes, "
          f"lloyd {lloyd:.3e}, max {maxr:.3e}")
    return 0


def _cmd_gen_signs(args) -> int:
    d = args.d
    if args.seeds is not None:
        seeds = _int_list(args.seeds)
    else:
        seeds = [args.base_seed + 1 + i for i in range(args.layers)]
    signs = [random_signs(d, sd, layer_id=i) for i, sd in enumerate(seeds)]
    write_sign_rom(args.out, signs)
    _write_json(args.report, {"d": d, "layers": len(signs), "seeds": seeds})
    print(f"wrote {len(signs)} sign vectors (d={d}) to {args.out}")
    return 0


def _cmd_optimize_signs(args) -> int:
    layers = _load_layer_sets(args.keys, args.d)
    reports, rom = select_signs_all_layers(layers, C=args.candidates, b=args.b,
                                           base_seed=args.base_seed)
    with open(args.out, "wb") as fh:
        fh.write(rom)
    _write_json(args.report, {
        "b": args.b,
        "candidates": args.candidates,
        "base_seed": args.base_seed,
        "layers": [r.to_dict() for r in reports],
    })
    spreads = ", ".join(f"L{r.selected.layer_id}:{r.spread:.3f}" for r in reports)
    print(f"selected signs for {len(reports)} layer(s); spread {spreads}")
    return 0


def _cmd_quantize(args) -> int:
    keys = _load_keys_cli(args.keys, args.d)
    rom = _open_sign_rom(args.signs)
    cb = _load_codebook(
        args.codebook,
        [("--d", args.d), ("key-matrix", keys.shape[1]), ("sign-rom", rom.d)],
        [("--b", args.b)])
    d = cb.d
    spec = RotationSpec(d=d, sign=rom.layer(args.layer))
    counter = OpCounter()
    cache = KVCache(*quantize_batch(keys, spec, cb, counter, comparator=args.comparator))
    write_kvq(args.out, cache, d, cb.b, layer_id=args.layer)
    _write_json(args.report, {
        "d": d, "b": cb.b, "T": len(cache), "layer": args.layer,
        "comparator": args.comparator,
        "ops": counter.to_dict(),
    })
    print(f"quantized {len(cache)} keys (d={d}, b={cb.b}) to {args.out}")
    return 0


def _cmd_simulate_attention(args) -> int:
    qmat = _load_keys_cli(args.query, args.d)
    if qmat.shape[0] != 1:
        raise InvalidInputError(
            f"query file must hold exactly one row, got {qmat.shape[0]}")
    cache, cache_d, cache_b, layer_id = read_kvq(args.cache)
    rom = _open_sign_rom(args.signs)
    cb = _load_codebook(
        args.codebook,
        [("--d", args.d), ("query", qmat.shape[1]), ("cache", cache_d),
         ("sign-rom", rom.d)],
        [("--b", args.b), ("cache", cache_b)])
    d = cb.d
    spec = RotationSpec(d=d, sign=rom.layer(layer_id))
    scores, counter = score_sequence(qmat[0], cache, spec, cb, mode=args.mode)
    payload = {
        "d": d, "b": cb.b, "T": len(cache), "layer": layer_id,
        "mode": args.mode,
        "scores": [float(s) for s in scores],
        "saturated": int(np.count_nonzero(~np.isfinite(scores))),
        "ops": counter.to_dict(),
    }
    if args.reference:
        ref_scores, ref_counter = score_sequence_reference(qmat[0], cache, spec, cb)
        payload["reference_scores"] = [float(s) for s in ref_scores]
        payload["reference_ops"] = ref_counter.to_dict()
    _write_json(args.report, payload)
    mults = counter.mults_in("table", "score")
    print(f"scored T={len(cache)} keys in {args.mode} mode: "
          f"{mults} table+score multiplications")
    return 0


def _cmd_bench_mults(args) -> int:
    d, b, T = args.d, args.b, args.T
    if T < 0:
        raise InvalidInputError(f"--T must be >= 0, got {T}")
    cb = cbmod.solve_codebook(d, b)
    spec = RotationSpec(d=d, sign=random_signs(d, args.seed + 1))
    rng = np.random.default_rng(args.seed)
    keys = rng.normal(size=(T, d))
    q = rng.normal(size=d)
    cache = KVCache(*quantize_batch(keys, spec, cb))
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
    _write_json(args.report, {
        "d": d, "b": b, "T": T,
        "lookup_mults": lut,
        "reference_mults": ref,
        "ratio": ratio,
        "lookup_ops": lut_counter.to_dict(),
        "reference_ops": ref_counter.to_dict(),
    })
    print(f"{lut} vs {ref} multiplications, ratio {ratio:.1f}")
    return 0


def _gather_layers(args) -> dict[int, CalibrationSet]:
    if (args.synthetic is None) == (not args.keys):
        raise InvalidInputError("give exactly one of --synthetic or --keys")
    if args.synthetic is not None:
        return generate_keys(_synthetic_from_json(args.synthetic))
    return _load_layer_sets(args.keys, args.d)


def _cmd_eval(args) -> int:
    layers = _gather_layers(args)
    seeds = _int_list(args.seeds)
    bs = _int_list(args.b_list)
    payload: dict = {"seeds": seeds, "bs": bs, "layers": {}}
    csv_rows = ["layer,seed,b,mse"]
    for layer_id, cs in layers.items():
        sweep = sensitivity_sweep(cs, seeds, bs)
        payload["layers"][str(layer_id)] = sweep.to_dict()
        for i, sd in enumerate(seeds):
            for j, b in enumerate(bs):
                csv_rows.append(f"{layer_id},{sd},{b},{float(sweep.mses[i, j])!r}")
    if len(layers) > 1:
        payload["norm_diagnostic"] = norm_ratio_diagnostic(layers).to_dict()
    if args.jensen_std is not None:
        rng = np.random.default_rng(args.seed)
        true_scores = rng.normal(size=args.jensen_scores)
        payload["jensen"] = [
            jensen_bias_probe(true_scores, s, args.jensen_trials,
                              seed=args.seed).to_dict()
            for s in _float_list(args.jensen_std)
        ]
    _write_json(args.report, payload)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("\n".join(csv_rows) + "\n")
    for layer_id in layers:
        sw = payload["layers"][str(layer_id)]["spread_maxmin"]
        print(f"layer {layer_id}: max/min spread " +
              ", ".join(f"b={b}:{sw[str(b)]:.3f}" for b in bs))
    return 0


def _cmd_diagnose_norms(args) -> int:
    layers = _gather_layers(args)
    diag = norm_ratio_diagnostic(layers)
    _write_json(args.report, diag.to_dict())
    print(f"norm ratio {diag.ratio:.2f}: {diag.recommendation}")
    return 0


# -- argument wiring ------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kvlut",
        description="Bit-accurate simulator for lookup-based KV-cache "
                    "attention scoring.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve-codebook", help="solve and serialize a codebook")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--tol", type=float, default=cbmod.DEFAULT_TOL)
    p.add_argument("--out", help="codebook ROM path (.cbrom)")
    p.add_argument("--report", help="JSON report path (default: stdout)")
    p.set_defaults(func=_cmd_solve_codebook)

    p = sub.add_parser("gen-signs", help="generate seeded sign vectors")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seeds", help="comma-separated seeds, one per layer")
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--out", required=True, help="sign ROM path (.sgnrom)")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_gen_signs)

    p = sub.add_parser("optimize-signs", help="calibration-based sign selection")
    p.add_argument("--keys", nargs="+", required=True,
                   help="one key-matrix file per layer")
    p.add_argument("--d", type=int)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--candidates", type=int, default=200)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_optimize_signs)

    p = sub.add_parser("quantize", help="quantize a key matrix into a cache")
    p.add_argument("--keys", required=True)
    p.add_argument("--signs", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--comparator", choices=("flat", "binary"), default="flat")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("simulate-attention",
                       help="score one query against a quantized cache")
    p.add_argument("--query", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--signs", required=True)
    p.add_argument("--codebook", required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--mode", choices=("double", "fp16"), default="double")
    p.add_argument("--reference", action="store_true",
                   help="also run the dequantize-and-dot oracle")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_simulate_attention)

    p = sub.add_parser("bench-mults", help="multiplication-count comparison")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_bench_mults)

    p = sub.add_parser("eval", help="sensitivity sweeps and bias probes")
    p.add_argument("--synthetic", help="synthetic ensemble JSON spec")
    p.add_argument("--keys", nargs="*", default=[],
                   help="one key-matrix file per layer")
    p.add_argument("--d", type=int)
    p.add_argument("--b-list", default="3", help="comma-separated bit-widths")
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for probe-internal randomness")
    p.add_argument("--jensen-std", help="comma-separated noise levels")
    p.add_argument("--jensen-trials", type=int, default=100_000)
    p.add_argument("--jensen-scores", type=int, default=64)
    p.add_argument("--csv")
    p.add_argument("--report")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("diagnose-norms", help="cross-layer norm heterogeneity")
    p.add_argument("--synthetic")
    p.add_argument("--keys", nargs="*", default=[])
    p.add_argument("--d", type=int)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_diagnose_norms)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KvlutError as exc:
        print(f"error: {exc}", flush=True)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", flush=True)
        return IoError.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
