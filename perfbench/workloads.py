"""The three workloads, their correctness gates and their metrics.

Each workload sets up several times (the median is `setup_s`), warms up,
then repeats passes until the run's time is spent and enough samples exist
for a p90 with ten samples beyond it.  Only the calls into the program sit
inside the timers; correctness checks run between timed regions.

The machine's speed drifts: neighbours on the shared cores slow the same
code by up to 1.7x for seconds to minutes at a time.  The bounded metrics
therefore avoid mixtures of fast and slow stretches.  `item_ms_min` is the
uncontended cost (as with timeit, slower readings come from interference,
not from the code), `item_ms_p90` the contended one, and `pass_s` prices a
pass at the contended rate: each kind of step at its p90 reading.  Medians
and raw pass times are reported beside them.

Every check and every operation counts toward `attempted`; a raised
KvlutError, a non-zero CLI exit or a failed check counts toward `failed`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import statistics
import time
from pathlib import Path

import numpy as np

import inputs
from inputs import B, D, N_LAYERS

SETUPS = 5               # before the passes; one more between each two
MIN_PASSES = 3
MIN_ITEMS = 100          # p90 keeps ten samples beyond it
HARD_STOP_S = 100.0      # stop starting passes after this, whatever the counts
SIGN_SEED = 8            # seed of the decode layer's sign vector
REL_TOL = 1e-12          # lookup vs dequantize-and-dot, relative to max |oracle|
RESIDUAL_TOL = 1e-11
KVQ_HEADER = 18
RECORD_BYTES = 50        # d=128, b=3: 48 index bytes + 2 norm bytes
SIGN_ROM_BYTES = 8 + N_LAYERS * D // 8
SELECT_CANDIDATES = 50   # sign candidates per layer ("at least 50")

OP_KINDS = ("multiplications", "additions", "comparisons", "lookups")
OP_CATEGORIES = ("transform", "quantize", "norm", "table", "score")

# Per-layer metrics read straight off span medians: (metric, span, scale).
SPAN_METRICS = [
    ("read_path.score_ms.double", "read_path.score.double", 1e3),
    ("read_path.score_ms.fp16", "read_path.score.fp16", 1e3),
    ("read_path.precompute_table_us", "read_path.precompute_table", 1e6),
    ("transform.rotate_us.query", "transform.rotate.query", 1e6),
    ("transform.rotate_ms.block", "transform.rotate.block", 1e3),
    ("write_path.quantize_batch_ms", "write_path.quantize_batch", 1e3),
    ("write_path.write_kvq_ms", "write_path.write_kvq", 1e3),
    ("write_path.read_kvq_ms", "write_path.read_kvq", 1e3),
    ("cli.solve-codebook_ms", "cli.solve-codebook", 1e3),
    ("cli.gen-signs_ms", "cli.gen-signs", 1e3),
    ("cli.quantize_ms", "cli.quantize", 1e3),
    ("signopt.select_ms.layer_p50", "signopt.select", 1e3),
    ("signopt.norm_diag_ms", "signopt.norm_diag", 1e3),
] + [(f"codebook.solve_ms.b{b}", f"codebook.solve.b{b}", 1e3) for b in range(1, 9)]

CLI_SPANS = ("cli.solve-codebook", "cli.gen-signs", "cli.quantize",
             "cli.simulate-attention.reference", "cli.simulate-attention.fp16",
             "cli.simulate-attention.double")

_UNITS = {1e3: "ms", 1e6: "us"}

# Every per-layer metric with its unit; a workload reports 0 for a layer it
# leaves idle.
PER_LAYER = ([(m, _UNITS[scale]) for m, _, scale in SPAN_METRICS]
             + [("cli.simulate-attention_ms", "ms"), ("reference.score_ms", "ms"),
                ("read_path.saturated", "count"), ("write_path.bytes_per_key", "bytes"),
                ("signopt.candidates_per_s", "1/s"), ("signopt.spread_median", "ratio")]
             + [(f"ops.{k}.{c}", "count") for k in OP_KINDS for c in OP_CATEGORIES])


class OpFailed(Exception):
    """A CLI call ended with a non-zero exit code."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def p50(xs) -> float:
    return float(statistics.median(xs))


def p90(xs) -> float:
    return float(np.percentile(xs, 90))


ZERO_OPS = {k: {"by_category": dict.fromkeys(OP_CATEGORIES, 0)} for k in OP_KINDS}


def ops_metrics(ops: dict) -> dict:
    """ops.<kind>.<category> from an OpCounter.to_dict() breakdown."""
    return {f"ops.{k}.{c}": ops[k]["by_category"][c]
            for k in OP_KINDS for c in OP_CATEGORIES}


def mults(ops: dict, *cats: str) -> int:
    return sum(ops["multiplications"]["by_category"][c] for c in cats)


def rel_err(x: np.ndarray, oracle: np.ndarray) -> float:
    scale = max(float(np.abs(oracle).max()), np.finfo(float).tiny)
    return float(np.abs(np.asarray(x) - oracle).max()) / scale


def fp16_oracle(entries: np.ndarray, idx: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Half-precision scores for all keys at once: half table reads, a balanced
    adder tree in coordinate order, then the half norm product."""
    with np.errstate(over="ignore", invalid="ignore"):
        acc = entries[np.arange(entries.shape[0]), idx].astype(np.float16)
        while acc.shape[1] > 1:
            acc = acc[:, 0::2] + acc[:, 1::2]
        return acc[:, 0] * norms


class Run:
    """One workload run: the adapter, failure tallies, checks and digests."""

    def __init__(self, api, tracer, seed: int, workdir: Path):
        self.api = api
        self.tr = tracer
        self.seed = seed
        self.work = workdir
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, list[int]] = {}      # name -> [passed, failed]
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        tally = self.checks.setdefault(name, [0, 0])
        tally[0 if ok else 1] += 1
        if not ok:
            self.fail(f"check {name} failed {detail}".rstrip())

    def cli(self, argv: list[str], variant: str = "") -> None:
        self.attempted += 1
        code, out = self.api.cli(argv, variant)
        if code != 0:
            raise OpFailed(f"kvlut {' '.join(argv)} exited {code}: {out.strip()}")

    def digest(self, name: str, value: str) -> None:
        """Record an output digest; a later pass must reproduce it exactly."""
        first = self.digests.setdefault(name, value)
        self.check("deterministic_across_passes", first == value, name)


class Workload:
    name = ""
    why = ""

    def __init__(self, run: Run):
        self.run = run
        self.api = run.api
        self.items_ms: list[float] = []   # the workload's item, one sample each
        self.pass_s: list[float] = []     # wall time of whole passes
        self.setup_s: list[float] = []
        self.steps: dict[str, list[float]] = {}   # step kind -> seconds
        self.probed: set[str] = set()             # spans only a probe made

    def step(self, kind: str, seconds: float) -> None:
        """Record one step; steps of one kind do the same work."""
        self.steps.setdefault(kind, []).append(seconds)

    def contended_pass_s(self) -> float:
        """A pass priced at the p90 reading of each step kind, times the
        number of steps of that kind in a pass."""
        n = len(self.pass_s)
        return sum(p90(t) * len(t) / n for t in self.steps.values())

    # Subclasses implement setup, warm_up, run_pass (returning the pass
    # time, or None when it failed), end_to_end_named and per_layer.

    def verify_setup(self) -> None:
        pass

    def verify_run(self) -> None:
        pass

    def timed_setup(self, label: str) -> None:
        """Set up again (the state it builds is identical each time), timed."""
        self.run.tr.run = label
        with self.run.tr.span(f"{self.name}.setup"):
            t0 = time.perf_counter()
            self.setup()
            self.setup_s.append(time.perf_counter() - t0)

    def measure(self, seconds: float) -> None:
        # Set-ups also run between passes, so their median spans the run's
        # fast and slow stretches instead of only its first second.
        tr = self.run.tr
        for i in range(SETUPS):
            self.timed_setup(f"setup{i}")
        tr.run = "verify"
        self.verify_setup()
        tr.run = "warmup"
        self.warm_up()
        gc.collect()
        start = time.perf_counter()
        passes = 0
        while True:
            tr.run = f"pass{passes}"
            with tr.span(f"{self.name}.pass"):
                elapsed = self.run_pass()
            if elapsed is not None:
                self.pass_s.append(elapsed)
            passes += 1
            spent = time.perf_counter() - start
            if spent >= HARD_STOP_S or (
                    spent >= seconds and len(self.pass_s) >= MIN_PASSES
                    and len(self.items_ms) >= MIN_ITEMS):
                break
            self.timed_setup(f"setup{SETUPS + passes - 1}")
        tr.run = "verify"
        self.verify_run()
        if tr.enabled:
            tr.run = "probe"
            self.probe_idle_layers()

    def probe_idle_layers(self) -> None:
        """Traced runs: call once each layer this workload leaves idle, at the
        standard sizes (1024 keys, a 512-row block, 50 candidates), so every
        per-layer time is measured on every workload.  Runs after the passes
        and outside every timer; `layer_durations` uses a probe's spans only
        where the workload has none of its own."""
        api, run, w = self.api, self.run, self.run.work
        own = self._own_durations()
        idle = lambda span: span not in own  # noqa: E731
        try:
            for b in range(1, 9):
                if idle(f"codebook.solve.b{b}"):
                    api.solve_codebook(D, b)
            keys = inputs.keys(run.seed, 0, 1024)
            q = inputs.queries(run.seed, 1, stream=3)[0]
            cb = api.solve_codebook(D, B)
            spec = api.rotation(D, SIGN_SEED)
            api.rotate(spec, q)
            api.rotate(spec, keys[:512])
            api.table(q, spec, cb)
            idx, norms = api.quantize(keys, spec, cb, api.counter())
            api.write_kvq(w / "probe.kvq", api.to_cache(idx, norms), D, B, layer=0)
            cache, *_ = api.read_kvq(w / "probe.kvq")
            for mode in ("double", "fp16"):
                api.score(q, cache, spec, cb, mode)
            cs = {0: api.calibration_set(keys[:512], 0)}
            if idle("signopt.select"):
                api.select_signs(cs[0], SELECT_CANDIDATES, B, 0)
            api.norm_diagnostic(cs)
            if any(map(idle, CLI_SPANS)):
                self._probe_cli(keys, q)
        except (OpFailed, api.Error) as exc:
            run.fail(f"probe: {exc!r}")

    def _probe_cli(self, keys: np.ndarray, q: np.ndarray) -> None:
        """One layer through the CLI, as the pipeline runs it."""
        run, w = self.run, self.run.work
        np.save(w / "probe_k.npy", keys)
        np.save(w / "probe_q.npy", q[None, :])
        roms = ["--signs", str(w / "probe.sgnrom"), "--codebook", str(w / "probe.cbrom")]
        run.cli(["solve-codebook", "--d", str(D), "--b", str(B), "--out", str(w / "probe.cbrom")])
        run.cli(["gen-signs", "--d", str(D), "--out", str(w / "probe.sgnrom")])
        run.cli(["quantize", "--keys", str(w / "probe_k.npy"), *roms,
                 "--out", str(w / "probe_cli.kvq")])
        sim = ["simulate-attention", "--query", str(w / "probe_q.npy"),
               "--cache", str(w / "probe_cli.kvq"), *roms]
        run.cli(sim + ["--reference"], variant="reference")
        run.cli(sim + ["--mode", "fp16"], variant="fp16")
        run.cli(sim, variant="double")

    def _own_durations(self) -> dict[str, list[float]]:
        """Spans of set-up and passes; warm-up and one-off checks left out."""
        return self.run.tr.durations(skip=("warmup", "verify", "probe"))

    def layer_durations(self) -> dict[str, list[float]]:
        """Span durations for the per-layer metrics: the workload's own, and
        a probe's for layers the workload left idle."""
        own = self._own_durations()
        probe = self.run.tr.durations(runs=("probe",))
        self.probed = {name for name in probe if name not in own}
        return {**probe, **own}

    def end_to_end(self, peak_rss_mb: float) -> dict:
        """The bounded metrics: shared names, workload-specific meaning."""
        return {
            "setup_s": (p50(self.setup_s), "s"),
            "pass_s": (self.contended_pass_s(), "s"),
            "item_ms_min": (min(self.items_ms), "ms"),
            "item_ms_p90": (p90(self.items_ms), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def span_metrics(self, durs: dict) -> dict:
        out = dict.fromkeys((m for m, _ in PER_LAYER), 0.0)
        for metric, span, scale in SPAN_METRICS:
            if durs.get(span):
                out[metric] = p50(durs[span]) * scale
        ref, fp16, plain = (p50(durs.get(f"cli.simulate-attention.{v}", [0.0]))
                            for v in ("reference", "fp16", "double"))
        out["cli.simulate-attention_ms"] = (ref + fp16) * 1e3
        out["reference.score_ms"] = (ref - plain) * 1e3
        sel = out["signopt.select_ms.layer_p50"]
        out["signopt.candidates_per_s"] = SELECT_CANDIDATES / (sel / 1e3) if sel else 0.0
        return out


# -- decode ---------------------------------------------------------------

class Decode(Workload):
    name = "decode"
    why = ("one layer's T=4096 cache scored query by query in double and fp16: "
           "read_path does the work, write_path sits idle")
    T = 4096
    QUERIES = 24

    def __init__(self, run: Run):
        super().__init__(run)
        self.fp16_ms: list[float] = []
        self.last_ops = ZERO_OPS
        self.saturated = 0

    def setup(self) -> None:
        api, seed = self.api, self.run.seed
        self.kvq = self.run.work / "decode.kvq"
        self.keys = inputs.keys(seed, 0, self.T,
                                profile=(inputs.MAX_SCALE, inputs.MAX_DIRECTION_GAIN))
        self.queries = inputs.queries(seed, self.QUERIES)
        self.run.attempted += 5  # the five calls below
        self.cb = api.solve_codebook(D, B)
        self.spec = api.rotation(D, SIGN_SEED)
        self.qops = api.counter()
        self.idx, self.norms = api.quantize(self.keys, self.spec, self.cb, self.qops)
        api.write_kvq(self.kvq, api.to_cache(self.idx, self.norms), D, B, layer=0)
        self.cache, *self.header = api.read_kvq(self.kvq)

    def verify_setup(self) -> None:
        run, api, T = self.run, self.api, self.T
        rom, rom2 = api.rom_round_trip(self.cb)
        run.check("codebook_residual", api.residual(self.cb) < RESIDUAL_TOL)
        run.check("codebook_rom_30_bytes", len(rom) == 30, f"({len(rom)})")
        run.check("codebook_rom_round_trip", rom == rom2)
        ops = self.qops.to_dict()
        run.check("quantize_flat_comparisons",
                  ops["comparisons"]["by_category"]["quantize"] == T * D * ((1 << B) - 1))
        run.check("transform_zero_mults", mults(ops, "transform") == 0)
        size = self.kvq.stat().st_size
        run.check("kvq_size", size == KVQ_HEADER + RECORD_BYTES * T, f"({size})")
        self.bytes_per_key = (size - KVQ_HEADER) / T
        idx, norms = api.cache_arrays(self.cache)
        run.check("kvq_round_trip", self.header == [D, B, 0]
                  and np.array_equal(idx, self.idx)
                  and np.array_equal(norms.view(np.uint16),
                                     self.norms.astype(np.float16).view(np.uint16)))
        self.idx, self.norms16 = idx, norms
        self.recon = api.dequantize(self.cache, self.spec, self.cb)
        run.digest("kvq", sha256(self.kvq.read_bytes()))
        run.digest("codebook_rom", sha256(rom))
        self._verify_with_cli()

    def _verify_with_cli(self) -> None:
        """The CLI's dequantize-and-dot oracle over the cache, for query 0."""
        run, w = self.run, self.run.work
        np.save(w / "decode_q.npy", self.queries[:1])
        rep = w / "decode_sim.json"
        try:
            run.cli(["solve-codebook", "--d", str(D), "--b", str(B),
                     "--out", str(w / "decode.cbrom"), "--report", str(w / "decode_cb.json")])
            run.cli(["gen-signs", "--d", str(D), "--seeds", str(SIGN_SEED),
                     "--out", str(w / "decode.sgnrom"), "--report", str(w / "decode_sg.json")])
            run.cli(["simulate-attention", "--query", str(w / "decode_q.npy"),
                     "--cache", str(self.kvq), "--signs", str(w / "decode.sgnrom"),
                     "--codebook", str(w / "decode.cbrom"), "--reference",
                     "--report", str(rep)], variant="reference")
        except OpFailed as exc:
            run.fail(str(exc))
            return
        sim = json.loads(rep.read_text())
        ref = np.array(sim["reference_scores"])
        run.check("reference_mults_T_d",
                  mults(sim["reference_ops"], "score") == self.T * D)
        run.check("lookup_matches_reference", rel_err(sim["scores"], ref) <= REL_TOL)

    def warm_up(self) -> None:
        for mode in ("double", "fp16"):
            self.api.score(self.queries[0], self.cache, self.spec, self.cb, mode)

    def run_pass(self) -> float | None:
        run, api = self.run, self.api
        total = 0.0
        h64, h16 = hashlib.sha256(), hashlib.sha256()
        self.saturated = 0
        for i, q in enumerate(self.queries):
            run.attempted += 2
            try:
                with run.tr.span("decode.query"):
                    t0 = time.perf_counter()
                    s, ops = api.score(q, self.cache, self.spec, self.cb, "double")
                    t1 = time.perf_counter()
                    s16, ops16 = api.score(q, self.cache, self.spec, self.cb, "fp16")
                    t2 = time.perf_counter()
            except api.Error as exc:
                run.fail(f"query {i}: {exc!r}")
                continue
            self.items_ms.append((t1 - t0) * 1e3)
            self.fp16_ms.append((t2 - t1) * 1e3)
            self.step("query.double", t1 - t0)
            self.step("query.fp16", t2 - t1)
            total += t2 - t0
            self._verify_query(q, s, ops.to_dict(), s16, ops16.to_dict())
            h64.update(np.ascontiguousarray(s, dtype="<f8").tobytes())
            h16.update(s16.view(np.uint16).astype("<u2").tobytes())
        run.digest("scores_double", h64.hexdigest())
        run.digest("scores_fp16_u16", h16.hexdigest())
        return total

    def _verify_query(self, q, s, ops, s16, ops16) -> None:
        run, api = self.run, self.api
        closed = D * (1 << B) + self.T
        run.check("lookup_mults_closed_form",
                  mults(ops, "table", "score") == closed
                  and mults(ops16, "table", "score") == closed)
        run.check("transform_zero_mults",
                  mults(ops, "transform") == 0 and mults(ops16, "transform") == 0)
        run.check("lookup_matches_dequantize_dot", rel_err(s, self.recon @ q) <= REL_TOL)
        entries = api.table(q, self.spec, self.cb)
        q_rot = api.rotate(self.spec, q)
        run.check("table_is_rotated_outer_product",
                  np.array_equal(entries, q_rot[:, None] * self.cb.centroids[None, :]))
        oracle = fp16_oracle(entries, self.idx, self.norms16)
        run.check("fp16_matches_adder_tree_oracle",
                  np.array_equal(s16.view(np.uint16), oracle.view(np.uint16)))
        self.saturated += int(np.count_nonzero(~np.isfinite(s16)))
        self.last_ops = ops

    def end_to_end_named(self) -> dict:
        return {
            "query_ms_min": (min(self.items_ms), "ms", len(self.items_ms)),
            "query_ms_p50": (p50(self.items_ms), "ms", len(self.items_ms)),
            "query_ms_p90": (p90(self.items_ms), "ms", len(self.items_ms)),
            "query_fp16_ms_p50": (p50(self.fp16_ms), "ms", len(self.fp16_ms)),
            "query_fp16_ms_p90": (p90(self.fp16_ms), "ms", len(self.fp16_ms)),
        }

    def per_layer(self, durs: dict) -> dict:
        out = self.span_metrics(durs)
        out["read_path.saturated"] = self.saturated
        out["write_path.bytes_per_key"] = self.bytes_per_key
        out.update(ops_metrics(self.last_ops))
        return out


# -- pipeline -------------------------------------------------------------

class Pipeline(Workload):
    name = "pipeline"
    why = ("the CLI end to end over 36 layers of 1024 keys: quantize, .kvq IO "
           "and scoring per layer, so writes sit beside reads")
    T = 1024

    def __init__(self, run: Run):
        super().__init__(run)
        self.layer_ops = ZERO_OPS
        self.bytes_per_key = 0.0
        self.saturated = 0

    def setup(self) -> None:
        seed, w = self.run.seed, self.run.work
        self.keys = [inputs.keys(seed, layer, self.T) for layer in range(N_LAYERS)]
        queries = inputs.queries(seed, N_LAYERS, stream=1)
        for layer in range(N_LAYERS):
            np.save(w / f"k{layer}.npy", self.keys[layer])
            np.save(w / f"q{layer}.npy", queries[layer:layer + 1])

    def _paths(self, layer: int) -> dict[str, str]:
        w = self.run.work
        return {k: str(w / f"{k}{layer}.{ext}") for k, ext in
                (("k", "npy"), ("q", "npy"), ("c", "kvq"), ("quant", "json"),
                 ("ref", "json"), ("fp16", "json"), ("plain", "json"))}

    def _layer(self, layer: int) -> None:
        w, p = self.run.work, self._paths(layer)
        shared = ["--signs", str(w / "signs.sgnrom"), "--codebook", str(w / "cb.cbrom")]
        self.run.cli(["quantize", "--keys", p["k"], *shared, "--layer", str(layer),
                      "--out", p["c"], "--report", p["quant"]])
        sim = ["simulate-attention", "--query", p["q"], "--cache", p["c"], *shared]
        self.run.cli(sim + ["--reference", "--report", p["ref"]], variant="reference")
        self.run.cli(sim + ["--mode", "fp16", "--report", p["fp16"]], variant="fp16")

    def _head(self) -> None:
        w = self.run.work
        self.run.cli(["solve-codebook", "--d", str(D), "--b", str(B),
                      "--out", str(w / "cb.cbrom"), "--report", str(w / "cb.json")])
        self.run.cli(["gen-signs", "--d", str(D), "--layers", str(N_LAYERS),
                      "--base-seed", "7", "--out", str(w / "signs.sgnrom"),
                      "--report", str(w / "signs.json")])

    def warm_up(self) -> None:
        self._head()
        self._layer(0)

    def run_pass(self) -> float | None:
        run = self.run
        t0 = time.perf_counter()
        try:
            self._head()
        except (OpFailed, run.api.Error) as exc:
            run.fail(repr(exc))
            return None
        self.step("head", time.perf_counter() - t0)
        done = []
        for layer in range(N_LAYERS):
            t1 = time.perf_counter()
            try:
                with run.tr.span("pipeline.layer"):
                    self._layer(layer)
            except (OpFailed, run.api.Error) as exc:
                run.fail(f"layer {layer}: {exc!r}")
                continue
            dt = time.perf_counter() - t1
            self.items_ms.append(dt * 1e3)
            self.step("layer", dt)
            done.append(layer)
        elapsed = time.perf_counter() - t0
        self._verify_pass(done)
        if run.tr.enabled:
            self._probe(done)
        return elapsed

    def _verify_pass(self, done: list[int]) -> None:
        run, w, T = self.run, self.run.work, self.T
        cbrom = (w / "cb.cbrom").read_bytes()
        sgnrom = (w / "signs.sgnrom").read_bytes()
        cbrep = json.loads((w / "cb.json").read_text())
        run.check("codebook_rom_30_bytes", len(cbrom) == 30, f"({len(cbrom)})")
        run.check("codebook_residual", max(cbrep["lloyd_residual"],
                                           cbrep["max_residual"]) < RESIDUAL_TOL)
        run.check("sign_rom_584_bytes", len(sgnrom) == SIGN_ROM_BYTES, f"({len(sgnrom)})")
        files = {n: sha256((w / n).read_bytes()) for n in
                 ("cb.cbrom", "cb.cbrom.json", "cb.json", "signs.sgnrom", "signs.json")}
        h64, h16 = hashlib.sha256(), hashlib.sha256()
        self.saturated = 0
        closed = D * (1 << B) + T
        for layer in done:
            p = self._paths(layer)
            quant = json.loads(Path(p["quant"]).read_text())
            ref = json.loads(Path(p["ref"]).read_text())
            f16 = json.loads(Path(p["fp16"]).read_text())
            size = os.path.getsize(p["c"])
            run.check("kvq_size", size == KVQ_HEADER + RECORD_BYTES * T, f"({size})")
            run.check("quantize_flat_comparisons",
                      quant["ops"]["comparisons"]["by_category"]["quantize"]
                      == T * D * ((1 << B) - 1))
            run.check("transform_zero_mults",
                      mults(quant["ops"], "transform") == 0
                      and mults(ref["ops"], "transform") == 0)
            run.check("lookup_mults_closed_form",
                      mults(ref["ops"], "table", "score") == closed
                      and mults(f16["ops"], "table", "score") == closed)
            run.check("reference_mults_T_d", mults(ref["reference_ops"], "score") == T * D)
            run.check("lookup_matches_reference",
                      rel_err(ref["scores"], np.array(ref["reference_scores"])) <= REL_TOL)
            self.saturated += f16["saturated"]
            h64.update(np.array(ref["scores"], dtype="<f8").tobytes())
            h16.update(np.array(f16["scores"], dtype=np.float16).view("<u2").tobytes())
            for k in ("c", "quant", "ref", "fp16"):
                files[Path(p[k]).name] = sha256(Path(p[k]).read_bytes())
        if done:
            self.bytes_per_key = (size - KVQ_HEADER) / T
            self.layer_ops = {
                k: {"by_category": {c: quant["ops"][k]["by_category"][c]
                                    + ref["ops"][k]["by_category"][c]
                                    for c in OP_CATEGORIES}}
                for k in OP_KINDS}
        for name in ("cb.cbrom", "signs.sgnrom"):
            run.digest(name, files[name])
        run.digest("kvq_all_layers", sha256("".join(
            files[f"c{layer}.kvq"] for layer in done).encode()))
        run.digest("artifacts_all", sha256(json.dumps(files, sort_keys=True).encode()))
        run.digest("scores_double", h64.hexdigest())
        run.digest("scores_fp16_u16", h16.hexdigest())

    def _probe(self, done: list[int]) -> None:
        """Traced runs only: time the block rotation the quantize step does and
        a plain double-mode scoring call, so the oracle's share can be split
        out of the reference call."""
        api, w = self.api, self.run.work
        specs = api.rotations_from_rom(w / "signs.sgnrom")
        for layer in done:
            api.rotate(specs[layer], self.keys[layer])
            p = self._paths(layer)
            self.run.cli(["simulate-attention", "--query", p["q"], "--cache", p["c"],
                          "--signs", str(w / "signs.sgnrom"),
                          "--codebook", str(w / "cb.cbrom"), "--report", p["plain"]],
                         variant="double")

    def end_to_end_named(self) -> dict:
        return {
            "pipeline_s": (p50(self.pass_s), "s", len(self.pass_s)),
            "layer_ms_min": (min(self.items_ms), "ms", len(self.items_ms)),
            "layer_ms_p50": (p50(self.items_ms), "ms", len(self.items_ms)),
            "layer_ms_p90": (p90(self.items_ms), "ms", len(self.items_ms)),
        }

    def per_layer(self, durs: dict) -> dict:
        out = self.span_metrics(durs)
        out["read_path.saturated"] = self.saturated
        out["write_path.bytes_per_key"] = self.bytes_per_key
        out.update(ops_metrics(self.layer_ops))
        return out


# -- calibrate ------------------------------------------------------------

class Calibrate(Workload):
    name = "calibrate"
    why = ("design-time flow: codebook solves for b=1..8 and sign selection over "
           "36 heterogeneous layers; the read and write paths sit idle")
    N = 512

    def __init__(self, run: Run):
        super().__init__(run)
        self.codebook_s: list[float] = []
        self.signopt_s: list[float] = []
        self.reports: list = []
        self.spreads: list[float] = []

    def setup(self) -> None:
        self.layers = {layer: self.api.calibration_set(
                           inputs.keys(self.run.seed, layer, self.N), layer)
                       for layer in range(N_LAYERS)}

    def warm_up(self) -> None:
        for b in range(1, B + 1):
            self.api.solve_codebook(D, b)
        self.api.select_signs(self.layers[0], SELECT_CANDIDATES, B, 0)

    def run_pass(self) -> float | None:
        run, api = self.run, self.api
        t0 = time.perf_counter()
        try:
            solved = []
            with run.tr.span("calibrate.codebook"):
                for b in range(1, 9):
                    run.attempted += 1
                    ts = time.perf_counter()
                    cb = api.solve_codebook(D, b)
                    solved.append((cb, *api.rom_round_trip(cb)))
                    self.step(f"solve.b{b}", time.perf_counter() - ts)
            t1 = time.perf_counter()
            reports = []
            with run.tr.span("calibrate.signopt"):
                for cs in self.layers.values():
                    run.attempted += 1
                    ts = time.perf_counter()
                    reports.append(api.select_signs(cs, SELECT_CANDIDATES, B, 0))
                    dt = time.perf_counter() - ts
                    self.items_ms.append(dt * 1e3)
                    self.step("select", dt)
                run.attempted += 2
                ts = time.perf_counter()
                rom = api.pack_signs(reports)
                diag = api.norm_diagnostic(self.layers)
            t2 = time.perf_counter()
            self.step("pack_and_diagnose", t2 - ts)
        except api.Error as exc:
            run.fail(repr(exc))
            return None
        self.codebook_s.append(t1 - t0)
        self.signopt_s.append(t2 - t1)
        self._verify_pass(solved, reports, rom, diag)
        if run.tr.enabled:
            for layer, rep in enumerate(reports):
                keys = self.layers[layer].keys
                unit = keys / np.linalg.norm(keys, axis=1)[:, None]
                api.rotate(api.rotation(D, rep.selected_seed, layer), unit)
        return t2 - t0

    def _verify_pass(self, solved, reports, rom, diag) -> None:
        run, api = self.run, self.api
        h = hashlib.sha256()
        for cb, image, image2 in solved:
            run.check("codebook_residual", api.residual(cb) < RESIDUAL_TOL, f"b={cb.b}")
            run.check("codebook_rom_size", len(image) == api.rom_size(cb.b), f"b={cb.b}")
            run.check("codebook_rom_round_trip", image == image2, f"b={cb.b}")
            h.update(image)
        run.check("codebook_rom_30_bytes", len(solved[B - 1][1]) == 30)
        run.check("sign_rom_584_bytes", len(rom) == SIGN_ROM_BYTES, f"({len(rom)})")
        mses = hashlib.sha256()
        for rep in reports:
            pick = int(np.argmin(rep.mses))
            run.check("select_signs_argmin", rep.selected_seed == pick + 1
                      and rep.best_mse == float(rep.mses[pick]))
            mses.update(np.ascontiguousarray(rep.mses, dtype="<f8").tobytes())
        run.check("norm_diagnostic_finite", math.isfinite(diag.ratio) and diag.ratio >= 1.0)
        self.spreads = [rep.spread for rep in reports]
        self.reports = reports
        run.digest("codebook_roms_b1_8", h.hexdigest())
        run.digest("sign_rom", sha256(rom))
        run.digest("candidate_mses", mses.hexdigest())
        run.digest("norm_ratio", repr(diag.ratio))

    def verify_run(self) -> None:
        """select_signs_all_layers must agree with the per-layer calls it wraps;
        checked on two layers to keep the run short."""
        run, api = self.run, self.api
        if len(self.reports) < 2:
            return
        run.attempted += 2
        pair = {layer: self.layers[layer] for layer in (0, 1)}
        try:
            _, rom = api.select_signs_all_layers(pair, SELECT_CANDIDATES, B, 0)
            mine = api.pack_signs(self.reports[:2])
        except api.Error as exc:
            run.fail(repr(exc))
            return
        run.check("select_all_layers_matches_per_layer", rom == mine)

    def end_to_end_named(self) -> dict:
        return {
            "codebook_solve_s": (p50(self.codebook_s), "s", len(self.codebook_s)),
            "signopt_s": (p50(self.signopt_s), "s", len(self.signopt_s)),
            "layer_select_ms_min": (min(self.items_ms), "ms", len(self.items_ms)),
            "layer_select_ms_p50": (p50(self.items_ms), "ms", len(self.items_ms)),
            "layer_select_ms_p90": (p90(self.items_ms), "ms", len(self.items_ms)),
        }

    def per_layer(self, durs: dict) -> dict:
        out = self.span_metrics(durs)
        out["signopt.spread_median"] = p50(self.spreads) if self.spreads else 0.0
        return out


WORKLOADS = {w.name: w for w in (Decode, Pipeline, Calibrate)}
