"""kvlut benchmark: host time of the simulator on three workloads.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 25 --trace 0

Workloads are decode, pipeline and calibrate; `--workload all` runs the
three in one process.  With `--trace 0` the last stdout line is a JSON
object holding the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics taken from spans around every call into kvlut.  Lines
before it, prefixed with '#', give every metric under its workload-specific
name with its unit and sample count, the correctness checks, the output
digests and the machine facts.  Full results go to .perfbench_out/ in the
checkout; a traced run also writes its spans there and, when the untraced
result for the same workload, seed and seconds exists, the tracing overhead.
"""

import os
import sys

# One BLAS/OpenMP thread: set before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def machine_facts(np) -> dict:
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def run_workload(name: str, args, facts, kvlut, adapter, tracer, workloads) -> dict:
    tr = tracer.Tracer(bool(args.trace))
    api = adapter.Kvlut(kvlut, tr)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    try:
        run = workloads.Run(api, tr, args.seed, work)
        wl = workloads.WORKLOADS[name](run)
        wl.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = wl.end_to_end(rss_mb)
    named = {"setup_s": (e2e["setup_s"][0], "s", len(wl.setup_s)),
             "pass_s": (e2e["pass_s"][0], "s", len(wl.pass_s)),
             "pass_wall_s_p50": (workloads.p50(wl.pass_s), "s", len(wl.pass_s)),
             **wl.end_to_end_named(),
             "peak_rss_mb": (rss_mb, "MB", 1),
             "error_rate": (run.failed / max(run.attempted, 1), "ratio", run.attempted)}
    result = {
        "workload": name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "correct": run.failed == 0 and bool(wl.pass_s),
        "attempted": run.attempted, "failed": run.failed,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "named": {k: {"value": v, "unit": u, "samples": n}
                  for k, (v, u, n) in named.items()},
        "checks": {k: {"passed": ok, "failed": bad}
                   for k, (ok, bad) in sorted(run.checks.items())},
        "failures": run.failures,
        "digests": run.digests,
        "samples": {"setup_s": wl.setup_s, "pass_s": wl.pass_s, "item_ms": wl.items_ms},
        "machine": facts,
    }
    stem = f"{name}-seed{args.seed}"
    if args.trace:
        units = dict(workloads.PER_LAYER)
        result["per_layer"] = {k: {"value": v, "unit": units[k]}
                               for k, v in wl.per_layer(wl.layer_durations()).items()}
        result["probed"] = sorted(wl.probed)
        tr.write(OUT / f"{stem}-spans.json")
        result["trace_overhead"] = overhead(result, OUT / f"{stem}-trace0.json")
    with open(OUT / f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return result


def overhead(traced: dict, untraced_path: Path) -> dict | None:
    """Traced minus untraced end-to-end numbers, as a share of the untraced."""
    try:
        base = json.loads(untraced_path.read_text())
    except (OSError, ValueError):
        return None
    if base.get("seconds") != traced["seconds"]:
        return None
    return {k: v["value"] / base["end_to_end"][k]["value"] - 1.0
            for k, v in traced["end_to_end"].items()
            if base["end_to_end"].get(k, {}).get("value")}


def report(result: dict) -> None:
    say = lambda text: print(f"# {text}")  # noqa: E731
    say(f"workload {result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']} trace={result['trace']}")
    say(f"why: {result['why']}")
    say("machine: " + " ".join(f"{k}={v}" for k, v in result["machine"].items()))
    for k, m in result["named"].items():
        say(f"{k:<24} {m['value']:>14.6g} {m['unit']:<6} (n={m['samples']})")
    checks = result["checks"]
    say(f"checks: {sum(c['passed'] for c in checks.values())} passed, "
        f"{sum(c['failed'] for c in checks.values())} failed, {len(checks)} kinds")
    for line in result["failures"]:
        say(f"FAIL {line}")
    for k, v in sorted(result["digests"].items()):
        say(f"sha256 {k:<28} {v}")
    for k, m in result.get("per_layer", {}).items():
        say(f"{k:<38} {m['value']:>14.6g} {m['unit']}")
    if "trace_overhead" in result:
        ovh = result["trace_overhead"]
        say("trace overhead: " + (" ".join(f"{k}={v:+.2%}" for k, v in ovh.items())
                                  if ovh else "run --trace 0 with this seed first"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("decode", "pipeline", "calibrate", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import numpy as np

    import adapter
    import tracer
    import workloads
    try:
        kvlut = adapter.import_kvlut(ROOT)
    except (adapter.ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    facts = machine_facts(np)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args, facts, kvlut, adapter, tracer, workloads)
        report(result)
        results.append(result)

    section = "per_layer" if args.trace else "end_to_end"
    if len(results) == 1:
        metrics = results[0][section]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r[section].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
