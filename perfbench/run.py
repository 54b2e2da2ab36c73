"""Run one gset benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload txn-small --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` spends half the
time untraced and half traced, and prints the per-layer metrics, per
transaction (per adversarial run on attack-mix), plus the tracing
overhead.  The spans of a traced run are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything
before it is a human-readable report.  The benchmark imports gset from
``src/`` of the same checkout and exits with code 2 if it is not there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

UNITS = {"txn_per_s": "1/s", "txn_p50_ms": "ms", "txn_p90_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MiB"}

# Workload-specific names for the shared end-to-end metrics, as printed
# in the human-readable report.
ALIASES = {"attack-mix": {"txn_per_s": "attack_runs_per_s",
                          "txn_p50_ms": "run_p50_ms",
                          "txn_p90_ms": "run_p90_ms"}}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_gset() -> float:
    """Import gset from this checkout's sources; returns the import time."""
    if not (SRC / "gset" / "__init__.py").is_file():
        fail(f"no gset sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import gset  # noqa: F401
    import gset.attacks  # noqa: F401
    elapsed = perf_counter() - start
    if Path(gset.__file__).resolve().parent != SRC / "gset":
        fail(f"imported gset from {gset.__file__}, not from {SRC}")
    return elapsed


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("txn-small", "txn-bulk", "attack-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(args, workloads, seeds, setup_s: float) -> tuple[dict, list]:
    loop = workloads.run_loop(args.workload, seeds, args.seconds)
    values = {
        "txn_per_s": loop.rate_per_s,
        "txn_p50_ms": loop.percentile_ms(0.5),
        "txn_p90_ms": loop.percentile_ms(0.9),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    aliases = ALIASES.get(args.workload, {})
    print(f"samples            {len(loop.latencies_s)} over {loop.elapsed_s:.2f} s")
    for name, value in values.items():
        print(f"{aliases.get(name, name):<18} {value:.4f} {UNITS[name]}")
    if loop.wire_bytes:
        print(f"wire_bytes_per_txn {statistics.fmean(loop.wire_bytes):.1f} B")
    return values, [loop]


def traced_run(args, workloads, tracing, seeds) -> tuple[dict, list]:
    half = args.seconds / 2
    plain = workloads.run_loop(args.workload, seeds, half)
    tracer = tracing.Tracer()
    with tracer:
        traced = workloads.run_loop(args.workload, seeds, half, offset=plain.attempted)
    values = tracer.layer_metrics()
    values["trace.txn_per_s"] = traced.rate_per_s
    values["trace.overhead"] = 1 - traced.rate_per_s / plain.rate_per_s
    ops = tracer.per_txn_ops()
    repeats = all(entry == ops[0] for entry in ops)
    print(f"traced             {tracer.transactions} transactions, {len(tracer.spans)} spans")
    print(f"untraced txn_per_s {plain.rate_per_s:.4f}")
    print(f"traced txn_per_s   {traced.rate_per_s:.4f}")
    print(f"op counts repeat   {'yes' if repeats else 'no'} across transactions")
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{args.workload}"
    tracer.write_spans(stem.with_suffix(".tsv"))
    stem.with_suffix(".ops.json").write_text(json.dumps(ops[0] if repeats else ops, indent=1,
                                                        sort_keys=True))
    return values, [plain, traced]


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    spec = load_spec()
    import_s = import_gset()
    import tracing
    import workloads

    seeds, rounds = workloads.setup(args.workload, args.seed, args.seconds)
    setup_s = import_s + statistics.median(rounds)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"setup              import {import_s:.4f} s, rounds "
          + ", ".join(f"{r:.4f}" for r in rounds) + " s")

    if args.trace:
        values, loops = traced_run(args, workloads, tracing, seeds)
        wanted = spec["per_layer"]
    else:
        values, loops = timed_run(args, workloads, seeds, setup_s)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(f"error_share        {failed / attempted:.6f} ratio ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
