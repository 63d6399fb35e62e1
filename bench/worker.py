"""One workload in one fresh interpreter (started by run.py).

    python bench/worker.py --workload W --seed N --seconds S
                           --mode timed|trace|memory --launched T [--setup-only]

T is the parent's time.monotonic() just before the launch, so set-up
time counts from process start.  Modes:

- timed: whole rounds until S seconds have passed; no tracing.
- trace: TRACE_ROUNDS rounds with every layer wrapped (bench/tracer.py),
  so that the counts repeat exactly for a seed.
- memory: round 0 without its perturbed controls under tracemalloc,
  which slows Python several times and so never runs with the timed
  layers; gives mem.traced_peak_mb.

The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
TRACE_ROUNDS = {"symmetry_suite": 1, "catalog_grid": 1, "classify_sweep": 2,
                "cli_oneshot": 1}


def _round_maker(workload: str, child_trace, memory: bool):
    """Everything before the first timed operation that every round needs:
    the catalog build and, for the CLI, the entries it can state."""
    from rdsym import solutions

    import workloads

    entries = solutions.catalog()
    if workload == "symmetry_suite":
        return lambda seed, rnd: workloads.symmetry_round(seed, rnd)
    if workload == "catalog_grid":
        return lambda seed, rnd: workloads.catalog_round(seed, rnd, entries)
    if workload == "classify_sweep":
        return lambda seed, rnd: workloads.classify_round(seed, rnd)
    import cli_requests

    state = (cli_requests.solution_entries(), sorted(e.name for e in entries))
    return lambda seed, rnd: cli_requests.cli_round(seed, rnd, state, child_trace, memory)


def _merge_child(totals: dict, path: Path, requests: list) -> None:
    data = json.loads(path.read_text())
    for name, value in data["metrics"].items():
        if name.endswith(("peak_mb", "peak_rss_mb")):
            totals[name] = max(totals.get(name, 0), value)
        else:
            totals[name] = totals.get(name, 0) + value
    if data["records"] is not None:
        requests.append(data["records"])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("timed", "trace", "memory"), default="timed")
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    is_cli = args.workload == "cli_oneshot"
    in_process_memory = args.mode == "memory" and not is_cli
    if in_process_memory:
        import tracemalloc
        tracemalloc.start()

    import rdsym

    tracer = None
    if args.mode == "trace" and not is_cli:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    child_trace = None
    if is_cli and args.mode != "timed":
        OUT.mkdir(exist_ok=True)
        child_trace = OUT / f"cli-request-{args.seed}.json"
    make_round = _round_maker(args.workload, child_trace, args.mode == "memory")
    ops = make_round(args.seed, 0)
    if args.mode == "memory":
        ops = [op for op in ops if not op.kind.endswith("_control")]
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    child_totals: dict = {}
    child_requests: list = []
    times, failures = [], []
    attempted = 0
    rounds = 0
    start = time.monotonic()
    while True:
        for op in ops:
            attempted += 1
            span = tracer.span(f"op.{op.kind}") if tracer else nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    out = op.run()
            except Exception as exc:   # a failed operation; the run goes on
                failures.append(f"{op.kind} [{op.label}]: {type(exc).__name__}: {exc}")
                if len(failures) <= 3:
                    traceback.print_exc(file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            with tracer.paused() if tracer else nullcontext():
                if child_trace is not None:
                    _merge_child(child_totals, child_trace, child_requests)
                try:
                    problem = op.check(out)
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                failures.append(f"{op.kind} [{op.label}]: {problem}")
                continue
            times.append(dt)
        rounds += 1
        if args.mode == "memory":
            break
        if args.mode == "trace":
            if rounds >= TRACE_ROUNDS[args.workload]:
                break
        elif time.monotonic() - start >= args.seconds:
            break
        ops = make_round(args.seed, rounds)

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF)
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "rounds": rounds,
        "ops_per_s": len(times) / sum(times) if times else 0.0,
        "op_p50_ms": statistics.median(times) * 1e3 if times else 0.0,
        "timed_s": sum(times),
        "setup_s": setup_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "rdsym": str(Path(rdsym.__file__).resolve().parent),
    }
    if in_process_memory:
        result["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
    elif args.mode == "memory":
        result["traced_peak_mb"] = child_totals.get("mem.traced_peak_mb", 0.0)
    elif args.mode == "trace":
        if tracer is not None:
            result["per_layer"] = tracer.metrics()
            result["records"] = tracer.records()
        else:
            from tracer import METRICS
            result["per_layer"] = {name: child_totals.get(name, 0) for name in METRICS}
            result["records"] = {"requests": child_requests}
    if child_trace is not None:
        child_trace.unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
