"""rdsym benchmark: one workload per call, run from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: symmetry_suite, catalog_grid, classify_sweep, cli_oneshot
(see bench/README.md).  rdsym is loaded from the checkout's src/.  Each
workload runs in its own fresh interpreter with one thread; set-up is
measured in separate fresh interpreters as well and reported as a median.
The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics of
bench/tracer.py for --trace 1 (the trace itself goes to bench/out/).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("symmetry_suite", "catalog_grid", "classify_sweep", "cli_oneshot")
SETUP_RUNS = 5          # set-up is the median of this many fresh interpreters
BUDGET_S = 170.0        # every child is stopped by then


def child_env() -> dict:
    env = dict(os.environ)
    # the benchmark seed only draws inputs; the program samples as shipped
    env.pop("RDSYM_SEED", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self):
        self.env = child_env()
        self.deadline = time.monotonic() + BUDGET_S

    def run(self, cmd: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        """Run a child to its end; returns it and its wall time.  A child
        still running at the deadline is killed with everything it
        started, and waited for."""
        t0 = time.monotonic()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=self.env, cwd=ROOT,
                              start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=max(1.0, self.deadline - t0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        wall = time.monotonic() - t0
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err), wall

    def worker(self, workload, seed, seconds, mode, setup_only=False) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
               "--launched", repr(time.monotonic())]
        if setup_only:
            cmd.append("--setup-only")
        proc, _ = self.run(cmd)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "rdsym" / "__init__.py").is_file():
        print(f"error: no rdsym package under {SRC}", file=sys.stderr)
        return 2

    runner = Runner()
    import_cli = [sys.executable, "-c", "import rdsym.cli"]
    try:
        # byte-compile and warm the file cache; not measured
        proc, _ = runner.run(import_cli)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 2
        setups = []
        if not args.trace and args.workload == "cli_oneshot":
            setups = [runner.run(import_cli)[1] for _ in range(SETUP_RUNS)]
        elif not args.trace:
            # the measured run's own set-up is the last of the SETUP_RUNS
            setups = [runner.worker(args.workload, args.seed, args.seconds, "timed",
                                    setup_only=True)["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
        res = runner.worker(args.workload, args.seed, args.seconds,
                            "trace" if args.trace else "timed")
        if args.trace:
            mem = runner.worker(args.workload, args.seed, args.seconds, "memory")
            res["per_layer"]["mem.traced_peak_mb"] = mem["traced_peak_mb"]
            res["attempted"] += mem["attempted"]
            res["failed"] += mem["failed"]
            res["failures"] += mem["failures"]
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "cli_oneshot":
        setups.append(res["setup_s"])

    for line in res["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"rdsym loaded from {res['rdsym']}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "end_to_end_traced": {k: res[k] for k in ("ops_per_s", "op_p50_ms", "timed_s")},
            "per_layer": res["per_layer"], "records": res["records"]}))
        print(f"trace written to {trace_file.relative_to(ROOT)}")
        from tracer import METRICS
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in METRICS.items()}
    else:
        metrics = {
            "ops_per_s": {"value": res["ops_per_s"], "unit": "op/s"},
            "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
