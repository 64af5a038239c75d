"""Benchmark of the stepgraphon library: closed-loop workloads, one job at a time.

    python3 perfbench/run.py --workload cutnorm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  Each workload runs in fresh worker processes
(see worker.py) with BLAS and OpenMP pinned to one thread.  `--trace 0`
prints every end-to-end metric by name and unit, and as its last line one
JSON object whose metrics are those in BENCHMARK.json's `end_to_end`;
`--trace 1` prints the per-layer table and BENCHMARK.json's `per_layer`
metrics instead, from one pass that runs each job untraced, then traced.
`--seconds` sizes the job list: about that many seconds of jobs at the
reference rate in workloads.py, so both commits of a comparison run the
same jobs.  `--workload all` prints the end-to-end table of every
workload, including the quality figures `fail_share` and `zero_gap`.
Jobs that show a library defect listed in workloads.KNOWN_DEFECTS are
printed and counted in `fail_share` but leave the run correct; any other
failure makes it incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cutnorm", "cutdist", "probes")
SETUP_STARTS = 4  # setup-only starts; the measured process is one more sample
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def start_worker(workload, seed, seconds, mode, deadline):
    """Run one fresh worker process; returns its result with `setup_s` added."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} worker ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by both processes
    result["setup_s"] = result["ready"] - start
    return result


def tail(times):
    """Highest percentile with at least 10 jobs beyond it: (value, percentile)."""
    ordered = sorted(times)
    i = max(len(ordered) - 11, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def measure(workload, seed, seconds, trace, deadline):
    setups = [start_worker(workload, seed, seconds, "setup", deadline)
              for _ in range(SETUP_STARTS)]
    res = start_worker(workload, seed, seconds, "trace" if trace else "run", deadline)
    setups.append(res)
    times = res["times"]
    tail_s, tail_pct = tail(times)
    res.update({
        "jobs_per_s": len(times) / res["wall_s"],
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "tail_percentile": tail_pct,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "import_s": statistics.median(s["import_s"] for s in setups),
        "attempted": len(times),
    })
    # jobs that raised or failed a check, known library defects included
    res["fail_share"] = (res["failed"] + len(res["known_defects"])) / res["attempted"]
    return res


END_TO_END = [("jobs_per_s", "1/s"), ("job_p50_s", "s"), ("job_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB")]


def end_to_end_rows(res):
    rows = [(name, res[name], unit) for name, unit in END_TO_END]
    rows.append(("fail_share", res["fail_share"], "ratio"))
    rows += [(name, value, "cut-norm") for name, value in res["summary"].items()]
    return rows


def per_layer_metrics(res):
    tr = res["trace"]
    metrics = {}
    for name, row in tr["layers"].items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    metrics["metrics.cut_norm_per_cut_distance"] = (tr["cut_norm_per_cut_distance"], "ratio")
    metrics["multiway.kept_ratio"] = (tr["kept_ratio"], "ratio")
    metrics["cli.import_s"] = (res["import_s"], "s")
    metrics["scenarios.inputs_s"] = (res["inputs_s"], "s")
    metrics["harness.self_s"] = (tr["traced_jobs_s"] - tr["root_spans_s"], "s")
    metrics["trace.overhead_s"] = (tr["traced_jobs_s"] - tr["untraced_jobs_s"], "s")
    return metrics


def report(workload, res, trace):
    """Print the human-readable lines; return (correct, metrics of the result line)."""
    print(f"# {workload}: {res['attempted']} jobs in {res['wall_s']:.3f} s, "
          f"tail is p{res['tail_percentile']:.1f} of {res['attempted']} jobs")
    print(f"# env {json.dumps(res['env'], sort_keys=True)}")
    for line in res["failures"]:
        print(f"# failed {line}")
    for line in res["known_defects"]:
        print(f"# known defect {line}")
    # known defects (workloads.KNOWN_DEFECTS) count in fail_share, not here
    correct = res["failed"] == 0
    if not trace:
        for name, value, unit in end_to_end_rows(res):
            print(f"{workload} {name} {value:.6g} {unit}")
        print(f"{workload} cli.import_s {res['import_s']:.6g} s")
        return correct, {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
    print(f"{workload} fail_share {res['fail_share']:.6g} ratio")
    tr = res["trace"]
    metrics = per_layer_metrics(res)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    self_total = sum(row["self_s"] for row in tr["layers"].values())
    print(f"# accounting: layer self {self_total:.6f} s + harness "
          f"{metrics['harness.self_s'][0]:.6f} s = traced jobs {tr['traced_jobs_s']:.6f} s; "
          f"traced outputs equal untraced: {tr['same_outputs']}")
    correct = correct and tr["same_outputs"]
    return correct, {name: {"value": value, "unit": unit}
                     for name, (value, unit) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stepgraphon" / "__init__.py").is_file():
        print(f"error: no stepgraphon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.workload == "all":
            for workload in WORKLOADS:
                res = measure(workload, args.seed, args.seconds, False,
                              time.monotonic() + DEADLINE_S)
                report(workload, res, False)
            return 0
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    correct, metrics = report(args.workload, res, bool(args.trace))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
