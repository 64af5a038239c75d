"""One fresh benchmark process: set up a workload, then run its job loop.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS {setup,run,trace}

`run.py` starts this with BLAS pinned and `src` on the path, and reads the
JSON object it prints last.  `setup` stops after the warm-up job; `run`
times one pass over the job list; `trace` runs each job untraced and then
traced, and reports per-layer spans.  Job outputs are checked after the loop, so
checks never count towards job times.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _import_cli():
    start = time.perf_counter()
    import stepgraphon.cli  # noqa: F401  every CLI call pays this import
    return time.perf_counter() - start


class JobError:
    """Output of a job that raised; equal to another with the same message."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, JobError) and other.text == self.text


def run_job(workload, job):
    try:
        return workload.run(job)
    except Exception as exc:  # a failing job is counted, never retried
        return JobError(exc)


def job_loop(workload, jobs):
    """Run every job once, in order; returns outputs, job times and wall time."""
    outputs, times = [], []
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        outputs.append(run_job(workload, job))
        times.append(time.perf_counter() - t0)
    return outputs, times, time.perf_counter() - start


def traced_pass(workload, jobs, tracer, modules):
    """Run every job untraced and then traced, back to back.

    Pairing the two keeps slow drift in machine speed out of the tracing
    overhead.  Returns the untraced outputs and times, the traced times,
    and whether every traced output equals the untraced one.
    """
    outputs, times, traced_times, same = [], [], [], True
    for index, job in enumerate(jobs):
        t0 = time.perf_counter()
        outputs.append(run_job(workload, job))
        times.append(time.perf_counter() - t0)
        tracer.job = index
        tracer.install(modules)
        try:
            t0 = time.perf_counter()
            traced_out = run_job(workload, job)
            traced_times.append(time.perf_counter() - t0)
        finally:
            tracer.remove()
        same = same and traced_out == outputs[-1]
    return outputs, times, traced_times, same


def check_outputs(workload, jobs, outputs):
    """Returns ({job index: why it failed}, {job index: known defects it showed}).

    A job is a failure if it raised or if any of its findings is not a known
    defect; a job whose findings are all known defects goes in the second map.
    """
    failures, known = {}, {}
    for index, (job, out) in enumerate(zip(jobs, outputs)):
        findings = [(None, out.text)] if isinstance(out, JobError) else workload.check(job, out)
        if not findings:
            continue
        why = "; ".join(f"[{defect}] {text}" if defect else text for defect, text in findings)
        if all(defect for defect, _ in findings):
            known[index] = why
        else:
            failures[index] = why
    return failures, known


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv):
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    import_s = _import_cli()
    import stepgraphon
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(stepgraphon.__file__).resolve().parent.parent != src:
        raise SystemExit(f"stepgraphon imported from {stepgraphon.__file__}, not {src}")
    import workloads

    workload = workloads.WORKLOADS[name]
    n_jobs = workload.size(seconds)
    t0 = time.perf_counter()
    jobs = [workload.make(seed, i) for i in range(n_jobs)]
    inputs_s = time.perf_counter() - t0
    run_job(workload, workload.make(seed, n_jobs))
    result = {"ready": time.perf_counter(), "import_s": import_s, "inputs_s": inputs_s}
    if mode == "setup":
        return result

    if mode == "run":
        outputs, times, wall = job_loop(workload, jobs)
    else:
        from spans import Tracer
        tracer = Tracer()
        outputs, times, traced_times, same = traced_pass(workload, jobs, tracer, [workloads])
        wall = sum(times)
        result["trace"] = {
            "layers": tracer.layer_table(),
            "cut_norm_per_cut_distance": tracer.cut_norms_per_cut_distance(),
            "kept_ratio": tracer.kept_ratio(),
            "untraced_jobs_s": wall,
            "traced_jobs_s": sum(traced_times),
            "root_spans_s": tracer.root_time(),
            "same_outputs": same,
        }
        spans_dir = src.parent / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        with open(spans_dir / f"spans-{name}-{seed}.json", "w") as fh:
            json.dump([s.to_list() for s in tracer.spans], fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, known = check_outputs(workload, jobs, outputs)
    result.update({
        "times": times,
        "wall_s": wall,
        "failed": len(failures),
        "failures": [f"job {i}: {why}" for i, why in sorted(failures.items())],
        "known_defects": [f"job {i}: {why}" for i, why in sorted(known.items())],
        "summary": workload.summary(jobs, outputs),
        "env": environment(),
    })
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
