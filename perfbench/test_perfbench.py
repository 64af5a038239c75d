"""Tests of the benchmark itself: job lists, checks, tracing and the result contract."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from stepgraphon import metrics  # noqa: E402

CHEAP_JOB = {"cutnorm": 0, "cutdist": 0, "probes": 0}  # cutdist job 0 is a k=6 pair


def _arrays(job):
    """Every array reachable from a job, in a fixed order."""
    if isinstance(job, dict):
        return [a for key in sorted(job) for a in _arrays(job[key])]
    if isinstance(job, (list, tuple)):
        return [a for item in job for a in _arrays(item)]
    if hasattr(job, "weights"):
        return [job.weights, job.values]
    if hasattr(job, "atoms"):
        return [job.atoms, job.masses]
    return [np.asarray(job if job is not None else 0)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_jobs(name):
    w = workloads.WORKLOADS[name]
    for index in (0, 1, 2, 3):
        a, b = _arrays(w.make(7, index)), _arrays(w.make(7, index))
        assert len(a) == len(b)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    other = _arrays(w.make(8, 0))
    assert not all(np.array_equal(x, y) for x, y in zip(_arrays(w.make(7, 0)), other))


@pytest.fixture(scope="module")
def results():
    out = {}
    for name, index in CHEAP_JOB.items():
        w = workloads.WORKLOADS[name]
        job = w.make(3, index)
        out[name] = (job, w.run(job))
    return out


def _texts(findings, defect=None):
    """Texts of the findings that name `defect` (None: failures, not known defects)."""
    return [text for d, text in findings if d == defect]


def test_cutnorm_checks_reject_corruption(results):
    w = workloads.WORKLOADS["cutnorm"]
    job, out = results["cutnorm"]
    assert w.check(job, out) == []
    bad = copy.deepcopy(out)
    bad["exact_large"]["value"] += 1e-6
    assert any("witness" in p for p in _texts(w.check(job, bad)))
    bad = copy.deepcopy(out)
    bad["exact_small"]["s"] = [1 - x for x in bad["exact_small"]["s"]]
    assert _texts(w.check(job, bad))
    bad = copy.deepcopy(out)
    bad["heuristic_small"] = copy.deepcopy(out["exact_small"])
    bad["exact_small"]["value"] *= 0.5
    assert any("below the heuristic" in p for p in _texts(w.check(job, bad)))


def test_cutdist_checks_reject_corruption(results):
    w = workloads.WORKLOADS["cutdist"]
    job, out = results["cutdist"]
    assert job["family"] == "rearranged6"
    assert w.check(job, out) == []
    value, matrix = out[0]
    assert any("negative" in p for p in _texts(w.check(job, [(-1e-3, matrix)])))
    assert any("rearranged k=6" in p for p in _texts(w.check(job, [(1e-3, matrix)])))
    U, W = job["pairs"][0]
    identity = metrics.Coupling.diagonal(U.weights).matrix.tolist()
    problems = _texts(w.check(job, [(value, identity)]))
    assert any("exact cut norm under the returned 6-cell coupling" in p for p in problems)


def test_cutdist_heuristic_shortfall_is_known_only_past_the_search_cap():
    """Below the exact value under a coupling past the cap: known; above it: failure."""
    w = workloads.WORKLOADS["cutdist"]
    job = w.make(3, 1)
    U, W = job["pairs"][0]
    k = U.k
    assert job["family"] == "rearranged10" and 2 * k > metrics.SEARCH_EXACT_CAP
    # half identity, half cyclic shift: 2k cells, within the exact recheck
    matrix = (np.eye(k) + np.roll(np.eye(k), 1, axis=1)) / (2 * k)
    exact = metrics.cut_norm_distance(U, W, metrics.Coupling(matrix, U.weights, W.weights),
                                      mode="exact")
    below = w.check(job, [(exact - 1e-3, matrix.tolist())])
    assert below and all(d == "cut_distance.heuristic_value" for d, _ in below)
    assert _texts(w.check(job, [(exact + 1e-3, matrix.tolist())]))
    assert w.check(job, [(exact, matrix.tolist())]) == []


def test_probes_checks_reject_corruption(results):
    w = workloads.WORKLOADS["probes"]
    job, out = results["probes"]
    assert w.check(job, out) == []
    corruptions = {"order": [["consistent", []], ["consistent", []]],
                   "flatter": [True, True], "chi": 1e-12, "multiway": [0, 3, 0.1]}
    for key, value in corruptions.items():
        assert _texts(w.check(job, dict(out, **{key: value}))), key
    assert _texts(w.check(job, dict(out, multiway=[3, 3, float("nan")])))
    refuted_by_density = [["refuted", ["edge-density"]], out["order"][1]]
    assert _texts(w.check(job, dict(out, order=refuted_by_density)))


def test_probes_known_defects_are_named(results):
    w = workloads.WORKLOADS["probes"]
    job, out = results["probes"]
    defect = "order_check.float_flatness"
    for order in ([["MarginalMismatch", ["row sums"]], out["order"][1]],
                  [["refuted", ["range-frequency-flatness"]], out["order"][1]],
                  [out["order"][0], ["MarginalMismatch", ["column sums"]]]):
        findings = w.check(job, dict(out, order=order))
        assert findings and all(d == defect for d, _ in findings), order
    findings = w.check(job, dict(out, multiway=[workloads.MULTIWAY_DRIFT]))
    assert [d for d, _ in findings] == ["multiway.sinkhorn_drift"]
    assert all(d in workloads.KNOWN_DEFECTS for d in ("multiway.sinkhorn_drift", defect,
                                                      "cut_distance.heuristic_value"))


def test_raising_jobs_are_counted_not_retried():
    import worker

    class Flaky(workloads.Workload):
        def run(self, job):
            if job == "boom":
                raise ValueError("bad input")
            return job

        def check(self, job, out):
            return {"ok": [], "bad": [(None, "wrong")],
                    "known": [("some.defect", "as before")],
                    "both": [("some.defect", "as before"), (None, "wrong")]}[out]

    jobs = ["ok", "boom", "bad", "known", "both"]
    outputs, times, _ = worker.job_loop(Flaky(), jobs)
    assert len(times) == 5
    failures, known = worker.check_outputs(Flaky(), jobs, outputs)
    assert failures == {1: "ValueError: bad input", 2: "wrong",
                        4: "[some.defect] as before; wrong"}
    assert known == {3: "[some.defect] as before"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_list_size_follows_seconds_in_whole_rotations(name):
    w = workloads.WORKLOADS[name]
    assert w.size(30) == w.size(30) >= w.size(10) >= w.group
    assert w.size(30) % w.group == 0


def test_traced_outputs_equal_untraced_and_wrappers_are_removed(results):
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "stepgraphon" or n.startswith("stepgraphon.")] + [workloads]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    tracer = spans.Tracer()
    tracer.install([workloads])
    try:
        traced = {}
        for name, index in CHEAP_JOB.items():
            tracer.job = name
            traced[name] = workloads.WORKLOADS[name].run(workloads.WORKLOADS[name].make(3, index))
    finally:
        tracer.remove()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    assert after == before
    for name, (_, out) in results.items():
        assert traced[name] == out, name
    table = tracer.layer_table()
    for layer in ("metrics.cut_norm.exact", "metrics.cut_norm.heuristic",
                  "metrics.cut_distance", "metrics.linprog", "core.common_refinement",
                  "measures.check_flatter.exact", "measures.check_flatter.float",
                  "measures.linprog", "order.chi_estimate", "multiway.multiway_matrix"):
        assert table[layer]["calls"] > 0, layer
    assert {s.job for s in tracer.spans} == set(CHEAP_JOB)
    for s in tracer.spans:
        if s.parent is not None:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    self_total = sum(row["self_s"] for row in table.values())
    assert self_total == pytest.approx(tracer.root_time(), rel=1e-9)
    assert tracer.cut_norms_per_cut_distance() > 0
    assert 0 < tracer.kept_ratio() <= 1


def test_result_metrics_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    fake = {"import_s": 1.0, "inputs_s": 0.1,
            "trace": {"layers": spans.Tracer().layer_table(), "cut_norm_per_cut_distance": 0.0,
                      "kept_ratio": 0.0, "traced_jobs_s": 2.0, "untraced_jobs_s": 1.9,
                      "root_spans_s": 1.5}}
    metrics_out = run.per_layer_metrics(fake)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, (_, unit) in metrics_out.items()]


def test_tail_has_ten_jobs_beyond_it():
    value, pct = run.tail(list(range(40)))
    assert value == 29 and pct == 75.0
    assert sum(t > value for t in range(40)) == 10


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cutnorm",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
