import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stepgraphon import io
from stepgraphon.cli import build_parser, main
from stepgraphon.core import StepGraphon
from stepgraphon.order import EnvelopeSample

from conftest import flatness_defect_pair


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_module(args, module=("-m", "stepgraphon.cli")):
    """Run `python -m stepgraphon.cli args` with this checkout's src/ first on the path.

    module replaces `-m stepgraphon.cli`, e.g. by `-c` and a program.
    """
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *module] + args,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_build_and_density_roundtrip(tmp_path, capsys):
    path = tmp_path / "u1.json"
    code, _ = run_cli(["build", "--name", "u1", "--eps", "0.125",
                       "--out", str(path)], capsys)
    assert code == 0
    g = io.load(path, StepGraphon)
    assert g.k == 2
    code, out = run_cli(["density", "--w", str(path), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["density"] == 0.71875


def test_roundtrip_field_identity(tmp_path, capsys):
    path = tmp_path / "w1.json"
    run_cli(["build", "--name", "w1", "--eps", "0.0625", "--out", str(path)], capsys)
    g1 = io.load(path, StepGraphon)
    io.save(g1, path)
    g2 = io.load(path, StepGraphon)
    assert g1.weights.tolist() == g2.weights.tolist()
    assert g1.values.tolist() == g2.values.tolist()


def test_intf_command(tmp_path, capsys):
    path = tmp_path / "c.json"
    run_cli(["build", "--name", "constant", "--c", "0.5", "--out", str(path)], capsys)
    code, out = run_cli(["intf", "--w", str(path), "--f", "x2", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == 0.25


def test_cutnorm_command(tmp_path, capsys):
    path = tmp_path / "y.json"
    kernel = {"weights": [0.5, 0.5], "values": [[-0.5, 0.5], [0.5, -0.5]],
              "signed": True}
    path.write_text(json.dumps(kernel))
    code, out = run_cli(["cutnorm", "--y", str(path), "--exact", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 0.125
    assert report["mode"] == "exact"


def test_cutdist_and_wstar(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(["build", "--name", "constant", "--c", "0.2", "--out", str(a)], capsys)
    run_cli(["build", "--name", "constant", "--c", "0.7", "--out", str(b)], capsys)
    code, out = run_cli(["cutdist", "--u", str(a), "--w", str(b),
                         "--budget", '{"restarts":1,"max_iters":2}', "--json"],
                        capsys)
    assert code == 0
    assert json.loads(out)["cut_distance_upper_bound"] == pytest.approx(0.5)
    code, out = run_cli(["wstar", "--u", str(a), "--w", str(b), "--depth", "3",
                         "--json"], capsys)
    assert code == 0
    assert json.loads(out)["weak_star_distance"] > 0


def test_flatness_exit_codes(tmp_path, capsys):
    l1 = tmp_path / "l1.json"
    l2 = tmp_path / "l2.json"
    l1.write_text(json.dumps({"atoms": [0.5], "masses": [1.0]}))
    l2.write_text(json.dumps({"atoms": [0.0, 1.0], "masses": [0.5, 0.5]}))
    code, _ = run_cli(["flatness", "--l1", str(l1), "--l2", str(l2)], capsys)
    assert code == 0
    code, _ = run_cli(["flatness", "--l1", str(l2), "--l2", str(l1)], capsys)
    assert code == 3
    code, _ = run_cli(["flatness", "--l1", str(l1), "--l2", str(l2),
                       "--exact-rational"], capsys)
    assert code == 0


def test_order_check_exit_codes(tmp_path, capsys):
    bip = tmp_path / "bip.json"
    half = tmp_path / "half.json"
    run_cli(["build", "--name", "bipartite", "--out", str(bip)], capsys)
    run_cli(["build", "--name", "constant", "--c", "0.5", "--out", str(half)], capsys)
    code, _ = run_cli(["order", "check", "--u", str(half), "--w", str(bip)], capsys)
    assert code == 0
    code, _ = run_cli(["order", "check", "--u", str(bip), "--w", str(half)], capsys)
    assert code == 3


def test_order_check_accepts_a_benchmark_stepping(tmp_path, capsys):
    # its float flatness witness once missed Coupling's marginal tolerance,
    # and the command exited 1 with "column sums do not match"
    stepped, g = flatness_defect_pair(1, 7)
    io.save(stepped, tmp_path / "s.json")
    io.save(g, tmp_path / "g.json")
    code, out = run_cli(["order", "check", "--u", str(tmp_path / "s.json"),
                         "--w", str(tmp_path / "g.json"), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "consistent"


def test_flatness_keeps_the_diagonal_witness_at_extreme_masses(tmp_path, capsys):
    for mass in (1e100, 1e-100):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"atoms": [0.25, 0.75], "masses": [mass, mass]}))
        code, out = run_cli(["flatness", "--l1", str(path), "--l2", str(path), "--json"],
                            capsys)
        assert code == 0
        witness = json.loads(out)
        assert witness["feasible"] and witness["residual"] == 0.0
        assert witness["coupling"]["matrix"] == [[mass, 0.0], [0.0, mass]]


def test_order_envelope_and_chi(tmp_path, capsys):
    bip = tmp_path / "bip.json"
    out = tmp_path / "env.json"
    run_cli(["build", "--name", "bipartite", "--out", str(bip)], capsys)
    code, _ = run_cli(["order", "envelope", "--w", str(bip), "--n", "8",
                       "--count", "5", "--depth", "3", "--seed", "7",
                       "--out", str(out)], capsys)
    assert code == 0
    sample = io.load(out, EnvelopeSample)
    assert sample.resolution == 8
    code, text = run_cli(["order", "chi", "--u", str(bip), "--w", str(bip),
                          "--n", "8", "--count", "5", "--depth", "3",
                          "--json"], capsys)
    assert code == 0
    assert json.loads(text)["chi_estimate"] == 0.0


def test_multiway_commands(tmp_path, capsys):
    c0 = tmp_path / "c0.json"
    c1 = tmp_path / "c1.json"
    s0 = tmp_path / "s0.json"
    s1 = tmp_path / "s1.json"
    run_cli(["build", "--name", "constant", "--c", "0.0", "--out", str(c0)], capsys)
    run_cli(["build", "--name", "constant", "--c", "1.0", "--out", str(c1)], capsys)
    code, _ = run_cli(["multiway", "sample", "--w", str(c0), "--a", "0.5,0.5",
                       "--count", "3", "--seed", "1", "--out", str(s0)], capsys)
    assert code == 0
    run_cli(["multiway", "sample", "--w", str(c1), "--a", "0.5,0.5",
             "--count", "3", "--seed", "1", "--out", str(s1)], capsys)
    code, out = run_cli(["multiway", "hausdorff", "--su", str(s0),
                         "--sw", str(s1), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["hausdorff"] == 1.0


def test_reproduce_exit_codes(capsys):
    code, out = run_cli(["reproduce", "--which", "flatness", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_reproduce_tolerance_failure_exits_four(capsys, monkeypatch):
    import stepgraphon.cli as cli_mod
    monkeypatch.setattr(cli_mod, "reproduce",
                        lambda which, eps=None, seed=0: (False, {"scenario": which}))
    code, out = run_cli(["reproduce", "--which", "chessboard", "--json"], capsys)
    assert code == 4
    assert json.loads(out)["passed"] is False


def test_every_leaf_command_has_a_handler_and_json():
    def leaves(parser):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield parser
        for action in subs:
            for child in action.choices.values():
                yield from leaves(child)

    found = list(leaves(build_parser()))
    assert {"stepgraphon build", "stepgraphon order chi",
            "stepgraphon multiway hausdorff"} <= {leaf.prog for leaf in found}
    for leaf in found:
        assert callable(leaf.get_default("run")), leaf.prog
        assert leaf._option_string_actions["--json"].dest == "json", leaf.prog


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["density", "--w", str(tmp_path / "missing.json")]) == 1
    assert main(["build", "--name", "w1", "--eps", "0.3"]) == 1
    assert main(["nonsense"]) == 1


@pytest.mark.parametrize("option, args", [
    ("--count", ["order", "envelope", "--w", "{w}", "--n", "8", "--count", "-1"]),
    ("--depth", ["wstar", "--u", "{u}", "--w", "{w}", "--depth", "-1"]),
    ("--a", ["multiway", "sample", "--w", "{w}", "--a", "0.5,abc"]),
    ("--n", ["order", "envelope", "--w", "{w}", "--n", "0"]),
    ("--budget", ["cutdist", "--u", "{u}", "--w", "{w}", "--budget", "[1"]),
    ("--seed", ["cutnorm", "--y", "{y}", "--heuristic", "--seed", "-1"]),
    ("--seed", ["cutdist", "--u", "{u}", "--w", "{w}", "--seed", "-1"]),
    ("--seed", ["order", "envelope", "--w", "{w}", "--n", "8", "--seed", "-1"]),
    ("--seed", ["order", "chi", "--u", "{u}", "--w", "{w}", "--n", "8", "--seed", "-1"]),
    ("--seed", ["multiway", "sample", "--w", "{w}", "--a", "0.5,0.5", "--seed", "-1"]),
    ("--seed", ["reproduce", "--which", "flatness", "--seed", "-1"]),
], ids=["envelope-count", "wstar-depth", "multiway-masses", "envelope-n", "cutdist-budget",
        "cutnorm-seed", "cutdist-seed", "envelope-seed", "chi-seed", "multiway-seed",
        "reproduce-seed"])
def test_bad_values_exit_one_without_traceback(tmp_path, capsys, option, args):
    paths = {"u": tmp_path / "u.json", "w": tmp_path / "w.json", "y": tmp_path / "y.json"}
    run_cli(["build", "--name", "constant", "--c", "0.5", "--out", str(paths["u"])], capsys)
    run_cli(["build", "--name", "bipartite", "--out", str(paths["w"])], capsys)
    paths["y"].write_text(json.dumps({"weights": [0.5, 0.5], "signed": True,
                                      "values": [[-0.5, 0.5], [0.5, -0.5]]}))
    proc = run_module([arg.format(**{key: str(path) for key, path in paths.items()})
                       for arg in args])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage: ")
    lines = proc.stderr.splitlines()
    assert lines[-1].startswith(f"error: argument {option}: ")
    assert [line for line in lines if line.startswith("error:")] == [lines[-1]]


@pytest.mark.parametrize("budget", [
    '{"restarts":"x"}', '{"tol":"a"}', '{"max_iters":1.5}', '{"restarts":1e9}',
    '{"restart":4}', '{"restarts":true}', '{"max_iters":-1}', '{"tol":-1e-9}',
    '{"tol":1e999}', '{"tol":NaN}',
], ids=["restarts-string", "tol-string", "max-iters-float", "restarts-float",
        "unknown-key", "restarts-bool", "max-iters-negative", "tol-negative", "tol-infinite",
        "tol-nan"])
def test_bad_budgets_exit_one_without_traceback(tmp_path, capsys, budget):
    u, w = tmp_path / "u.json", tmp_path / "w.json"
    run_cli(["build", "--name", "constant", "--c", "0.5", "--out", str(u)], capsys)
    run_cli(["build", "--name", "bipartite", "--out", str(w)], capsys)
    proc = run_module(["cutdist", "--u", str(u), "--w", str(w), "--budget", budget])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: budget ")


@pytest.mark.parametrize("args, message", [
    (["order", "envelope", "--w", "{w}", "--n", "8", "--count", "4", "--depth", "12"],
     "error: an envelope at depth "),
    (["order", "chi", "--u", "{u}", "--w", "{w}", "--n", "8", "--count", "4", "--depth", "40"],
     "error: an envelope at depth "),
    (["order", "envelope", "--w", "{w}", "--n", "100000"], "error: an envelope on 100000 cells "),
    (["order", "chi", "--u", "{u}", "--w", "{w}", "--n", "100000"],
     "error: an envelope on 100000 cells "),
], ids=["envelope-depth-12", "chi-depth-40", "envelope-n-100000", "chi-n-100000"])
def test_oversized_envelopes_exit_one_without_traceback(tmp_path, capsys, args, message):
    paths = {"u": tmp_path / "u.json", "w": tmp_path / "w.json"}
    run_cli(["build", "--name", "constant", "--c", "0.5", "--out", str(paths["u"])], capsys)
    run_cli(["build", "--name", "bipartite", "--out", str(paths["w"])], capsys)
    proc = run_module([arg.format(**{key: str(path) for key, path in paths.items()})
                       for arg in args])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)


@pytest.mark.parametrize("args", [
    ["build", "--name", "w1", "--eps", "nan"],
    ["build", "--name", "w1", "--eps", "inf"],
    ["reproduce", "--which", "counterexample", "--eps", "nan"],
    ["reproduce", "--which", "counterexample", "--eps", "inf"],
    ["reproduce", "--which", "counterexample", "--eps", "0"],
    ["reproduce", "--which", "counterexample", "--eps", "1e-400"],
    ["build", "--name", "w1", "--eps", "0"],
    ["build", "--name", "w1", "--eps=-1"],
    ["reproduce", "--which", "counterexample", "--eps=-1"],
    ["build", "--name", "w1"],
], ids=["build-nan", "build-inf", "reproduce-nan", "reproduce-inf", "reproduce-zero",
        "reproduce-underflow", "build-zero", "build-negative", "reproduce-negative",
        "build-missing"])
def test_bad_eps_exits_one_without_traceback(args):
    proc = run_module(args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    # only a missing eps is "required"; an explicit bad one is told the valid form
    expected = "error: eps must be 2**-k" if "--eps" in " ".join(args) else "error: eps is required"
    assert len(lines) == 1 and lines[0].startswith(expected)


def test_out_into_missing_directory_exits_one_without_traceback(tmp_path):
    path = tmp_path / "nodir" / "x.json"
    proc = run_module(["build", "--name", "bipartite", "--out", str(path)])
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {path}: ")
    assert not path.parent.exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, content", [
    ("density", [1, 2]),
    ("flatness", {"atoms": ["a"], "masses": [1]}),
    ("density", {"weights": [1.0], "values": "x"}),
    ("flatness", {"atoms": [0.5], "masses": [INF]}),
    ("flatness --exact-rational", {"atoms": [0.5], "masses": [INF]}),
    ("flatness", {"atoms": [0.5], "masses": [NAN]}),
    ("multiway hausdorff", {"a": [1.0], "matrices": [[[NAN]]],
                            "provenance": [{"assignment": [[1.0]]}]}),
], ids=["top-level-list", "measure-atom-not-number", "values-not-matrix",
        "measure-mass-infinite", "measure-mass-infinite-exact", "measure-mass-nan",
        "cut-matrix-nan"])
def test_malformed_files_exit_one_without_traceback(tmp_path, command, content):
    path = str(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_text(json.dumps(content))
    words = command.split()
    args = {"density": ["--w", path],
            "flatness": ["--l1", path, "--l2", path],
            "multiway": ["--su", path, "--sw", path]}[words[0]]
    proc = run_module(words + args)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_determinism_byte_identical():
    args = ["reproduce", "--which", "multiway", "--seed", "3", "--json"]
    a = run_module(args)
    b = run_module(args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_envelope_sampling_seeded_determinism(tmp_path, capsys):
    bip = tmp_path / "bip.json"
    run_cli(["build", "--name", "bipartite", "--out", str(bip)], capsys)
    outs = []
    for _ in range(2):
        code, out = run_cli(["order", "envelope", "--w", str(bip), "--n", "8",
                             "--count", "4", "--depth", "2", "--seed", "9",
                             "--json"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_flatness_witness_roundtrip(tmp_path, capsys):
    from stepgraphon.core import Coupling
    l1 = tmp_path / "l1.json"
    l2 = tmp_path / "l2.json"
    out = tmp_path / "witness.json"
    l1.write_text(json.dumps({"atoms": [0.5], "masses": [1.0]}))
    l2.write_text(json.dumps({"atoms": [0.0, 1.0], "masses": [0.5, 0.5]}))
    code, _ = run_cli(["flatness", "--l1", str(l1), "--l2", str(l2),
                       "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["feasible"] is True
    coupling = Coupling.from_dict(payload["coupling"])
    assert coupling.matrix.tolist() == [[0.5, 0.5]]


def test_cut_set_without_provenance_exits_one_without_traceback(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"a": [0.5, 0.5], "matrices": [[[0.1, 0.1], [0.1, 0.1]]],
                                "provenance": []}))
    proc = run_module(["multiway", "hausdorff", "--su", str(path), "--sw", str(path)])
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("args", [
    ["density", "--w", "{s}"],
    ["intf", "--w", "{s}", "--f", "x2"],
    ["cutdist", "--u", "{s}", "--w", "{g}"],
    ["wstar", "--u", "{g}", "--w", "{s}", "--depth", "2"],
    ["order", "check", "--u", "{s}", "--w", "{g}"],
    ["order", "envelope", "--w", "{s}", "--n", "2", "--count", "2"],
    ["order", "chi", "--u", "{g}", "--w", "{s}", "--n", "2", "--count", "2"],
    ["multiway", "sample", "--w", "{s}", "--a", "0.5,0.5", "--count", "2"],
], ids=["density", "intf", "cutdist", "wstar", "order-check", "order-envelope", "order-chi",
        "multiway-sample"])
def test_graphon_commands_refuse_signed_kernels(tmp_path, capsys, args):
    # io.load reads the flagged file as a SignedStepKernel; these commands
    # need a graphon, and without the refusal cutdist, density and order
    # check answered for the wrong kernel class or raised a TypeError
    paths = {"s": tmp_path / "signed.json", "g": tmp_path / "g.json"}
    paths["s"].write_text(json.dumps({"weights": [0.5, 0.5], "signed": True,
                                      "values": [[-1, 1], [1, -1]]}))
    run_cli(["build", "--name", "constant", "--c", "1", "--out", str(paths["g"])], capsys)
    proc = run_module([arg.format(**{key: str(path) for key, path in paths.items()})
                       for arg in args])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert lines == [f"error: {paths['s']} holds a signed kernel, not a graphon"]


def test_bad_measure_file_names_the_bad_entry(tmp_path):
    path = tmp_path / "neg.json"
    path.write_text(json.dumps({"atoms": [0.25, 0.5], "masses": [1.0, -1.0]}))
    proc = run_module(["flatness", "--l1", str(path), "--l2", str(path)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert lines == ["error: value -1.0 at (1, 1) outside [0.0, inf]"]


IMPORT_GUARD = """
import sys

import stepgraphon.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded

import numpy as np
from stepgraphon import DiscreteMeasure, StepGraphon, check_flatter, cut_distance
from stepgraphon import measures, metrics
assert measures.linprog is metrics.linprog
solves = {}
for module in (metrics, measures):
    def counted(*args, _solve=module.linprog, _name=module.__name__, **kwargs):
        solves[_name] = solves.get(_name, 0) + 1
        return _solve(*args, **kwargs)
    module.linprog = counted
U = StepGraphon([0.3, 0.7], [[0.9, 0.1], [0.1, 0.6]])
W = StepGraphon([0.2, 0.3, 0.5], [[0.2, 0.8, 0.4], [0.8, 0.1, 0.3], [0.4, 0.3, 0.7]])
value, _ = cut_distance(U, W)
assert value > 0.0
witness = check_flatter(DiscreteMeasure([0.5], [1.0]), DiscreteMeasure([0.0, 1.0], [0.5, 0.5]))
assert witness.feasible and witness.coupling is not None
assert solves["stepgraphon.metrics"] > 0 and solves["stepgraphon.measures"] > 0, solves
assert "scipy.optimize" in sys.modules
print("ok")
"""


def test_cli_import_loads_no_scipy_until_an_lp_is_solved():
    proc = run_module([], module=("-c", IMPORT_GUARD))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
