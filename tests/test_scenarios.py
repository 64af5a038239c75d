import pytest

from stepgraphon import UnsupportedEps, scenarios
from stepgraphon.scenarios import (
    chains_scenario,
    chessboard_scenario,
    counterexample_scenario,
    flatness_scenario,
    multiway_scenario,
    reproduce,
)


def test_chessboard_scenario_passes():
    ok, report = chessboard_scenario()
    assert ok
    rows = report["rows"]
    assert rows[-1]["weak_star_distance"] < 0.01
    assert len(rows) == 7


def test_counterexample_scenario_passes():
    ok, report = counterexample_scenario()
    assert ok
    for row in report["rows"]:
        assert row["u2_strip_ok"] and row["sandwich_ok"] and row["raster_ok"]


def test_flatness_scenario_passes():
    ok, report = flatness_scenario()
    assert ok
    assert report["forward_feasible"] and not report["backward_feasible"]


def test_chains_scenario_passes(monkeypatch):
    monkeypatch.setattr(scenarios, "CHAINS_TRIALS", 2)
    ok, report = chains_scenario(seed=1)
    assert len(report["rows"]) == 2
    assert ok
    for row in report["rows"]:
        assert row["l1"][-1] < 1e-12


def test_multiway_scenario_passes(monkeypatch):
    monkeypatch.setattr(scenarios, "MULTIWAY_TRIALS", 2)
    ok, report = multiway_scenario(seed=2)
    assert len(report["rows"]) == 2
    assert ok
    assert report["constants_distance"] == 1.0


def test_reproduce_dispatch():
    ok, report = reproduce("flatness")
    assert ok and report["scenario"] == "flatness"
    with pytest.raises(ValueError):
        reproduce("nonsense")


def test_reproduce_counterexample_single_eps():
    ok, report = reproduce("counterexample", eps=2 ** -5)
    assert ok
    assert len(report["rows"]) == 1


@pytest.mark.parametrize("eps", [0.0, float("nan"), float("inf")])
def test_reproduce_counterexample_rejects_a_given_bad_eps(eps):
    # only a missing eps selects the three default values
    with pytest.raises(UnsupportedEps):
        reproduce("counterexample", eps=eps)


def test_scenario_tolerance_overrides(monkeypatch):
    monkeypatch.setattr(scenarios, "CHESSBOARD_THRESHOLD", 0.5)
    ok, report = chessboard_scenario()
    assert ok and report["threshold"] == 0.5
    # an impossible slack flips the chains verdict
    monkeypatch.setattr(scenarios, "CHAINS_CUT_SLACK", -1.0)
    ok, _ = chains_scenario(seed=1)
    assert not ok
    monkeypatch.setattr(scenarios, "FLATNESS_RESIDUAL_TOL", 1e-6)
    ok, _ = flatness_scenario()
    assert ok
