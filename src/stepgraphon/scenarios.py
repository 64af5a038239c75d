"""Reproduction harness for the worked examples.

Each scenario returns (passed, report) where the report carries measured
values next to the predicted asymptotics; the CLI maps failures to exit
code 4 with a per-check diff.
"""

from __future__ import annotations

import numpy as np

from .core import (
    PartitionSpec,
    StepGraphon,
    grid_version,
    interlace_version,
    l1_distance,
    stepping,
)
from .measures import DiscreteMeasure, check_flatter
from .metrics import cut_distance, weak_star_distance
from .multiway import multiway_hausdorff, sample_multiway_set
from .named import (
    bipartite_graphon,
    sandwich_sup,
    u2_strip_integral,
    w2_raster_agreement,
)

SCENARIOS = ("chessboard", "counterexample", "flatness", "chains", "multiway")
HIERARCHY_DEPTH = 6  # hierarchical_graphon lives on the 2**6 = 64-cell grid
HIERARCHY_AMP = 0.35  # noise amplitude at the coarsest level
CHESSBOARD_DEPTH = 6  # weak* depth of the chessboard distances
CHESSBOARD_LEVELS = (1, 2, 4, 8, 16, 32, 64)  # interlacing levels, lowest first
CHAINS_BUDGET = {"restarts": 2, "max_iters": 4}  # cut_distance budget of the chains
CHAINS_L1_SLACK = 1e-12  # rounding allowed in the L1 chain and its final zero
INVARIANCE_TOL = 1e-9  # cut-set distance allowed between rearranged kernels


def hierarchical_graphon(rng):
    """Multiscale random kernel on the 2**HIERARCHY_DEPTH grid.

    A base level in [0.35, 0.65] gets independent symmetric noise per dyadic
    level, of amplitude HIERARCHY_AMP halving at each level, so every
    stepping depth removes a geometrically separated share of the structure.
    This makes the refining-chain distances decrease with real margins;
    i.i.d. cell noise does not (its blockwise means can sit farther from the
    kernel in L1 than a coarser constant does).
    """
    n = 2 ** HIERARCHY_DEPTH
    vals = np.full((n, n), rng.uniform(0.35, 0.65))
    for m in range(HIERARCHY_DEPTH + 1):
        b = 2 ** m
        noise = rng.uniform(-1.0, 1.0, (b, b)) * HIERARCHY_AMP * 0.5 ** m
        noise = (noise + noise.T) / 2
        vals += np.kron(noise, np.ones((n // b, n // b)))
    vals = np.clip(vals, 0.0, 1.0)
    vals = (vals + vals.T) / 2
    return StepGraphon(np.full(n, 1.0 / n), vals)


def chessboard_scenario(threshold=0.01):
    """The two-block kernel's interlacings at CHESSBOARD_LEVELS collapse to 1/2 in weak*."""
    bip = bipartite_graphon()
    half = StepGraphon([1.0], [[0.5]])
    rows = []
    values = []
    for n in CHESSBOARD_LEVELS:
        d = weak_star_distance(interlace_version(bip, n), half, CHESSBOARD_DEPTH)
        values.append(d)
        rows.append({"level": n, "weak_star_distance": d})
    decreasing = all(values[i + 1] < values[i] for i in range(len(values) - 1))
    final_ok = values[-1] < threshold
    report = {
        "scenario": "chessboard",
        "depth": CHESSBOARD_DEPTH,
        "rows": rows,
        "strictly_decreasing": decreasing,
        "final_below_threshold": final_ok,
        "threshold": threshold,
    }
    return decreasing and final_ok, report


def counterexample_scenario(eps_values=(2 ** -4, 2 ** -6, 2 ** -8)):
    """Strip integral of u2 versus the sandwich bound's column supremum.

    The u2 strip mass grows like (3/2) eps while any kernel sandwiched
    between the two swapped kernels can collect at most (5/4) eps + o(eps)
    on a mass-2*eps column set, so no kernel sits between the pairs.
    """
    rows = []
    ok = True
    prev_gap = None
    for eps in eps_values:
        strip = u2_strip_integral(eps)
        strip_ok = abs(strip - 1.5 * eps) <= 8 * eps * eps
        sup = sandwich_sup(eps)
        ratio = sup / eps
        sup_ok = (1.25 - 10 * eps) <= ratio <= (1.25 + 10 * eps)
        agreement = w2_raster_agreement(eps)
        raster_ok = agreement <= 4 * eps * eps
        gap = abs(strip / eps - 1.5)
        mono_ok = prev_gap is None or gap < prev_gap
        prev_gap = gap
        rows.append({
            "eps": eps,
            "u2_strip_integral": strip,
            "u2_strip_predicted": 1.5 * eps,
            "u2_strip_ok": strip_ok,
            "strip_ratio": strip / eps,
            "ratio_monotone": mono_ok,
            "sandwich_sup": sup,
            "sandwich_ratio": ratio,
            "sandwich_predicted": 1.25 * eps,
            "sandwich_ok": sup_ok,
            "raster_agreement": agreement,
            "raster_bound": 4 * eps * eps,
            "raster_ok": raster_ok,
        })
        ok = ok and strip_ok and sup_ok and raster_ok and mono_ok
    return ok, {"scenario": "counterexample", "rows": rows}


def flatness_scenario(residual_tol=1e-9):
    """The averaged point mass flattens the two-point measure, never back."""
    dirac = DiscreteMeasure([0.5], [1.0])
    ends = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
    forward = check_flatter(dirac, ends)
    backward = check_flatter(ends, dirac)
    exact_forward = check_flatter(dirac, ends, exact=True)
    exact_backward = check_flatter(ends, dirac, exact=True)
    ok = (forward.feasible and forward.residual < residual_tol
          and not backward.feasible and exact_forward.feasible
          and not exact_backward.feasible)
    report = {
        "scenario": "flatness",
        "forward_feasible": forward.feasible,
        "forward_residual": forward.residual,
        "forward_witness": forward.coupling.matrix.tolist() if forward.coupling is not None else None,
        "backward_feasible": backward.feasible,
        "backward_reason": backward.reason,
        "exact_forward_feasible": exact_forward.feasible,
        "exact_backward_feasible": exact_backward.feasible,
    }
    return ok, report


def chains_scenario(seed=0, trials=3, cut_slack=2e-6):
    """Refining-stepping chains: L1 errors vanish and CHAINS_BUDGET cut bounds shrink."""
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for trial in range(trials):
        W = hierarchical_graphon(rng)
        l1s, cds = [], []
        for d in range(7):
            Wn = stepping(W, PartitionSpec.dyadic(W.weights, d))
            l1s.append(l1_distance(Wn, W))
            val, _ = cut_distance(Wn, W, budget=CHAINS_BUDGET, seed=seed)
            cds.append(val)
        l1_ok = (all(l1s[i + 1] <= l1s[i] + CHAINS_L1_SLACK for i in range(6))
                 and l1s[-1] < CHAINS_L1_SLACK)
        cd_ok = all(cds[i + 1] <= cds[i] + cut_slack for i in range(6))
        rows.append({"trial": trial, "l1": l1s, "cut_distance": cds,
                     "l1_ok": l1_ok, "cut_ok": cd_ok})
        ok = ok and l1_ok and cd_ok
    return ok, {"scenario": "chains", "rows": rows}


def multiway_scenario(seed=0, trials=3):
    """Cut sets agree within INVARIANCE_TOL for rearranged kernels and separate the constants."""
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    a = [0.5, 0.5]
    for trial in range(trials):
        vals = rng.random((6, 6))
        vals = (vals + vals.T) / 2
        W = StepGraphon(np.full(6, 1 / 6), vals)
        G = grid_version(W, 6, rng.permutation(6))
        su = sample_multiway_set(W, a, count=0, seed=seed)
        sw = sample_multiway_set(G, a, count=0, seed=seed)
        d = multiway_hausdorff(su, sw)
        rows.append({"trial": trial, "hausdorff": d, "ok": d <= INVARIANCE_TOL})
        ok = ok and d <= INVARIANCE_TOL
    c0 = StepGraphon([1.0], [[0.0]])
    c1 = StepGraphon([1.0], [[1.0]])
    d01 = multiway_hausdorff(sample_multiway_set(c0, a, count=1, seed=seed),
                             sample_multiway_set(c1, a, count=1, seed=seed))
    const_ok = d01 == 1.0
    ok = ok and const_ok
    return ok, {"scenario": "multiway", "rows": rows,
                "constants_distance": d01, "constants_ok": const_ok}


def reproduce(which, eps=None, seed=0):
    """Dispatch a named scenario; returns (passed, report)."""
    if which == "chessboard":
        return chessboard_scenario()
    if which == "counterexample":
        eps_values = (eps,) if eps is not None else (2 ** -4, 2 ** -6, 2 ** -8)
        return counterexample_scenario(eps_values)
    if which == "flatness":
        return flatness_scenario()
    if which == "chains":
        return chains_scenario(seed=seed)
    if which == "multiway":
        return multiway_scenario(seed=seed)
    raise ValueError(f"unknown scenario {which!r}; expected one of {SCENARIOS}")
