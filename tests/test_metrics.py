import inspect
import itertools
import math
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings, strategies as st

from stepgraphon import (
    Coupling,
    EmptySet,
    MarginalMismatch,
    PartitionSpec,
    SignedStepKernel,
    SolverFailure,
    StepGraphon,
    StepGraphonError,
    TooManyBlocksForExact,
    check_flatter,
    cut_distance,
    cut_norm,
    cut_norm_distance,
    grid_version,
    l1_distance,
    l1_hausdorff,
    interlace_version,
    overlap_coupling,
    stepping,
    weak_star_distance,
)
from stepgraphon import core, measures, metrics
from stepgraphon.core import common_refinement, corner_rule, dyadic_intervals
from stepgraphon.measures import DiscreteMeasure, _flatness_system
from stepgraphon.named import bipartite_graphon
from stepgraphon.scenarios import hierarchical_graphon

from conftest import (corner_rule_reference, dyadic_measure, exact_cut_norm_reference,
                      heuristic_reference, l1_reference, perm_sweep_reference,
                      perm_value_reference, random_graphon, random_kernel, spread_measure)

HALF = StepGraphon([1.0], [[0.5]])
SRC = str(Path(__file__).resolve().parent.parent / "src")


def northwest(row, col):
    """The corner-rule vertex visiting rows and columns in index order."""
    return corner_rule(row, col, [np.arange(len(row))], [np.arange(len(col))])[0]


def brute_force_cut_norm(kernel):
    """Independent oracle: enumerate every 0/1 box on both sides."""
    keep = kernel.weights > 0
    a = kernel.weights[keep]
    v = kernel.values[np.ix_(keep, keep)]
    k = len(a)
    best = 0.0
    for s_bits in itertools.product((0, 1), repeat=k):
        for t_bits in itertools.product((0, 1), repeat=k):
            s = np.array(s_bits, dtype=float)
            t = np.array(t_bits, dtype=float)
            best = max(best, abs((a * s) @ v @ (a * t)))
    return best


# ------------------------------------------------------------------- coupling

def test_coupling_validation():
    Coupling([[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(MarginalMismatch):
        Coupling([[0.5, 0.0], [0.0, 0.5]], [0.4, 0.6], [0.5, 0.5])
    with pytest.raises(MarginalMismatch):
        Coupling([[-0.1, 0.6], [0.5, 0.0]], [0.5, 0.5], [0.4, 0.6])
    with pytest.raises(MarginalMismatch):
        Coupling([[float("nan")]], [1.0], [1.0])


def test_northwest_aligns_interval_partitions():
    row, col = [0.25, 0.75], [0.5, 0.5]
    c = Coupling(northwest(row, col), row, col)
    assert np.allclose(c.matrix, [[0.25, 0.0], [0.25, 0.5]])


# ------------------------------------------------------------------- cut norm

def test_cut_norm_zero_kernel():
    z = SignedStepKernel([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]])
    assert cut_norm(z, mode="exact").value == 0.0


def test_cut_norm_two_block_difference():
    # all sixteen 0/1 boxes peak at |1/2 * 1/2 * 1/2| = 0.125
    y = SignedStepKernel([0.5, 0.5], [[-0.5, 0.5], [0.5, -0.5]])
    assert brute_force_cut_norm(y) == 0.125
    res = cut_norm(y, mode="exact")
    assert res.value == 0.125
    a = y.weights
    achieved = abs((a * res.witness_s) @ y.values @ (a * res.witness_t))
    assert abs(achieved - res.value) <= 1e-12


def test_cut_norm_witness_invariant(rng):
    for _ in range(20):
        kernel = random_kernel(rng)
        res = cut_norm(kernel, mode="exact")
        a = kernel.weights
        achieved = abs((a * res.witness_s) @ kernel.values @ (a * res.witness_t))
        assert abs(achieved - res.value) <= 1e-12
        assert res.value == pytest.approx(brute_force_cut_norm(kernel), abs=1e-12)


def test_cut_norm_heuristic_never_exceeds_exact(rng):
    hits = 0
    trials = 1000
    for trial in range(trials):
        kernel = random_kernel(rng, k=6)
        exact = cut_norm(kernel, mode="exact").value
        heur = cut_norm(kernel, mode="heuristic", seed=trial).value
        assert heur <= exact + 1e-12
        hits += abs(heur - exact) <= 1e-9
    assert hits >= 0.95 * trials


def test_cut_norm_exact_cap():
    k = 25
    w = np.full(k, 1.0 / k)
    with pytest.raises(TooManyBlocksForExact):
        cut_norm(SignedStepKernel(w, np.zeros((k, k))), mode="exact")


def test_cut_norm_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown cut-norm mode 'fast'"):
        cut_norm(SignedStepKernel([1.0], [[0.5]]), mode="fast")


def test_cut_norm_rearrangement_invariance(rng):
    for _ in range(10):
        v = rng.uniform(-1, 1, (4, 4))
        kernel = SignedStepKernel(np.full(4, 0.25), (v + v.T) / 2)
        refined = grid_version(kernel, 8)
        perm = rng.permutation(8)
        shuffled = grid_version(refined, 8, perm)
        v1 = cut_norm(refined, mode="exact").value
        v2 = cut_norm(shuffled, mode="exact").value
        assert abs(v1 - v2) <= 1e-10


def test_cut_norm_drops_zero_weight_blocks():
    y = SignedStepKernel([0.5, 0.0, 0.5], [[-0.5, 1, 0.5], [1, 1, 1], [0.5, 1, -0.5]])
    assert cut_norm(y, mode="exact").value == 0.125


def reference_cut_norm(kernel):
    """Plain enumeration: every 0/1 row s, greedy t, both signs."""
    a = kernel.weights
    ay = np.outer(a, a) * kernel.values
    k = len(a)
    best = 0.0
    for base in range(0, 1 << k, 1 << 14):
        idx = np.arange(base, min(base + (1 << 14), 1 << k))
        s = ((idx[:, None] >> np.arange(k)) & 1).astype(float)
        cols = s @ ay
        best = max(best, np.maximum(cols, 0.0).sum(axis=1).max(),
                   np.maximum(-cols, 0.0).sum(axis=1).max())
    return float(best)


def assert_exact_matches_reference(kernel):
    res = cut_norm(kernel, mode="exact")
    assert abs(res.value - reference_cut_norm(kernel)) <= 1e-12
    a = kernel.weights
    achieved = abs((a * res.witness_s) @ kernel.values @ (a * res.witness_t))
    assert abs(achieved - res.value) <= 1e-12
    return res


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 13, 16, 19])
def test_cut_norm_exact_matches_reference_enumeration(k):
    # up to 12 blocks every pattern fits one block of the enumeration, from 13 on
    # it loops over several; k = 1 has an empty high half
    rng = np.random.default_rng(k)
    assert_exact_matches_reference(random_kernel(rng, k=k))


def test_cut_norm_exact_negative_branch():
    # an all-negative kernel peaks on the last pattern, s = t = every block
    rng = np.random.default_rng(3)
    for k in (5, 15, 24):
        v = -rng.uniform(0.1, 1.0, (k, k))
        kernel = SignedStepKernel(rng.dirichlet(np.ones(k)), (v + v.T) / 2)
        res = cut_norm(kernel, mode="exact")
        a = kernel.weights
        assert res.value == pytest.approx(-(a @ kernel.values @ a), rel=1e-12)
        assert res.witness_s.tolist() == [1] * k
        assert res.witness_t.tolist() == [1] * k


def test_cut_norm_exact_zero_weight_blocks():
    rng = np.random.default_rng(4)
    for k in (6, 16):
        w = rng.dirichlet(np.ones(k))
        w[::3] = 0.0
        v = rng.uniform(-1, 1, (k, k))
        kernel = SignedStepKernel(w / w.sum(), (v + v.T) / 2)
        res = assert_exact_matches_reference(kernel)
        assert not res.witness_s[::3].any() and not res.witness_t[::3].any()


def test_cut_norm_exact_rank_one_at_cap():
    # values x x^T give s @ ay @ t = (s.u)(t.u) with u = a x, so the cut norm is
    # max(positive mass of u, negative mass of u)^2
    rng = np.random.default_rng(5)
    k = 24
    a = rng.dirichlet(np.ones(k))
    x = rng.uniform(-1, 1, k)
    res = cut_norm(SignedStepKernel(a, np.outer(x, x)), mode="exact")
    u = a * x
    expected = max(u[u > 0].sum(), -u[u < 0].sum()) ** 2
    assert res.value == pytest.approx(expected, rel=1e-12)
    achieved = abs((u * res.witness_s).sum() * (u * res.witness_t).sum())
    assert achieved == pytest.approx(res.value, rel=1e-12)


@st.composite
def small_kernels(draw):
    k = draw(st.integers(1, 6))
    w = np.array(draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)), dtype=float)
    w[draw(st.integers(0, k - 1))] += 1.0
    values = st.floats(-1.0, 1.0, allow_nan=False)
    v = np.array(draw(st.lists(values, min_size=k * k, max_size=k * k))).reshape(k, k)
    return SignedStepKernel(w / w.sum(), (v + v.T) / 2)


@given(small_kernels())
def test_cut_norm_exact_equals_brute_force(kernel):
    assert cut_norm(kernel, mode="exact").value == pytest.approx(
        brute_force_cut_norm(kernel), abs=1e-12)


def screened_kernel(family, k, rng):
    """A signed kernel of one of the families the bound screen must not misjudge."""
    a = rng.dirichlet(np.ones(k))
    v = rng.uniform(-1, 1, (k, k))
    if family == "mirror":
        # the direct sum of X and -X on mirrored masses, and one empty cell
        # when k is odd: the largest pos and the largest neg tie exactly
        m = k // 2
        a[m:2 * m] = a[:m]
        x = v[:m, :m]
        v = np.zeros((k, k))
        v[:m, :m], v[m:2 * m, m:2 * m] = x, -x
    elif family == "subnormal":
        # masses down to 1e-170: their products underflow float64
        a = 10.0 ** rng.permutation(np.linspace(-170.0, 0.0, k))
    elif family == "ties":
        a = np.full(k, 1.0 / k)
        v = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], (k, k))
    elif family == "duplicate":
        a[1] = a[0]
        v[1], v[:, 1] = v[0], v[:, 0]
        v[1, 1] = v[0, 0]
    elif family == "zero":
        v = np.zeros((k, k))
    elif family == "tiny-masses":
        # masses down to 1e-30: their products underflow float32
        a = 10.0 ** rng.permutation(np.linspace(-30.0, 0.0, k))
    elif family == "dominant":
        v *= 1e-3
        i = rng.integers(k)
        v[i, i] = 1.0
    return SignedStepKernel(a / a.sum(), np.triu(v) + np.triu(v, 1).T)


def assert_scan_matches_reference(kernel):
    a = kernel.weights
    ay = (a[:, None] * a[None, :]) * kernel.values
    s, t = exact_cut_norm_reference(ay)
    res = cut_norm(kernel, mode="exact")
    assert res.value == float(abs(s @ ay @ t))
    assert res.witness_s.tolist() == s.astype(int).tolist()
    assert res.witness_t.tolist() == t.astype(int).tolist()


SCREENED_FAMILIES = ["random", "ties", "duplicate", "zero", "tiny-masses", "dominant",
                     "mirror", "subnormal"]


@pytest.mark.parametrize("family", SCREENED_FAMILIES)
@pytest.mark.parametrize("k", range(2, 25))
def test_screened_scan_is_bit_identical_to_float64_scan(k, family):
    # from k = 15 a branch and bound screens the blocks; value and witness must
    # be those of the all-float64 scan, ties and underflow included; below it
    # the scan visits every block, from k = 13 more than one
    rng = np.random.default_rng((k, SCREENED_FAMILIES.index(family)))
    assert_scan_matches_reference(screened_kernel(family, k, rng))


@st.composite
def small_integer_kernels(draw):
    k = draw(st.sampled_from([15, 16]))
    w = np.array(draw(st.lists(st.integers(1, 3), min_size=k, max_size=k)), dtype=float)
    v = np.array(draw(st.lists(st.integers(-2, 2), min_size=k * k, max_size=k * k)))
    v = v.reshape(k, k) / 2.0
    return SignedStepKernel(w / w.sum(), np.triu(v) + np.triu(v, 1).T)


@settings(max_examples=40)
@given(small_integer_kernels())
def test_screened_scan_matches_float64_scan_on_integer_kernels(kernel):
    assert_scan_matches_reference(kernel)


def test_exact_witness_takes_pos_before_neg_within_a_block():
    # this kernel is one block, and its pos and neg maxima are exactly equal;
    # neg reaches the value first, at pattern 11, but the scan tries pos's
    # first maximum, pattern 14, before neg's, and a tie does not replace it
    rng = np.random.default_rng((5, SCREENED_FAMILIES.index("mirror")))
    kernel = screened_kernel("mirror", 5, rng)
    ay = np.outer(kernel.weights, kernel.weights) * kernel.values
    [(_, pos, neg)] = metrics._pattern_blocks(ay, 4, [0])
    assert pos.max() == neg.max()
    assert (int(pos.argmax()), int(neg.argmax())) == (14, 11)
    res = cut_norm(kernel, mode="exact")
    assert res.witness_s.tolist() == [0, 1, 1, 1, 0]


def scan_counts(monkeypatch, kernel):
    """The block numbers the exact cut norm hands its scan, and the nodes its
    screen bounds.

    The scan must yield one block for each number.  The node count sums the
    columns of every _completion_bound call; None when no screen runs.
    """
    counts = {"blocks": None, "nodes": None}
    scan, bound = metrics._pattern_blocks, metrics._completion_bound

    def counting_scan(ay, per_block, blocks):
        assert ay.dtype == np.float64
        counts["blocks"] = list(blocks)
        yielded = 0
        for block in scan(ay, per_block, blocks):
            yielded += 1
            yield block
        assert yielded == len(counts["blocks"])

    def counting_bound(cols, *args):
        counts["nodes"] = (counts["nodes"] or 0) + cols.shape[1]
        return bound(cols, *args)

    monkeypatch.setattr(metrics, "_pattern_blocks", counting_scan)
    monkeypatch.setattr(metrics, "_completion_bound", counting_bound)
    cut_norm(kernel, mode="exact")
    return counts["blocks"], counts["nodes"]


def test_screen_leaves_few_blocks_to_rescan(monkeypatch):
    # k = 19 spans 171 blocks; a screen that keeps them all would still be exact,
    # so only these counts show it saves work: the tree has 2^20 - 1 nodes
    blocks, nodes = scan_counts(monkeypatch, random_kernel(np.random.default_rng(19), 19))
    assert 1 <= len(blocks) <= 4
    assert nodes < 0.05 * 2 ** 20


def test_screen_hands_the_scan_only_the_blocks_it_keeps(monkeypatch):
    # at k = 24 each hi is its own block; the scan gets the kept block
    # numbers, ascending, and never walks the other 4,000 or so
    blocks, _ = scan_counts(monkeypatch, random_kernel(np.random.default_rng(24), 24))
    assert 1 <= len(blocks) <= 4
    assert blocks == sorted(set(blocks)) and blocks[-1] < 4096


def test_screen_starts_at_eight_blocks(monkeypatch):
    # k = 14 spans 4 blocks and scans them all, with no screen; k = 15 spans 8
    assert scan_counts(monkeypatch, random_kernel(np.random.default_rng(14), 14)) == (
        [0, 1, 2, 3], None)
    blocks, nodes = scan_counts(monkeypatch, random_kernel(np.random.default_rng(15), 15))
    assert 1 <= len(blocks) <= 4 and nodes > 0


def test_zero_kernel_skips_the_scan(monkeypatch):
    # every pattern of a zero kernel ties at 0, so no bound prunes one; the full
    # scan's winner is pattern 0, and the exact cut norm returns it at once
    def no_scan(*args):
        raise AssertionError("the zero kernel entered the scan")

    monkeypatch.setattr(metrics, "_pattern_blocks", no_scan)
    res = cut_norm(SignedStepKernel(np.full(24, 1 / 24), np.zeros((24, 24))), mode="exact")
    assert res.value == 0.0
    assert res.witness_s.tolist() == res.witness_t.tolist() == [0] * 24


def test_exact_cut_norm_does_not_depend_on_the_seed():
    # the screen starts from the heuristic's pattern at seed 0; only the scan
    # picks the value and the witness
    kernel = random_kernel(np.random.default_rng(19), 19)
    a, b = cut_norm(kernel, mode="exact", seed=0), cut_norm(kernel, mode="exact", seed=7)
    assert a.to_dict() == b.to_dict()


def test_screen_memory_stays_small_on_ties():
    # the screen walks its tree depth first in bounded batches; breadth first,
    # one depth of this kernel's tree holds 194,184 nodes, about 39 MB
    rng = np.random.default_rng((24, SCREENED_FAMILIES.index("ties")))
    kernel = screened_kernel("ties", 24, rng)
    tracemalloc.start()
    try:
        cut_norm(kernel, mode="exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


# ------------------------------------------------------------ permutation sweep

def equal_cells(values):
    k = len(values)
    return StepGraphon(np.full(k, 1.0 / k), np.triu(values) + np.triu(values, 1).T)


def sweep_pair(family, k):
    rng = np.random.default_rng((k, ["random", "rearranged", "ties", "duplicate"].index(family)))
    if family == "ties":
        return tuple(equal_cells(rng.integers(0, 3, (k, k)) / 2.0) for _ in range(2))
    if family == "duplicate":
        # cell k - 1 repeats cell 0, so two cells are interchangeable
        m = max(1, k - 1)
        idx = np.append(np.arange(m), 0)[:k]
        bases = (rng.random((m, m)) for _ in range(2))
        return tuple(equal_cells((b + b.T)[np.ix_(idx, idx)] / 2.0) for b in bases)
    u = equal_cells(rng.random((k, k)))
    if family == "rearranged":
        return u, grid_version(u, k, rng.permutation(k))
    return u, equal_cells(rng.random((k, k)))


@pytest.mark.parametrize("family", ["random", "rearranged", "ties", "duplicate"])
@pytest.mark.parametrize("k", range(1, 9))
def test_sweep_matches_reference_sweep(family, k):
    u, w = sweep_pair(family, k)
    val, perm = metrics._perm_sweep(u.values, w.values)
    ref_val, ref_perm = perm_sweep_reference(u, w)
    assert abs(val - ref_val) <= 1e-15
    assert abs(perm_value_reference(u, w, perm) - val) <= 1e-15
    if family == "rearranged":
        assert val == 0.0
        assert perm.tolist() == ref_perm.tolist()


@pytest.mark.parametrize("k", range(2, 9))
def test_sweep_returns_the_first_zero_in_permutation_order(k):
    # cell k - 1 repeats cell 0, so at least two permutations map w back onto u
    u, _ = sweep_pair("duplicate", k)
    w = grid_version(u, k, np.random.default_rng(k).permutation(k))
    first = next(p for p in itertools.permutations(range(k))
                 if (w.values[np.ix_(p, p)] == u.values).all())
    val, perm = metrics._perm_sweep(u.values, w.values)
    assert val == 0.0 and tuple(perm.tolist()) == first


@st.composite
def equal_mass_pairs(draw):
    k = draw(st.integers(1, 5))
    values = st.lists(st.floats(0.0, 1.0), min_size=k * k, max_size=k * k)
    return tuple(equal_cells(np.reshape(draw(values), (k, k))) for _ in range(2))


@settings(max_examples=40)
@given(equal_mass_pairs())
def test_sweep_is_the_least_exact_cut_norm_over_permutations(pair):
    u, w = pair
    best = min(cut_norm(SignedStepKernel(u.weights, u.values - w.values[np.ix_(p, p)]),
                        mode="exact").value
               for p in map(list, itertools.permutations(range(u.k))))
    assert abs(metrics._perm_sweep(u.values, w.values)[0] - best) <= 1e-15


def test_sweep_builds_no_array_over_every_permutation():
    # a sweep that gathers all 8! difference kernels at once peaks at 139 MB
    u, w = sweep_pair("random", 8)
    tracemalloc.start()
    try:
        metrics._perm_sweep(u.values, w.values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2 ** 20


def test_sweep_and_exact_scan_share_the_pattern_blocks(monkeypatch):
    # the sweep scans each chunk of permutations in one call and one block;
    # a 14-cell cut norm is one call of 4 float64 blocks, with no screen
    calls = []
    scan = metrics._pattern_blocks

    def counting(ay, *args):
        calls.append([ay.dtype.type, ay.shape[:-2], 0])
        for block in scan(ay, *args):
            calls[-1][2] += 1
            yield block

    monkeypatch.setattr(metrics, "_pattern_blocks", counting)
    u, w = sweep_pair("random", 7)
    metrics._perm_sweep(u.values, w.values)
    chunks = [batch[0] for _, batch, _ in calls]
    assert sum(chunks) == math.factorial(7)
    assert len(calls) == math.ceil(math.factorial(7) / chunks[0]) > 1
    assert all(blocks == 1 for _, _, blocks in calls)
    calls.clear()
    cut_norm(random_kernel(np.random.default_rng(14), 14), mode="exact")
    assert calls == [[np.float64, (), 4]]


# --------------------------------------------------------------- cut norm dist

def test_cut_norm_distance_basic():
    g = random_graphon(np.random.default_rng(7))
    assert cut_norm_distance(g, g, Coupling.diagonal(g.weights)) == 0.0
    zero = StepGraphon([1.0], [[0.0]])
    one = StepGraphon([1.0], [[1.0]])
    assert cut_norm_distance(zero, one, Coupling.diagonal([1.0])) == 1.0
    bip = bipartite_graphon()
    c = Coupling(np.full((2, 1), 0.5), bip.weights, HALF.weights)
    assert cut_norm_distance(bip, HALF, c) == 0.125


def test_metric_ordering_chain(rng):
    # weak* <= cut norm <= L1 on a shared ground space
    for _ in range(20):
        u = random_graphon(rng)
        w = random_graphon(rng)
        dcut = cut_norm_distance(u, w, overlap_coupling(u, w))
        dl1 = l1_distance(u, w)
        dws = weak_star_distance(u, w, 4)
        assert dws <= dcut + 1e-10
        assert dcut <= dl1 + 1e-10


@st.composite
def graphon_pairs(draw, max_k=12, min_count=1):
    """Two graphons whose block masses are counts over their totals.

    Counts start at min_count, so min_count=0 gives zero-weight blocks.
    """
    def graphon(k):
        counts = st.lists(st.integers(min_count, 6), min_size=k, max_size=k).filter(any)
        w = np.array(draw(counts), dtype=float)
        values = st.floats(0.0, 1.0, allow_nan=False)
        v = np.array(draw(st.lists(values, min_size=k * k, max_size=k * k))).reshape(k, k)
        return StepGraphon(w / w.sum(), np.triu(v) + np.triu(v, 1).T)
    return graphon(draw(st.integers(1, max_k))), graphon(draw(st.integers(1, max_k)))


def equal_mass_graphon(k, seed):
    v = np.random.default_rng(seed).random((k, k))
    return StepGraphon(np.full(k, 1.0 / k), np.triu(v) + np.triu(v, 1).T)


@settings(max_examples=30)
@given(graphon_pairs())
# equal masses 1/8 and 1/9, and 1/12 and 1/13, share only the breakpoints 0 and
# 1, so their refinements have 16 and 24 cells and take the screened scan
@example((equal_mass_graphon(8, 0), equal_mass_graphon(9, 1)))
@example((equal_mass_graphon(12, 2), equal_mass_graphon(13, 3)))
def test_aligned_cut_norm_at_most_l1(pair):
    U, W = pair
    assert cut_norm_distance(U, W, overlap_coupling(U, W)) <= l1_distance(U, W) + 1e-12


@settings(max_examples=60)
@given(graphon_pairs(min_count=0))
@example((equal_mass_graphon(8, 0), equal_mass_graphon(9, 1)))
@example((StepGraphon([0.0, 0.3, 0.0, 0.7], np.full((4, 4), 0.25)),
          StepGraphon([0.5, 0.0, 0.5], [[0.0, 1.0, 1.0], [1.0, 0.5, 1.0], [1.0, 1.0, 0.0]])))
@example((SignedStepKernel([0.25, 0.75], [[-0.5, 1.0], [1.0, 0.0]]),
          SignedStepKernel([0.5, 0.5], [[0.0, -1.0], [-1.0, 0.5]])))
def test_l1_distance_matches_merged_breakpoint_reference(pair):
    # the overlay of the overlap coupling against midpoint lookups on the
    # merged breakpoints, with unaligned breakpoints and zero-weight blocks
    U, W = pair
    assert math.isclose(l1_distance(U, W), l1_reference(U, W), rel_tol=1e-14, abs_tol=1e-16)


# ----------------------------------------------------------------- cut distance

def test_cut_distance_version_is_zero(rng):
    g = random_graphon(rng, k=3, equal_mass=True)
    v = grid_version(g, 6, rng.permutation(6))
    val, coupling = cut_distance(g, v, budget={"restarts": 2, "max_iters": 5})
    assert val <= 1e-9
    coupling.require_marginals(g.weights, v.weights)


def test_cut_distance_constants():
    p = StepGraphon([1.0], [[0.2]])
    q = StepGraphon([1.0], [[0.7]])
    val, _ = cut_distance(p, q, budget={"restarts": 1, "max_iters": 2})
    assert val == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("budget, kind", [
    ([("restarts", 1)], "list"), ("x", "str"), (3, "int"), ((), "tuple")])
def test_cut_distance_refuses_a_budget_that_is_not_a_mapping(budget, kind):
    p = StepGraphon([1.0], [[0.2]])
    with pytest.raises(StepGraphonError, match=f"^budget must be a mapping, got {kind}$"):
        cut_distance(p, p, budget=budget)
    for default in (None, {}):
        val, coupling = cut_distance(p, p, budget=default)
        assert val == 0.0 and coupling.matrix.tolist() == [[1.0]]


def test_cut_distance_bipartite_vs_half_is_an_eighth():
    # every rearrangement of the two-block kernel keeps a box of value
    # (1/2)(a_S - b_S)(a_T - b_T), so the distance is exactly 1/8 at every
    # resolution: the pair converges in weak* but never in cut norm
    bip = bipartite_graphon()
    vals = []
    for n in (2, 4, 8):
        val, _ = cut_distance(grid_version(bip, n), grid_version(HALF, n),
                              budget={"restarts": 2, "max_iters": 4}, seed=1)
        vals.append(val)
    for val in vals:
        assert val == pytest.approx(0.125, abs=1e-9)
    assert weak_star_distance(interlace_version(bip, 4), HALF, 6) < vals[2]


def test_one_cell_side_skips_the_sweep(monkeypatch):
    # one cell leaves the product as the only coupling, and it is a start
    sweeps = _count_calls(monkeypatch, "_perm_sweep")
    bip = bipartite_graphon()
    for n in range(1, 9):
        for pair in ((interlace_version(bip, n), HALF), (HALF, interlace_version(bip, n))):
            assert cut_distance(*pair)[0] == pytest.approx(0.125, abs=1e-15)
    assert sweeps == []


def test_sweep_is_exact_over_permutations_only():
    # the sweep gives the permutation distance, an upper bound on the cut
    # distance: here the search finds a fractional coupling below it
    U, W = equal_mass_graphon(3, 30), equal_mass_graphon(3, 31)
    val, coupling = cut_distance(U, W)
    sweep, _ = metrics._perm_sweep(U.values, W.values)
    assert val < sweep - 0.01
    assert cut_norm_distance(U, W, coupling, mode="exact") == val
    assert np.count_nonzero(coupling.matrix) > 3


def test_cut_distance_symmetry(rng):
    u = random_graphon(rng, k=3)
    w = random_graphon(rng, k=4)
    budget = {"restarts": 2, "max_iters": 5}
    d1, c1 = cut_distance(u, w, budget=budget, seed=3)
    d2, c2 = cut_distance(w, u, budget=budget, seed=3)
    assert abs(d1 - d2) <= 1e-9
    assert np.allclose(c1.matrix, c2.matrix.T, atol=1e-12)


@settings(max_examples=30)
@given(graphon_pairs(max_k=4), st.integers(0, 100))
def test_cut_distance_is_symmetric_with_transposed_couplings(pair, seed):
    u, w = pair
    budget = {"restarts": 1, "max_iters": 3}
    d1, c1 = cut_distance(u, w, budget=budget, seed=seed)
    d2, c2 = cut_distance(w, u, budget=budget, seed=seed)
    assert d1 == d2
    assert np.array_equal(c1.matrix, c2.matrix.T)
    c1.require_marginals(u.weights, w.weights)


def test_cut_distance_upper_bound_contract(rng):
    # never above the value of any deterministic coupling the optimizer sees
    for _ in range(5):
        u = random_graphon(rng, k=4, equal_mass=True)
        w = random_graphon(rng, k=4, equal_mass=True)
        val, _ = cut_distance(u, w, budget={"restarts": 2, "max_iters": 5})
        for c in (Coupling.diagonal(u.weights),
                  Coupling.product(u.weights, w.weights),
                  Coupling(northwest(u.weights, w.weights), u.weights, w.weights)):
            assert val <= cut_norm_distance(u, w, c) + 1e-12


def test_cut_distance_triangle_inequality(rng):
    # equal-mass four-block triples are covered by the exact permutation
    # sweep, for which the triangle inequality holds up to float noise
    for _ in range(5):
        u = random_graphon(rng, k=4, equal_mass=True)
        v = random_graphon(rng, k=4, equal_mass=True)
        w = random_graphon(rng, k=4, equal_mass=True)
        budget = {"restarts": 1, "max_iters": 3}
        duw, _ = cut_distance(u, w, budget=budget)
        duv, _ = cut_distance(u, v, budget=budget)
        dvw, _ = cut_distance(v, w, budget=budget)
        assert duw <= duv + dvw + 2e-6


def _count_calls(monkeypatch, name, body=None):
    """Replace metrics.<name> by a wrapper that records its arguments."""
    calls = []
    body = body or getattr(metrics, name)

    def counted(*args):
        calls.append(args)
        return body(*args)

    monkeypatch.setattr(metrics, name, counted)
    return calls


def test_local_search_memo_replays_without_recomputing(monkeypatch, rng):
    u = random_graphon(rng, k=4)
    w = random_graphon(rng, k=5)
    evals = _count_calls(monkeypatch, "_exact_cut_norm")  # one per exact evaluation
    lps = _count_calls(monkeypatch, "_min_cost_transport")
    c0 = northwest(u.weights, w.weights)
    memo = {}
    val, cmat = metrics._local_search(u, w, c0, 20, 0, memo)
    n_evals, n_lps = len(evals), len(lps)
    assert n_evals > 1 and n_lps > 0
    again = metrics._local_search(u, w, c0, 20, 0, memo)
    assert (len(evals), len(lps)) == (n_evals, n_lps)
    assert again[0] == val and np.array_equal(again[1], cmat)
    fresh = metrics._local_search(u, w, c0, 20, 0, {})
    assert (len(evals), len(lps)) == (2 * n_evals, 2 * n_lps)
    assert fresh[0] == val and np.array_equal(fresh[1], cmat)


def test_failing_transport_is_solved_once_per_gradient(monkeypatch, rng):
    def failing(cost, row, col):
        raise SolverFailure("transport LP failed with status 4")

    lps = _count_calls(monkeypatch, "_min_cost_transport", failing)
    u = random_graphon(rng, k=3)
    w = random_graphon(rng, k=2)
    # a failed LP ends the search at its start, on a memo hit as well
    c0 = northwest(u.weights, w.weights)
    memo = {}
    for _ in range(2):
        val, cmat = metrics._local_search(u, w, c0, 20, 0, memo)
        assert cmat is c0
        assert val == cut_norm_distance(u, w, Coupling(c0, u.weights, w.weights))
    assert len(lps) == 1
    # 35 starts among 3! * 2! corner-rule orders repeat their gradients
    lps.clear()
    cut_distance(u, w)
    gradients = [cost.tobytes() for cost, _, _ in lps]
    assert len(set(gradients)) == len(gradients) < 35


def test_local_search_skips_steps_past_the_support_cap(monkeypatch):
    rng = np.random.default_rng(2)
    u = random_graphon(rng, k=5)
    w = random_graphon(rng, k=6)
    c0 = northwest(u.weights, w.weights)
    assert np.count_nonzero(c0) == 10
    cells = []
    body = metrics._search_eval

    def recorded(U, W, cmat, seed, memo):
        cells.append(np.count_nonzero(cmat > 0))
        return body(U, W, cmat, seed, memo)

    monkeypatch.setattr(metrics, "_search_eval", recorded)
    metrics._local_search(u, w, c0, 200, 0, {})
    assert max(cells) > 12  # without the cap the search steps past 12 cells
    cells.clear()
    monkeypatch.setattr(metrics, "SUPPORT_CAP", 12)
    val, cmat = metrics._local_search(u, w, c0, 200, 0, {})
    assert len(cells) > 1 and max(cells[1:]) <= 12
    coupling = Coupling(cmat, u.weights, w.weights)
    assert val == cut_norm_distance(u, w, coupling, mode="exact")


@st.composite
def cell_permuted_pairs(draw, max_k=16, equal_mass=True):
    """(U, W) with W = U on permuted cells; unequal masses are dyadic.

    Equal-mass copies come from grid_version.  Dyadic masses are counts
    over a power of two whose last cell takes the rest, so they and every
    sum of them are exact in floats.
    """
    k = draw(st.integers(1, max_k))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if equal_mass:
        w = np.full(k, 1.0 / k)
    else:
        counts = rng.integers(1, 5, size=k)
        total = 1 << int(counts.sum() - 1).bit_length()
        counts[-1] += total - counts.sum()
        w = counts / total
    v = rng.random((k, k))
    U = StepGraphon(w, np.triu(v) + np.triu(v, 1).T)
    perm = np.array(draw(st.permutations(range(k))), dtype=int)
    if equal_mass:
        return U, grid_version(U, k, perm)
    return U, StepGraphon(U.weights[perm], U.values[np.ix_(perm, perm)])


def assert_exact_zero(U, W):
    for A, B in ((U, W), (W, U)):
        val, coupling = cut_distance(A, B)
        assert val == 0.0
        assert np.count_nonzero(coupling.matrix) == np.count_nonzero(A.weights)
        assert cut_norm_distance(A, B, coupling) == 0.0


@settings(max_examples=60)
@given(cell_permuted_pairs())
def test_cell_permuted_equal_mass_pair_is_exactly_zero(pair):
    # past 8 cells no sweep runs, and past 14 the search scores heuristically
    assert_exact_zero(*pair)


@settings(max_examples=40)
@given(cell_permuted_pairs(max_k=10, equal_mass=False))
def test_cell_permuted_dyadic_pair_is_exactly_zero(pair):
    assert_exact_zero(*pair)


def test_zero_weight_blocks_do_not_hide_a_cell_permutation():
    U = equal_mass_graphon(10, 5)
    perm = np.random.default_rng(5).permutation(10)
    W = grid_version(U, 10, perm)
    padded = StepGraphon(np.concatenate((U.weights[:3], [0.0], U.weights[3:])),
                         np.insert(np.insert(U.values, 3, 0.5, axis=0), 3, 0.5, axis=1))
    assert_exact_zero(padded, W)


def test_isomorphic_pair_stops_after_one_search(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the sweep ran after a zero")

    searches = _count_calls(monkeypatch, "_local_search")
    monkeypatch.setattr(metrics, "_perm_sweep", no_sweep)
    U = equal_mass_graphon(6, 6)
    W = grid_version(U, 6, [3, 0, 5, 1, 4, 2])
    assert cut_distance(U, W)[0] == 0.0
    assert len(searches) == 1


def test_changed_value_gets_no_isomorphic_start(monkeypatch):
    U = equal_mass_graphon(6, 7)
    perm = [3, 0, 5, 1, 4, 2]
    assert metrics._isomorphic_start(U, grid_version(U, 6, perm)) is not None
    v = grid_version(U, 6, perm).values.copy()
    v[1, 4] = v[4, 1] = np.nextafter(v[1, 4], 2.0)
    W = StepGraphon(U.weights, v)
    assert metrics._isomorphic_start(U, W) is None
    searches = _count_calls(monkeypatch, "_local_search")
    val, _ = cut_distance(U, W)
    assert val > 0.0
    # corner rule, product and 32 random corner-rule starts
    assert len(searches) == 34


def test_transport_constraints_are_row_and_column_sums(monkeypatch):
    n, m = 3, 4
    expected = np.zeros((n + m, n * m))
    for i in range(n):
        expected[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        expected[n + j, j::m] = 1.0
    seen = []
    solve = metrics.linprog

    def capture(c, A_eq, b_eq, **kwargs):
        seen.append(A_eq)
        return solve(c, A_eq, b_eq, **kwargs)

    monkeypatch.setattr(metrics, "linprog", capture)
    plan = metrics._min_cost_transport(np.arange(12.0).reshape(n, m),
                                       np.full(n, 1 / n), np.full(m, 1 / m))
    # the transport path hands linprog its rows in row-wise form; read back densely
    rows = seen[0]
    dense = np.zeros(rows.shape)
    dense[np.repeat(np.arange(rows.shape[0]), np.diff(rows.start)), rows.index] = rows.value
    assert np.array_equal(dense, expected[:-1])
    assert np.allclose(plan.sum(axis=1), 1 / n) and np.allclose(plan.sum(axis=0), 1 / m)
    # the flatness system stacks one barycenter row per atom of l1 below the
    # same independent marginal rows (the last column sum is implied)
    l1 = DiscreteMeasure([0.2, 0.5, 0.9], [0.3, 0.3, 0.4])
    l2 = DiscreteMeasure([0.0, 0.25, 0.75, 1.0], [0.25] * 4)
    bary = np.zeros((n, n * m))
    for i in range(n):
        bary[i, i * m:(i + 1) * m] = l2.atoms
    a, b = _flatness_system(l1, l2)
    assert np.array_equal(a, np.vstack((expected[:-1], bary)))
    assert np.array_equal(b, np.concatenate((l1.masses, l2.masses[:-1], l1.masses * l1.atoms)))


def transport_system(n, m, seed, costs):
    """A transport LP of the search on an n x m plan, with normal costs, or
    small integers with ties, zeros and negatives, or all-zero costs."""
    rng = np.random.default_rng(seed)
    if costs == "normal":
        cost = rng.normal(size=n * m)
    elif costs == "ties":
        cost = rng.integers(-2, 3, size=n * m).astype(float)
    else:
        cost = np.zeros(n * m)
    row, col = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
    return cost, metrics._marginal_rows(n, m), np.concatenate((row, col[:-1])), None


def flatness_system(seed, max_atoms, pair, tol):
    """The flatness LP of a dyadic measure pair: a contraction against its
    spread (feasible), the reverse or an unrelated pair (mostly status 2)."""
    rng = np.random.default_rng(seed)
    base = dyadic_measure(rng, max_atoms)
    if pair == "unrelated":
        l1, l2 = base, dyadic_measure(rng, 8)
    else:
        spread = spread_measure(rng, base)
        l1, l2 = (base, spread) if pair == "contraction" else (spread, base)
    a, b = _flatness_system(l1, l2)
    cost = np.abs(np.subtract.outer(l1.atoms, l2.atoms)).ravel()
    return cost, a, b, tol


flatness_systems = st.builds(flatness_system, st.integers(0, 2 ** 32 - 1), st.integers(1, 8),
                             st.sampled_from(["contraction", "reverse", "unrelated"]),
                             st.sampled_from([1e-10, 1e-9]))


@settings(max_examples=150)
@given(st.one_of(
    st.builds(transport_system, st.integers(1, 16), st.integers(1, 64),
              st.integers(0, 2 ** 32 - 1), st.sampled_from(["normal", "ties", "zero"])),
    flatness_systems))
@example(transport_system(1, 1, 0, "ties"))
@example(transport_system(16, 64, 1, "ties"))
@example(transport_system(16, 64, 2, "normal"))
def test_direct_highs_call_matches_scipy_linprog(system):
    # the direct HiGHS call returns scipy.optimize.linprog's x bits where scipy
    # reports an optimum (status 0), None where it reports infeasible (2), and
    # raises SolverFailure on every other status
    cost, a, b, tol = system
    options = {} if tol is None else {"primal_feasibility_tolerance": tol}
    ref = scipy.optimize.linprog(cost, A_eq=a, b_eq=b, method="highs", options=options)
    if ref.status in (0, 2):
        x = metrics.linprog(cost, a, b, **options)
        assert (x is None) == (ref.status == 2)
        assert x is None or np.array_equal(x, ref.x)
    else:
        with pytest.raises(SolverFailure):
            metrics.linprog(cost, a, b, **options)


def transport_bits(n, m, seed, costs, presolve=None):
    """The transport path's x bytes from scipy.optimize.linprog(method="highs"), clipped
    at 0 as _min_cost_transport clips them; presolve None follows the path's rule."""
    cost, a, b, _ = transport_system(n, m, seed, costs)
    if presolve is None:
        presolve = min(n, m) < 3
    ref = scipy.optimize.linprog(cost, A_eq=a, b_eq=b, method="highs",
                                 options={"presolve": presolve})
    assert ref.status == 0, ref.message
    return np.clip(ref.x.reshape(n, m), 0.0, None).tobytes()


def transport_plan(n, m, seed, costs):
    """The (cost, row, col) arguments of _min_cost_transport for transport_system."""
    cost, _, b, _ = transport_system(n, m, seed, costs)
    return cost.reshape(n, m), b[:n], np.append(b[n:], 1.0 - b[n:].sum())


@settings(max_examples=150)
@given(st.integers(1, 16), st.integers(1, 64), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["normal", "ties", "zero"]))
@example(3, 3, 0, "normal")
@example(16, 64, 1, "ties")
@example(2, 64, 0, "normal")
@example(1, 5, 0, "ties")
def test_transport_path_skips_presolve_only_where_it_changes_no_bit(n, m, seed, costs):
    # with both sides of at least 3 cells the path solves without presolve and
    # still has scipy's default bits: a HiGHS whose presolve starts to change
    # these LPs fails here; a 1- or 2-cell side keeps presolve, which moves them
    x = metrics._min_cost_transport(*transport_plan(n, m, seed, costs)).tobytes()
    assert x == transport_bits(n, m, seed, costs)
    if min(n, m) >= 3:
        assert x == transport_bits(n, m, seed, costs, presolve=True)


def solve_step(step):
    """Run one LP of CACHE_STEPS: the hex of x, "None" or "SolverFailure"."""
    kind, args = step
    try:
        if kind == "transport":
            x = metrics._min_cost_transport(*args)
        else:
            cost, a, b, tol = args
            x = metrics.linprog(cost, a, b, primal_feasibility_tolerance=tol)
    except metrics.SolverFailure:
        return "SolverFailure"
    return "None" if x is None else x.tobytes().hex()


# transport shapes interleaved with flatness LPs, a model HiGHS refuses, an
# unbounded and an infeasible model; 5 x 6 and 16 x 64 come back after others.
# An outcome of None is scipy's.
CACHE_STEPS = [
    ("transport", (5, 6, 0, "normal"), None),
    ("dense", flatness_system(0, 8, "contraction", 1e-10), None),
    ("transport", (16, 64, 1, "ties"), None),
    ("dense", (np.ones(2), np.array([[1.0, np.inf]]), np.ones(1), None), "None"),
    ("transport", (2, 64, 2, "normal"), None),
    ("dense", (np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]), None),
     "SolverFailure"),
    ("transport", (5, 6, 3, "ties"), None),
    ("dense", flatness_system(1, 8, "reverse", 1e-10), "None"),
    ("transport", (16, 64, 4, "normal"), None),
    ("dense", flatness_system(2, 8, "contraction", 1e-9), None),
    ("transport", (1, 5, 5, "ties"), None)]


def cache_steps():
    """CACHE_STEPS as solve_step takes them, and the outcome of each."""
    steps, expected = [], []
    for kind, args, outcome in CACHE_STEPS:
        if kind == "transport":
            steps.append((kind, transport_plan(*args)))
            outcome = outcome or transport_bits(*args).hex()
        else:
            steps.append((kind, args))
            outcome = outcome or scipy_bits(args).hex()
        expected.append(outcome)
    return steps, expected


def test_interleaved_transport_shapes_give_fresh_solve_bits():
    # both threads share one frozen _TransportRows per shape and each solves on
    # its own solver; no outcome depends on what the thread solved before
    steps, expected = cache_steps()
    results, rows = [], []

    def run():
        results.append([solve_step(step) for step in steps])
        rows.append(metrics._transport_rows(5, 6))

    threads = [threading.Thread(target=run) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert results == [expected] * 2
    assert rows[0] is rows[1] and not rows[0].value.flags.writeable


STEP_SOLVES = """
import pickle
import sys

from stepgraphon import metrics

{solve_step}
for step in pickle.load(sys.stdin.buffer):
    print(solve_step(step))
assert "scipy.optimize" not in sys.modules
"""


def test_fresh_process_solves_the_interleaved_sequence():
    steps, expected = cache_steps()
    program = STEP_SOLVES.format(solve_step=inspect.getsource(solve_step))
    proc = run_python(program, stdin=pickle.dumps(steps))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == expected


def test_linprog_raises_on_an_unbounded_model():
    # minimize -x1 subject to x1 - x2 = 0: x1 = x2 grows without bound
    with pytest.raises(SolverFailure, match="HiGHS model status Unbounded"):
        metrics.linprog(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))


def test_lp_solves_never_reach_scipy_linprog(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.linprog was called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    solves = []
    for module in (metrics, measures):
        monkeypatch.setattr(module, "linprog", lambda *args, _solve=module.linprog, **kwargs:
                            solves.append(1) or _solve(*args, **kwargs))
    u = StepGraphon([0.3, 0.7], [[0.9, 0.1], [0.1, 0.6]])
    w = StepGraphon([0.2, 0.3, 0.5], [[0.2, 0.8, 0.4], [0.8, 0.1, 0.3], [0.4, 0.3, 0.7]])
    assert cut_distance(u, w)[0] > 0.0
    transport_lps = len(solves)
    witness = check_flatter(DiscreteMeasure([0.5], [1.0]), DiscreteMeasure([0.0, 1.0], [0.5, 0.5]))
    assert witness.feasible and witness.coupling is not None
    assert 0 < transport_lps < len(solves)


@pytest.mark.parametrize("tol", [1e-12, 0.0, -1.0, float("nan")])
def test_linprog_refuses_a_tolerance_below_the_highs_floor_without_output(capfd, tol):
    # HiGHS would print its own option error to stdout and return status 4
    cost, a, b, _ = transport_system(2, 3, 0, "normal")
    with pytest.raises(StepGraphonError, match="below HiGHS's floor 1e-10"):
        metrics.linprog(cost, a, b, primal_feasibility_tolerance=tol)
    assert capfd.readouterr() == ("", "")
    x = metrics.linprog(cost, a, b, primal_feasibility_tolerance=metrics.HIGHS_TOL_FLOOR)
    assert isinstance(x, np.ndarray) and x.shape == (6,)
    assert capfd.readouterr() == ("", "")


def scipy_bits(system):
    """The x bytes of scipy.optimize.linprog(method="highs"), None where it reports status 2."""
    cost, a, b, tol = system
    options = {} if tol is None else {"primal_feasibility_tolerance": tol}
    ref = scipy.optimize.linprog(cost, A_eq=a, b_eq=b, method="highs", options=options)
    assert ref.status in (0, 2), ref.message
    return ref.x.tobytes() if ref.status == 0 else None


def run_python(program, stdin=b"", path=()):
    """Run program in a fresh interpreter with path, then src/, first on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [*path, SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", program], input=stdin, capture_output=True,
                          env=env, timeout=120)


FRESH_SOLVES = """
import pickle
import sys

from stepgraphon import metrics

for cost, a, b, tol in pickle.load(sys.stdin.buffer):
    x = metrics.linprog(cost, a, b, primal_feasibility_tolerance=tol)
    print(None if x is None else x.tobytes().hex())
assert "scipy.optimize" not in sys.modules
assert "scipy.optimize._highspy._core" in sys.modules
"""


def test_fresh_process_solves_on_the_extension_alone():
    # pytest has imported scipy.optimize, so only a fresh interpreter loads
    # the extension file itself; it solves transport and flatness LPs in
    # turn, with ties, an infeasible model and both tolerances
    systems = [transport_system(16, 64, 1, "ties"), flatness_system(0, 8, "contraction", 1e-10),
               transport_system(5, 6, 0, "normal"), flatness_system(1, 8, "reverse", 1e-9),
               transport_system(16, 64, 2, "ties"), flatness_system(2, 8, "contraction", 1e-9),
               transport_system(1, 1, 0, "ties"), flatness_system(3, 8, "unrelated", 1e-10),
               transport_system(8, 8, 3, "zero")]
    expected = [scipy_bits(system) for system in systems]
    assert None in expected
    proc = run_python(FRESH_SOLVES, stdin=pickle.dumps(systems))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == [
        "None" if bits is None else bits.hex() for bits in expected]


LATE_IMPORT = """
import sys

import numpy as np

from stepgraphon import metrics

x = metrics.linprog(np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
assert "scipy.optimize" not in sys.modules
import scipy.optimize

assert sys.modules["scipy.optimize._highspy._core"] is metrics._highs_core()
ref = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method="highs")
assert ref.status == 0 and ref.x.tobytes() == x.tobytes()
print("ok")
"""


def test_a_later_scipy_optimize_import_reuses_the_loaded_extension():
    proc = run_python(LATE_IMPORT)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"ok\n"


def test_a_scipy_without_the_highs_extension_is_a_named_error(tmp_path):
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    proc = run_python("import numpy as np\n"
                      "from stepgraphon import metrics\n"
                      "metrics.linprog(np.ones(1), np.ones((1, 1)), np.ones(1))\n",
                      path=[str(tmp_path)])
    assert proc.returncode == 1
    directory = tmp_path / "scipy" / "optimize" / "_highspy"
    assert proc.stderr.decode().splitlines()[-1] == (
        f"ModuleNotFoundError: no HiGHS extension _core in {directory}; "
        "stepgraphon needs scipy>=1.17")


def test_nothing_carries_over_between_solves(capfd):
    # every call sets its tolerance and passes a whole model to the thread's
    # one solver, so after each other end the next LP still has scipy's bits
    check = transport_system(5, 6, 0, "normal")
    expected = scipy_bits(check)
    infeasible = flatness_system(1, 8, "reverse", 1e-10)
    assert scipy_bits(infeasible) is None

    def still_solves():
        assert metrics.linprog(*check[:3]).tobytes() == expected
        assert capfd.readouterr() == ("", "")

    # HiGHS refuses a matrix with an infinite entry: the model-error branch
    assert metrics.linprog(np.ones(2), np.array([[1.0, np.inf]]), np.ones(1)) is None
    still_solves()
    with pytest.raises(SolverFailure, match="HiGHS model status Unbounded"):
        metrics.linprog(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))
    still_solves()
    cost, a, b, tol = infeasible
    assert metrics.linprog(cost, a, b, primal_feasibility_tolerance=tol) is None
    still_solves()
    with pytest.raises(StepGraphonError, match="below HiGHS's floor"):
        metrics.linprog(*check[:3], primal_feasibility_tolerance=1e-12)
    still_solves()
    # a loose tolerance moves this optimum, and the next call is back at HiGHS's default
    cost, a, b, _ = transport_system(16, 64, 0, "normal")
    loose = scipy_bits((cost, a, b, 1e-3))
    assert loose != scipy_bits((cost, a, b, None))
    assert metrics.linprog(cost, a, b, primal_feasibility_tolerance=1e-3).tobytes() == loose
    assert metrics.linprog(cost, a, b).tobytes() == scipy_bits((cost, a, b, None))
    assert capfd.readouterr() == ("", "")


def solver_faults(core, highs):
    """Replacements for calls of the real solver highs, each with linprog's message."""
    def shifted_solution():
        solution = highs.getSolution()
        return types.SimpleNamespace(
            col_value=solution.col_value,
            row_value=np.array(solution.row_value) + 2 * metrics.LP_RESIDUAL_TOL)

    missed = "the optimum misses its constraints by more than"
    return {"refused option": ({"setOptionValue": lambda name, value: core.HighsStatus.kError},
                               "HiGHS refused presolve 'on'"),
            "missed constraints": ({"getSolution": shifted_solution}, missed),
            "NaN objective": ({"getObjectiveValue": lambda: math.nan}, missed)}


@pytest.mark.parametrize("fault", ["refused option", "missed constraints", "NaN objective"])
def test_linprog_raises_on_a_solver_fault(monkeypatch, capfd, fault):
    # branches no real model reaches: the thread's solver, wrapped so one call
    # answers wrongly, raises SolverFailure, and the next real solve has scipy's bits
    core = metrics._highs_core()
    highs, default_tol = metrics._thread_solver(core)
    calls, message = solver_faults(core, highs)[fault]

    class Faulty:
        def __getattr__(self, name):
            return calls.get(name) or getattr(highs, name)

    check = transport_system(5, 6, 0, "normal")
    monkeypatch.setattr(metrics, "_thread_solver", lambda core: (Faulty(), default_tol))
    with pytest.raises(SolverFailure, match=message):
        metrics.linprog(*check[:3])
    monkeypatch.undo()
    assert metrics.linprog(*check[:3]).tobytes() == scipy_bits(check)
    assert capfd.readouterr() == ("", "")


def test_a_refused_option_set_raises_and_caches_no_solver():
    # a core whose solver refuses scipy's options; a fresh thread has no solver yet
    refused = object()
    fake = types.SimpleNamespace(
        HighsOptions=types.SimpleNamespace,
        simplex_constants=types.SimpleNamespace(
            SimplexStrategy=types.SimpleNamespace(kSimplexStrategyDual=1)),
        HighsDebugLevel=types.SimpleNamespace(kHighsDebugLevelNone=0),
        HighsStatus=types.SimpleNamespace(kError=refused),
        _Highs=lambda: types.SimpleNamespace(passOptions=lambda options: refused))
    seen = []

    def build():
        with pytest.raises(SolverFailure, match="HiGHS refused the options of scipy's linprog"):
            metrics._thread_solver(fake)
        seen.append(hasattr(metrics._solvers, "solver"))

    thread = threading.Thread(target=build)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert seen == [False]


def test_each_thread_solves_on_its_own_solver():
    cost, a, b, _ = check = transport_system(16, 64, 1, "ties")
    solvers, results = [], []

    def solve():
        solvers.append(metrics._thread_solver(metrics._highs_core())[0])
        results.append(metrics.linprog(cost, a, b).tobytes())

    threads = [threading.Thread(target=solve) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    solvers.append(metrics._thread_solver(metrics._highs_core())[0])
    assert len({id(highs) for highs in solvers}) == 3
    assert results == [scipy_bits(check)] * 2


def test_heuristic_start_table_is_cached_and_read_only():
    table = metrics._heuristic_starts(3, 8, 20)
    rows = [np.random.default_rng((3, r)).integers(0, 2, size=20) for r in range(8)]
    assert np.array_equal(table, np.array(rows, dtype=float))
    assert metrics._heuristic_starts(3, 8, 20) is table
    assert not table.flags.writeable


def test_heuristic_start_cache_stays_at_its_bound_over_a_seed_sweep():
    starts = metrics._heuristic_starts
    # one cutdist benchmark run uses 50 keys; all of them must stay cached
    assert starts.cache_info().maxsize >= 50
    Y = random_kernel(np.random.default_rng(4), k=6)
    for seed in range(3 * starts.cache_info().maxsize):
        cut_norm(Y, mode="heuristic", seed=seed)
    assert starts.cache_info().currsize == starts.cache_info().maxsize


# -------------------------------------------------------------------- weak*

def test_weak_star_zero_and_constants():
    g = random_graphon(np.random.default_rng(11))
    assert weak_star_distance(g, g, 5) == 0.0
    # independent oracle: enumerate the dyadic family and sum the series
    p, q = 0.2, 0.9
    for depth in (2, 4):
        intervals = [(i / 2 ** lv, (i + 1) / 2 ** lv)
                     for lv in range(depth + 1) for i in range(2 ** lv)]
        total = 0.0
        for n, (a1, b1) in enumerate(intervals, start=1):
            for m, (a2, b2) in enumerate(intervals, start=1):
                total += 2.0 ** -(n + m) * abs(p - q) * (b1 - a1) * (b2 - a2)
        got = weak_star_distance(StepGraphon([1.0], [[p]]),
                                 StepGraphon([1.0], [[q]]), depth)
        assert got == pytest.approx(total, rel=1e-12)


def test_weak_star_refuses_a_negative_depth():
    with pytest.raises(ValueError, match="depth must be >= 0"):
        weak_star_distance(HALF, HALF, -1)


def test_weak_star_enumeration_order():
    fam = dyadic_intervals(2)
    assert fam[0] == (0.0, 1.0)
    assert fam[1] == (0.0, 0.5) and fam[2] == (0.5, 1.0)
    assert len(fam) == 7


def test_weak_star_interlacing_collapse():
    bip = bipartite_graphon()
    values = [weak_star_distance(interlace_version(bip, n), HALF, 6)
              for n in (1, 2, 4, 8, 16, 32, 64)]
    assert all(values[i + 1] < values[i] for i in range(len(values) - 1))
    assert values[-1] < 0.01


def test_weak_star_depth_stops_at_the_last_nonzero_weight(monkeypatch):
    # a level-11 interval has index n >= 2^11, so each of its weights 2^-(n+k)
    # is float64 zero; level 10, from n = 2^10, still has nonzero ones
    assert 2.0 ** -2049 == 0.0
    assert metrics.signature_weights(10)[(1 << 10) - 1, 0] == 2.0 ** -1025 > 0.0
    u, w = interlace_version(bipartite_graphon(), 4), HALF
    at_ten = weak_star_distance(u, w, 10)
    signature = metrics.rectangle_signature

    def shallow(W, depth):
        assert depth <= 10
        return signature(W, depth)

    monkeypatch.setattr(metrics, "rectangle_signature", shallow)
    assert weak_star_distance(u, w, 40) == at_ten
    assert weak_star_distance(u, w, 11) == at_ten


def _exponent_weights(depth):
    n = np.arange(1, 1 << (depth + 1))
    return 2.0 ** -(n[:, None] + n[None, :])


def test_weak_star_equals_exponent_table_formula(rng):
    # reference: the weights 2^-(n+k) straight from their exponents
    for depth in range(11):
        assert np.array_equal(metrics.signature_weights(depth), _exponent_weights(depth))
    for depth, pairs in ((0, 10), (3, 10), (6, 6), (10, 2)):
        for _ in range(pairs):
            u, w = random_graphon(rng), random_graphon(rng)
            diff = metrics.rectangle_signature(u, depth) - metrics.rectangle_signature(w, depth)
            expect = float((_exponent_weights(depth) * np.abs(diff)).sum())
            assert weak_star_distance(u, w, depth) == expect


# ------------------------------------------------------------------ hausdorff

def _points(xs):
    """1-d points as the rows of a column."""
    return np.asarray(xs, dtype=float).reshape(-1, 1)


def test_hausdorff_examples():
    one = [1.0]
    assert l1_hausdorff(_points([0.0, 1.0]), _points([0.0, 1.0]), one) == 0.0
    assert l1_hausdorff(_points([0.0]), _points([1.0]), one) == 1.0
    # four pairwise distances: 0.4, 0.6 -> directed sups 0.6 and 0.4
    assert l1_hausdorff(_points([0.0, 1.0]), _points([0.4]), one) == pytest.approx(0.6)
    with pytest.raises(EmptySet):
        l1_hausdorff(_points([]), _points([0.0]), one)
    with pytest.raises(EmptySet):
        l1_hausdorff(_points([0.0]), _points([]), one)


def test_hausdorff_symmetry_and_triangle(rng):
    one = [1.0]
    for _ in range(30):
        a = _points(rng.random(int(rng.integers(1, 6))))
        b = _points(rng.random(int(rng.integers(1, 6))))
        c = _points(rng.random(int(rng.integers(1, 6))))
        dab = l1_hausdorff(a, b, one)
        assert dab == l1_hausdorff(b, a, one)
        assert dab <= l1_hausdorff(a, c, one) + l1_hausdorff(c, b, one) + 1e-12


def test_hausdorff_of_chi_clouds_matches_row_formula(rng):
    from stepgraphon.metrics import signature_weights
    from stepgraphon.order import sample_envelope
    weights = signature_weights(3).ravel()
    for trial in range(4):
        u = random_graphon(rng, k=4, equal_mass=True)
        w = random_graphon(rng, k=2, equal_mass=True)
        a = sample_envelope(u, 8, 10 + trial, 3, seed=trial).signatures
        b = sample_envelope(w, 8, 12, 3, seed=trial + 1).signatures
        a0, b0 = a.copy(), b.copy()
        d = np.empty((len(a), len(b)))
        for i in range(len(a)):
            d[i] = np.abs(b - a[i]) @ weights
        expected = float(max(d.min(axis=1).max(), d.min(axis=0).max()))
        assert l1_hausdorff(a, b, weights) == expected
        assert l1_hausdorff(b, a, weights) == expected
        for i in range(len(a)):
            assert l1_hausdorff(a[i:i + 1], b, weights) == d[i].max()
        assert (a == a0).all() and (b == b0).all()


@pytest.mark.parametrize("cap", [1, 7, 24, 100])
def test_l1_hausdorff_in_blocks_equals_the_full_matrix(monkeypatch, cap):
    # at a patched cap the distances come in several row blocks (one row
    # each below a row's length); min and max are exact, so the value keeps
    # its bits, a NaN included
    monkeypatch.setattr(metrics, "ARRAY_CAP", cap)
    rng = np.random.default_rng(cap)
    weights = rng.random(3)
    for na, nb in ((1, 9), (13, 8), (40, 5)):
        a, b = rng.random((na, 3)), rng.random((nb, 3))
        if cap == 7 and na > 1:
            a[na // 2, 1] = np.nan
        d = np.array([np.abs(b - x) @ weights for x in a])
        expected = float(max(d.min(axis=1).max(), d.min(axis=0).max()))
        for x, y in ((a, b), (b, a)):
            got = l1_hausdorff(x, y, weights)
            assert got == expected or (np.isnan(got) and np.isnan(expected))


@st.composite
def weighted_clouds(draw, n_sets=3):
    """Point sets in dimension 1-4 and nonnegative metric weights.

    Coordinates are multiples of 1/64 and weights multiples of 1/8, so every
    weighted l1 distance is exact in floating point and any summation order
    gives the same value; the properties below can then compare with ==.
    """
    dim = draw(st.integers(1, 4))
    coords = st.integers(0, 64).map(lambda n: n / 64)
    weights = draw(st.lists(st.integers(0, 8).map(lambda n: n / 8),
                            min_size=dim, max_size=dim))
    sets = []
    for _ in range(n_sets):
        n = draw(st.integers(1, 6))
        flat = draw(st.lists(coords, min_size=n * dim, max_size=n * dim))
        sets.append(np.array(flat).reshape(n, dim))
    return sets, np.array(weights)


@given(weighted_clouds())
def test_l1_hausdorff_properties(clouds):
    (a, b, c), w = clouds

    def dist(x, y):
        return float(np.abs(x - y) @ w)

    brute = max(max(min(dist(x, y) for y in b) for x in a),
                max(min(dist(x, y) for x in a) for y in b))
    dab = l1_hausdorff(a, b, w)
    assert dab == brute
    assert dab == l1_hausdorff(b, a, w)
    assert dab <= l1_hausdorff(a, c, w) + l1_hausdorff(c, b, w) + 1e-12


@given(weighted_clouds(n_sets=1), st.data())
def test_l1_hausdorff_zero_under_row_permutation(clouds, data):
    (a,), w = clouds
    order = data.draw(st.permutations(range(len(a))))
    assert l1_hausdorff(a, a[list(order)], w) == 0.0


def test_overlap_coupling_matches_shared_geometry():
    u = StepGraphon([0.25, 0.75], [[0.1, 0.6], [0.6, 0.9]])
    w = bipartite_graphon()
    c = overlap_coupling(u, w)
    c.require_marginals(u.weights, w.weights)
    assert np.allclose(c.matrix, [[0.25, 0.0], [0.25, 0.5]])


def extreme_orders(k, q):
    """Row i first; column l first, then column l last; for every (i, l)."""
    def first(n, x):
        return [x] + [y for y in range(n) if y != x]

    def last(n, x):
        return [y for y in range(n) if y != x] + [x]

    pairs = [(first(k, i), order(q, l)) for i in range(k) for l in range(q)
             for order in (first, last)]
    return [r for r, _ in pairs], [c for _, c in pairs]


@st.composite
def transport_lanes(draw):
    """Row and column masses summing to 1 (some may be 0) and lanes of visit orders.

    The lanes are random order pairs followed by the extreme-point orders.
    """
    masses = []
    for size in (draw(st.integers(1, 7)), draw(st.integers(1, 4))):
        x = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
        x[draw(st.lists(st.integers(0, size - 1), max_size=size))] = 0.0
        x[draw(st.integers(0, size - 1))] += 0.5
        masses.append(x / x.sum())
    row, col = masses
    lanes = draw(st.lists(st.tuples(st.permutations(range(len(row))),
                                    st.permutations(range(len(col)))), max_size=8))
    row_orders, col_orders = extreme_orders(len(row), len(col))
    row_orders = [list(r) for r, _ in lanes] + row_orders
    col_orders = [list(c) for _, c in lanes] + col_orders
    return row, col, row_orders, col_orders


@given(transport_lanes())
def test_corner_rule_matches_numpy_scalar_reference(case):
    row, col, row_orders, col_orders = case
    plans = corner_rule(row, col, row_orders, col_orders)
    assert plans.shape == (len(row_orders), len(row), len(col))
    for m, row_order, col_order in zip(plans, row_orders, col_orders):
        ref = corner_rule_reference(row, col, row_order, col_order)
        assert m.tobytes() == ref.tobytes()
        assert np.abs(m.sum(axis=1) - row).max() <= 1e-12
        assert np.abs(m.sum(axis=0) - col).max() <= 1e-12
        assert np.count_nonzero(m) <= len(row) + len(col) - 1


@given(st.one_of(
    st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
             min_size=1, max_size=40),
    st.builds(lambda k, total: [total / k] * k, st.integers(1, 40),
              st.sampled_from([1.0, 1e-200, 1e200]))))
def test_identity_corner_vertex_on_equal_weights_is_the_diagonal(weights):
    # why cut_distance has no separate diagonal start: its first corner-rule
    # start already is the diagonal coupling when both sides carry weights a
    a = np.array(weights)
    assert northwest(a, a).tobytes() == np.diag(a).tobytes()


def test_corner_rule_keeps_signed_zeros_of_the_scalar_walk():
    # min(r, c) keeps r on a tie, so a -0.0 mass stays -0.0 where it wins
    row = np.array([0.5, 0.0, -0.0, 0.5])
    col = np.array([-0.0, 0.25, 0.75, 0.0])
    pairs = list(itertools.product(itertools.permutations(range(4)), repeat=2))
    plans = corner_rule(row, col, [r for r, _ in pairs], [c for _, c in pairs])
    assert np.signbit(plans).any()
    for m, (row_order, col_order) in zip(plans, pairs):
        assert m.tobytes() == corner_rule_reference(row, col, row_order, col_order).tobytes()
    assert northwest(row, col).tobytes() == corner_rule_reference(row, col).tobytes()


def _heuristic_kernel(kind, k, rng):
    """A signed kernel of k cells: random, all-negative, zero or tie-heavy values."""
    if kind == "ties":
        # equal masses and three levels, so column sums tie and cancel exactly
        w = np.full(k, 1.0 / k)
        v = rng.choice([-0.5, 0.0, 0.5], (k, k))
    else:
        w = rng.dirichlet(np.ones(k))
        v = {"random": rng.uniform(-1.0, 1.0, (k, k)),
             "negative": -rng.uniform(0.0, 1.0, (k, k)),
             "zero": np.zeros((k, k))}[kind]
    return SignedStepKernel(w, np.triu(v) + np.triu(v, 1).T)


@pytest.mark.parametrize("kind", ["random", "negative", "zero", "ties"])
@pytest.mark.parametrize("k", [1, 2, 14, 15, 64, 200, 1024])
def test_heuristic_batch_equals_per_sign_reference(kind, k):
    # both signs run as one stack; each must equal the per-sign loop bit for bit,
    # from cut_norm's HEURISTIC_RESTARTS starts and, through the shared loop,
    # from 1 start and from the search's SEARCH_RESTARTS = 8
    rng = np.random.default_rng((k, len(kind)))
    Y = _heuristic_kernel(kind, k, rng)
    Yp, idx = core._support(Y)
    ay = np.outer(Yp.weights, Yp.weights) * Yp.values
    for seed in (0, 5):
        res = cut_norm(Y, mode="heuristic", seed=seed)
        value, s, t = heuristic_reference(Y, seed=seed, restarts=metrics.HEURISTIC_RESTARTS)
        assert res.value == value, seed
        assert np.array_equal(res.witness_s, s) and np.array_equal(res.witness_t, t)
        for restarts in (1, metrics.SEARCH_RESTARTS):
            s, t = metrics._alternating_max(metrics._heuristic_starts(seed, restarts, Yp.k),
                                            lambda x: x @ ay, lambda x: x @ ay.T)
            value, ref_s, ref_t = heuristic_reference(Y, seed=seed, restarts=restarts)
            assert float(abs(s @ ay @ t)) == value, (restarts, seed)
            assert np.array_equal(s, ref_s[idx]) and np.array_equal(t, ref_t[idx])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
@example(6, 11)  # under an absolute 1e-15 step margin its witness moves at 2^-44
@example(0, 40)
def test_cut_norm_does_not_depend_on_a_power_of_two_scale(seed, k):
    # the cut norm is homogeneous, and 2^-j Y is exact in float64: every compared
    # value scales exactly, so the witness stays and the value scales by 2^-j
    Y = random_kernel(np.random.default_rng(seed), k)
    modes = ("heuristic", "exact") if k <= metrics.EXACT_BLOCK_CAP else ("heuristic",)
    for mode in modes:
        ref = cut_norm(Y, mode=mode)
        for j in range(61):
            res = cut_norm(SignedStepKernel(Y.weights, np.ldexp(Y.values, -j)), mode=mode)
            assert res.value == math.ldexp(ref.value, -j), (mode, j)
            assert np.array_equal(res.witness_s, ref.witness_s), (mode, j)
            assert np.array_equal(res.witness_t, ref.witness_t), (mode, j)


@settings(max_examples=60)
@given(graphon_pairs(max_k=8, min_count=0), st.data())
def test_search_refinements_equal_validated_copies(pair, data):
    # the refinements and the difference kernel that cut_norm_distance
    # derives for the search's answer pass the public constructors, which
    # rebuild them bit for bit
    U, W = pair
    n = data.draw(st.integers(1, 3))
    shuffle = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    corners = corner_rule(U.weights, W.weights,
                          [shuffle.permutation(U.k) for _ in range(n)],
                          [shuffle.permutation(W.k) for _ in range(n)])
    gamma = data.draw(st.sampled_from([1.0, 0.5, 0.25, 0.1]))
    for cmat in (*corners, (1.0 - gamma) * corners[0] + gamma * corners[-1]):
        C = Coupling(cmat, U.weights, W.weights)
        with mock.patch.object(metrics, "cut_norm", wraps=metrics.cut_norm) as scored:
            cut_norm_distance(U, W, C, mode="heuristic")  # any size: a blend can pass the cap
        derived = (*common_refinement(U, W, C), scored.call_args.args[0])
        for G in derived:
            copy = type(G)(G.weights, G.values)
            assert np.array_equal(copy.weights, G.weights)
            assert np.array_equal(copy.values, G.values)
            assert not G.weights.flags.writeable and not G.values.flags.writeable
        assert type(derived[0]) is type(U) and type(derived[1]) is type(W)
        assert type(derived[2]) is SignedStepKernel


def test_cut_distance_refuses_a_signed_kernel():
    U = equal_mass_graphon(3, 1)
    Y = SignedStepKernel(U.weights, U.values - 0.5)
    for pair in ((U, Y), (Y, U), (Y, Y)):
        with pytest.raises(StepGraphonError, match="not a signed kernel"):
            cut_distance(*pair)


def test_cut_norm_distance_refuses_a_signed_kernel():
    # a difference of signed kernels can reach 2: clipped to [-1, 1], this
    # pair at cut norm distance 2 read 1.0
    plus, minus = SignedStepKernel([1.0], [[1.0]]), SignedStepKernel([1.0], [[-1.0]])
    U = equal_mass_graphon(3, 1)
    Y = SignedStepKernel(U.weights, U.values - 0.5)
    for u, w in ((plus, minus), (U, Y), (Y, U)):
        with pytest.raises(StepGraphonError, match="not a signed kernel"):
            cut_norm_distance(u, w, Coupling.diagonal(u.weights))


def difference_kernel(U, W, cmat):
    """U - W on the common refinement of Coupling(cmat), built by the public constructors."""
    ru, rw = common_refinement(U, W, Coupling(cmat, U.weights, W.weights))
    return SignedStepKernel(ru.weights, ru.values - rw.values)


@settings(max_examples=80)
@given(graphon_pairs(max_k=8, min_count=0), st.data())
def test_search_eval_equals_the_public_exact_path_bit_for_bit(pair, data):
    # up to the search's exact cap, the score from the coupling cells alone
    # is cut_norm on the validated refinement: same value, same witness
    U, W = pair
    shuffle = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    first, second = corner_rule(U.weights, W.weights,
                                [shuffle.permutation(U.k) for _ in range(2)],
                                [shuffle.permutation(W.k) for _ in range(2)])
    gamma = data.draw(st.sampled_from([1.0, 0.5, 0.25, 0.1]))
    cmat = data.draw(st.sampled_from([first, (1.0 - gamma) * first + gamma * second]))
    assume(np.count_nonzero(cmat > 0) <= metrics.SEARCH_EXACT_CAP)
    value, s, t = metrics._search_eval(U, W, cmat, 0, {})
    ref = cut_norm(difference_kernel(U, W, cmat), mode="exact")
    assert value == ref.value
    assert np.array_equal(s, ref.witness_s)
    assert np.array_equal(t, ref.witness_t)


@st.composite
def factored_cases(draw):
    """A random graphon pair of up to 16 x 64 blocks and a coupling of more
    than SEARCH_EXACT_CAP cells: a corner-rule vertex, the product, or a
    search step between two corner-rule vertices."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    U = random_graphon(rng, k=draw(st.integers(1, 16)))
    W = random_graphon(rng, k=draw(st.integers(1, 64)))
    first, second = corner_rule(U.weights, W.weights,
                                [rng.permutation(U.k) for _ in range(2)],
                                [rng.permutation(W.k) for _ in range(2)])
    gamma = draw(st.sampled_from([0.5, 0.25, 0.1]))
    cmat = draw(st.sampled_from([first, Coupling.product(U.weights, W.weights).matrix,
                                 (1.0 - gamma) * first + gamma * second]))
    assume(np.count_nonzero(cmat > 0) > metrics.SEARCH_EXACT_CAP)
    return U, W, cmat


@settings(max_examples=80)
@given(factored_cases())
def test_factored_search_eval_is_its_witness_on_the_refinement(case):
    # past the exact cap the search scores the factored kernel; its value is
    # the witness's box integral on the built refinement, so a lower bound
    U, W, cmat = case
    value, s, t = metrics._search_eval(U, W, cmat, 0, {})
    kernel = difference_kernel(U, W, cmat)
    a = kernel.weights
    ay = np.outer(a, a) * kernel.values
    assert s.shape == t.shape == (kernel.k,)
    assert s.base is None and t.base is None  # a memoized witness holds no loop stack
    assert math.isclose(value, abs(s @ ay @ t), rel_tol=1e-12)
    if kernel.k <= 20:
        assert value <= cut_norm(kernel, mode="exact").value * (1.0 + 1e-12)


def stepping_pair():
    """A 64-cell multiscale kernel and its 16-cell dyadic stepping."""
    G = hierarchical_graphon(np.random.default_rng(3))
    return stepping(G, PartitionSpec.dyadic(G.weights, 4)), G


def unrelated_pair(seed):
    """Two random graphons of 5 and 6 cells."""
    rng = np.random.default_rng(seed)
    return random_graphon(rng, k=5), random_graphon(rng, k=6)


def test_cut_distance_builds_no_refinement_past_the_exact_cap(monkeypatch):
    # the search builds no refinement; the answer's re-score builds one,
    # last, on the returned coupling, and only up to EXACT_BLOCK_CAP cells
    events = []
    search, refine = metrics._local_search, metrics.common_refinement
    monkeypatch.setattr(metrics, "_local_search",
                        lambda *args: events.append("search") or search(*args))
    monkeypatch.setattr(metrics, "common_refinement", lambda A, B, C:
                        events.append(C.matrix) or refine(A, B, C))
    factored = _count_calls(monkeypatch, "_factored_cut_norm")
    for (U, W), budget, cells in ((stepping_pair(), {"restarts": 2, "max_iters": 4}, 64),
                                  (unrelated_pair(8), None, 10)):
        events.clear()
        factored.clear()
        val, coupling = cut_distance(U, W, budget=budget)
        assert np.count_nonzero(coupling.matrix > 0) == cells
        assert val > 0.0 and len(factored) > 0 and "search" in events
        refinements = [e for e in events if not isinstance(e, str)]
        if cells <= metrics.EXACT_BLOCK_CAP:
            assert len(refinements) == 1 and events[-1] is refinements[0]
            assert np.array_equal(refinements[0], coupling.matrix)
        else:
            assert refinements == []


def test_cut_distance_memory_does_not_grow_with_refined_cells():
    # a dense 1,024-cell refinement and its difference kernel peak at 24 MB
    U, W = stepping_pair()
    budget = {"restarts": 2, "max_iters": 4}
    cut_distance(U, W, budget=budget)  # imports and cached tables
    tracemalloc.start()
    try:
        cut_distance(U, W, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_cut_distance_search_does_not_revalidate(monkeypatch):
    # kernels are checked only by the answer's exact re-score (its two
    # refinements and their difference), and a Coupling is built only for the
    # product start, each LP plan and the answer, not for each scored candidate
    rng = np.random.default_rng(7)
    U, W = random_graphon(rng, k=5), random_graphon(rng, k=6)
    checks, built = [], []
    validate = core._validate_symmetric
    monkeypatch.setattr(core, "_validate_symmetric",
                        lambda *args: checks.append(args) or validate(*args))
    init = Coupling.__init__
    monkeypatch.setattr(Coupling, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    evals = _count_calls(monkeypatch, "_search_eval")
    plans = _count_calls(monkeypatch, "_min_cost_transport")
    val, coupling = cut_distance(U, W)
    assert val > 0.0 and len(evals) > len(built)
    cells = np.count_nonzero(coupling.matrix > 0)
    assert cells <= metrics.EXACT_BLOCK_CAP
    assert [args[1:] for args in checks] == [(cells, 0.0, 1.0)] * 2 + [(cells, -1.0, 1.0)]
    assert len(built) == 1 + len(plans) + 1


@settings(max_examples=30, deadline=None)
@given(graphon_pairs(max_k=6, min_count=0))
@example(stepping_pair())
def test_every_scored_coupling_meets_its_marginals(pair):
    # _search_eval takes its matrices unchecked: each is nonnegative and
    # meets both marginals within MATCH_TOL, as Coupling would require
    U, W = pair
    body = metrics._search_eval
    with mock.patch.object(metrics, "_search_eval", wraps=body) as scored:
        cut_distance(U, W, budget={"restarts": 4, "max_iters": 20})
    assert scored.call_count > 0
    for call in scored.call_args_list:
        A, B, cmat = call.args[:3]
        assert (cmat >= 0.0).all()
        assert np.abs(cmat.sum(axis=1) - A.weights).max() <= core.MATCH_TOL
        assert np.abs(cmat.sum(axis=0) - B.weights).max() <= core.MATCH_TOL


def test_a_plan_that_misses_its_marginals_raises(monkeypatch):
    # the LP plans are checked where the search memoizes them, so the
    # first plan raises, before the search scores it
    solve, plans = metrics._min_cost_transport, []

    def off(cost, row, col):
        plans.append(solve(cost, row, col).copy())
        plans[-1][0, 0] += 1e-6
        return plans[-1]

    monkeypatch.setattr(metrics, "_min_cost_transport", off)
    with pytest.raises(MarginalMismatch, match="^row sums do not match the row marginal$"):
        cut_distance(*unrelated_pair(7))
    assert len(plans) == 1


def start_winners(U, W):
    """cut_distance(U, W)'s value, and the exact values of its start winners of at most 24 cells."""
    search, winners = metrics._local_search, []

    def recorded(A, B, *args):
        val, cmat = search(A, B, *args)
        winners.append((A, B, cmat))
        return val, cmat

    with mock.patch.object(metrics, "_local_search", recorded):
        val, _ = cut_distance(U, W)
    assert winners
    return val, [cut_norm_distance(A, B, Coupling(cmat, A.weights, B.weights), mode="exact")
                 for A, B, cmat in winners
                 if np.count_nonzero(cmat > 0) <= metrics.EXACT_BLOCK_CAP]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(1380)  # a 17-cell winner scores 0.06176 < its exact 0.06215; another is 0.06197
def test_cut_distance_is_at_most_the_exact_value_of_every_start_winner(seed):
    # a heuristic score past SEARCH_EXACT_CAP is a lower bound, so the start
    # loop ranks each winner of at most EXACT_BLOCK_CAP cells by its exact value;
    # a score is a box sum in another summation order, so it can round above it
    val, exact = start_winners(*unrelated_pair(seed))
    assert all(val <= e * (1.0 + 1e-12) for e in exact)


def test_cut_distance_re_scores_a_winner_that_ties_the_incumbent():
    # start 6's 19-cell winner scores 0.09257388528647068, as start 3's does,
    # and its exact value is 2 ulps lower, so a tied score needs its exact value
    val, exact = start_winners(*unrelated_pair(587))
    assert val == min(exact) == 0.09257388528647066


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
@example(8)  # a start's 20-cell winner: heuristic score 0.1263799, exact 0.1268606
def test_cut_distance_is_the_exact_cut_norm_under_its_coupling(seed):
    U, W = unrelated_pair(seed)
    val, coupling = cut_distance(U, W)
    if np.count_nonzero(coupling.matrix > 0) <= metrics.EXACT_BLOCK_CAP:
        assert val == cut_norm_distance(U, W, coupling, mode="exact")
