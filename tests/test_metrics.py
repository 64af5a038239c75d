import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stepgraphon import (
    Coupling,
    EmptySet,
    MarginalMismatch,
    SignedStepKernel,
    SolverFailure,
    StepGraphon,
    TooManyBlocksForExact,
    aligned_cut_norm_distance,
    cut_distance,
    cut_norm,
    cut_norm_distance,
    grid_version,
    l1_distance,
    l1_hausdorff,
    interlace_version,
    overlap_coupling,
    weak_star_distance,
)
from stepgraphon import core, metrics
from stepgraphon.core import common_refinement, corner_rule
from stepgraphon.measures import DiscreteMeasure, _flatness_system
from stepgraphon.metrics import dyadic_intervals
from stepgraphon.named import bipartite_graphon

from conftest import (corner_rule_reference, exact_cut_norm_reference, heuristic_reference,
                      l1_reference, perm_sweep_reference, perm_value_reference,
                      random_graphon, random_kernel)

HALF = StepGraphon([1.0], [[0.5]])


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
    Coupling([[0.5, 0.0], [0.0, 0.5]])
    with pytest.raises(MarginalMismatch):
        Coupling([[0.5, 0.0], [0.0, 0.5]], [0.4, 0.6], [0.5, 0.5])
    with pytest.raises(MarginalMismatch):
        Coupling([[-0.1, 0.6], [0.5, 0.0]])
    with pytest.raises(MarginalMismatch):
        Coupling([[float("nan")]])


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
    """A signed kernel of one of the families the float32 screen must not misjudge."""
    a = rng.dirichlet(np.ones(k))
    v = rng.uniform(-1, 1, (k, k))
    if family == "ties":
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
    assert res.value == metrics._witness_value(ay, s, t)
    assert res.witness_s.tolist() == s.astype(int).tolist()
    assert res.witness_t.tolist() == t.astype(int).tolist()


SCREENED_FAMILIES = ["random", "ties", "duplicate", "zero", "tiny-masses", "dominant"]


@pytest.mark.parametrize("family", SCREENED_FAMILIES)
@pytest.mark.parametrize("k", [15, 16, 17, 18, 19, 20, 24])
def test_screened_scan_is_bit_identical_to_float64_scan(k, family):
    # from k = 15 the scan screens its blocks in float32; value and witness must
    # be those of the all-float64 scan, ties and underflow included
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


def scanned_blocks(monkeypatch, kernel):
    """Blocks the exact cut norm scans in float32 and in float64."""
    seen = {np.float32: 0, np.float64: 0}
    scan = metrics._pattern_blocks

    def counting(low, *args):
        for block in scan(low, *args):
            seen[low.dtype.type] += 1
            yield block

    monkeypatch.setattr(metrics, "_pattern_blocks", counting)
    cut_norm(kernel, mode="exact")
    return seen[np.float32], seen[np.float64]


def test_screen_leaves_few_blocks_to_rescan(monkeypatch):
    # k = 19 spans 171 blocks; a screen that keeps them all would still be exact,
    # so only this count shows it has stopped saving work
    screened, rescanned = scanned_blocks(monkeypatch, random_kernel(np.random.default_rng(19), 19))
    assert screened == 171
    assert 1 <= rescanned <= 4


def test_screen_starts_at_eight_blocks(monkeypatch):
    # k = 14 spans 4 blocks and runs in float64 alone; k = 15 spans 8
    assert scanned_blocks(monkeypatch, random_kernel(np.random.default_rng(14), 14)) == (0, 4)
    screened, rescanned = scanned_blocks(monkeypatch, random_kernel(np.random.default_rng(15), 15))
    assert screened == 8 and 1 <= rescanned < 8


def test_screen_rescans_every_block_of_the_zero_kernel(monkeypatch):
    kernel = SignedStepKernel(np.full(16, 1 / 16), np.zeros((16, 16)))
    assert scanned_blocks(monkeypatch, kernel) == (16, 16)


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
    val, perm = metrics._perm_sweep(u, w)
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
    val, perm = metrics._perm_sweep(u, w)
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
    assert abs(metrics._perm_sweep(u, w)[0] - best) <= 1e-15


def test_sweep_builds_no_array_over_every_permutation():
    # a sweep that gathers all 8! difference kernels at once peaks at 139 MB
    u, w = sweep_pair("random", 8)
    tracemalloc.start()
    try:
        metrics._perm_sweep(u, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2 ** 20


def test_sweep_and_exact_scan_share_the_pattern_blocks(monkeypatch):
    # the sweep scans each chunk of permutations in one call and one block;
    # a 14-cell cut norm is one call of 4 float64 blocks, with no float32 screen
    calls = []
    scan = metrics._pattern_blocks

    def counting(low, *args):
        calls.append([low.dtype.type, low.shape[:-2], 0])
        for block in scan(low, *args):
            calls[-1][2] += 1
            yield block

    monkeypatch.setattr(metrics, "_pattern_blocks", counting)
    metrics._perm_sweep(*sweep_pair("random", 7))
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
        dcut = aligned_cut_norm_distance(u, w)
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
    assert aligned_cut_norm_distance(U, W) <= l1_distance(U, W) + 1e-12


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
    sweep, _ = metrics._perm_sweep(U, W)
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
    evals = _count_calls(monkeypatch, "_difference_kernel")
    lps = _count_calls(monkeypatch, "_min_cost_transport")
    c0 = northwest(u.weights, w.weights)
    memo = {}
    val, cmat = metrics._local_search(u, w, c0, 20, 1e-9, 0, memo)
    n_evals, n_lps = len(evals), len(lps)
    assert n_evals > 1 and n_lps > 0
    again = metrics._local_search(u, w, c0, 20, 1e-9, 0, memo)
    assert (len(evals), len(lps)) == (n_evals, n_lps)
    assert again[0] == val and np.array_equal(again[1], cmat)
    fresh = metrics._local_search(u, w, c0, 20, 1e-9, 0, {})
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
        val, cmat = metrics._local_search(u, w, c0, 20, 1e-9, 0, memo)
        assert cmat is c0
        assert val == cut_norm_distance(u, w, Coupling(c0, u.weights, w.weights))
    assert len(lps) == 1
    # 35 starts among 3! * 2! corner-rule orders repeat their gradients
    lps.clear()
    cut_distance(u, w)
    gradients = [cost.tobytes() for cost, _, _ in lps]
    assert len(set(gradients)) == len(gradients) < 35


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

    def capture(cost, A_eq, **kwargs):
        seen.append(A_eq)
        return solve(cost, A_eq=A_eq, **kwargs)

    monkeypatch.setattr(metrics, "linprog", capture)
    plan = metrics._min_cost_transport(np.arange(12.0).reshape(n, m),
                                       np.full(n, 1 / n), np.full(m, 1 / m))
    assert np.array_equal(seen[0], expected[:-1])
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
    # both signs run as one stack; each must equal the per-sign loop bit for bit
    rng = np.random.default_rng((k, len(kind)))
    Y = _heuristic_kernel(kind, k, rng)
    for restarts in (1, 8, 32):
        for seed in (0, 5):
            res = cut_norm(Y, mode="heuristic", seed=seed, restarts=restarts)
            value, s, t = heuristic_reference(Y, seed=seed, restarts=restarts)
            assert res.value == value, (restarts, seed)
            assert np.array_equal(res.witness_s, s) and np.array_equal(res.witness_t, t)


@settings(max_examples=60)
@given(graphon_pairs(max_k=8, min_count=0), st.data())
def test_search_refinements_equal_validated_copies(pair, data):
    # the refinements the search derives skip the checks; the public
    # constructors accept them and rebuild them bit for bit
    U, W = pair
    n = data.draw(st.integers(1, 3))
    shuffle = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    corners = corner_rule(U.weights, W.weights,
                          [shuffle.permutation(U.k) for _ in range(n)],
                          [shuffle.permutation(W.k) for _ in range(n)])
    gamma = data.draw(st.sampled_from([1.0, 0.5, 0.25, 0.1]))
    for cmat in (*corners, (1.0 - gamma) * corners[0] + gamma * corners[-1]):
        C = Coupling(cmat, U.weights, W.weights)
        derived = (*common_refinement(U, W, C), metrics._difference_kernel(U, W, C))
        for G in derived:
            copy = type(G)(G.weights, G.values)
            assert np.array_equal(copy.weights, G.weights)
            assert np.array_equal(copy.values, G.values)
            assert not G.weights.flags.writeable and not G.values.flags.writeable
        assert type(derived[0]) is type(U) and type(derived[1]) is type(W)
        assert type(derived[2]) is SignedStepKernel


def test_cut_distance_search_does_not_revalidate(monkeypatch):
    rng = np.random.default_rng(7)
    U, W = random_graphon(rng, k=5), random_graphon(rng, k=6)
    checks = []
    validate = core._validate_symmetric
    monkeypatch.setattr(core, "_validate_symmetric",
                        lambda *args: checks.append(args) or validate(*args))
    evals = _count_calls(monkeypatch, "_difference_kernel")
    val, _ = cut_distance(U, W)
    assert val > 0.0 and len(evals) > 0
    assert checks == []
