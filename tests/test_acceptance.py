"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import itertools
import time

import numpy as np

from stepgraphon import (
    DiscreteMeasure,
    PartitionSpec,
    SignedStepKernel,
    StepFunction1D,
    StepGraphon,
    check_flatter,
    compose_couplings,
    cut_distance,
    cut_norm,
    grid_version,
    int_f,
    interlace_version,
    l1_distance,
    multiway_hausdorff,
    order_check,
    range_frequencies,
    reorder_by_ordered_partition,
    sample_multiway_set,
    split_reconstruct,
    stepping,
    strictify,
    weak_star_distance,
)
from stepgraphon.named import bipartite_graphon, sandwich_sup, u2_strip_integral
from stepgraphon.scenarios import hierarchical_graphon

from conftest import dyadic_measure, spread_measure

HALF = StepGraphon([1.0], [[0.5]])


def report(number, ok, detail):
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def random_graphon(rng, k, equal_mass=False):
    if equal_mass:
        w = np.full(k, 1.0 / k)
    else:
        w = rng.random(k) + 0.1
        w /= w.sum()
    v = rng.random((k, k))
    v = (v + v.T) / 2
    return StepGraphon(w, v)


def test_criterion_1_chessboard_collapse():
    t0 = time.time()
    bip = bipartite_graphon()
    values = [weak_star_distance(interlace_version(bip, n), HALF, 6)
              for n in (1, 2, 4, 8, 16, 32, 64)]
    elapsed = time.time() - t0
    decreasing = all(values[i + 1] < values[i] for i in range(len(values) - 1))
    ok = decreasing and values[-1] < 0.01 and elapsed < 5.0
    report(1, ok, f"weak* collapse {values[0]:.4g} -> {values[-1]:.4g}, "
                  f"strictly decreasing={decreasing}, {elapsed:.2f}s")


def test_criterion_2_counterexample_integrals():
    t0 = time.time()
    eps_values = (2 ** -4, 2 ** -6, 2 ** -8)
    strip_ok, gaps, sup_ok = True, [], True
    for eps in eps_values:
        strip = u2_strip_integral(eps)
        strip_ok &= abs(strip - 1.5 * eps) <= 8 * eps * eps
        gaps.append(abs(strip / eps - 1.5))
        ratio = sandwich_sup(eps) / eps
        sup_ok &= (1.25 - 10 * eps) <= ratio <= (1.25 + 10 * eps)
    mono = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    elapsed = time.time() - t0
    ok = strip_ok and mono and sup_ok and elapsed < 30.0
    report(2, ok, f"strip within 8eps^2: {strip_ok}, ratio->3/2 monotone: {mono}, "
                  f"sup/eps in 5/4 band: {sup_ok}, {elapsed:.2f}s")


def test_criterion_3_flatness_suite():
    t0 = time.time()
    rng = np.random.default_rng(33)
    dirac = DiscreteMeasure([0.5], [1.0])
    ends = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
    forward = check_flatter(dirac, ends)
    backward = check_flatter(ends, dirac)
    part_a = forward.feasible and forward.residual < 1e-9 and not backward.feasible

    def random_measure():
        n = int(rng.integers(2, 7))
        atoms = np.sort(rng.choice(np.linspace(0, 1, 65), size=n, replace=False))
        masses = rng.random(n) + 0.1
        return DiscreteMeasure(atoms, masses / masses.sum())

    def averaged(measure):
        n_groups = int(rng.integers(1, measure.n + 1))
        labels = rng.integers(0, n_groups, size=measure.n)
        atoms, masses = [], []
        for g in range(n_groups):
            sel = labels == g
            if not sel.any():
                continue
            m = measure.masses[sel].sum()
            atoms.append(float(np.dot(measure.atoms[sel], measure.masses[sel]) / m))
            masses.append(float(m))
        return DiscreteMeasure(atoms, masses)

    part_b = True
    for _ in range(200):
        c = random_measure()
        b = averaged(c)
        a = averaged(b)
        wab = check_flatter(a, b)
        wbc = check_flatter(b, c)
        if not (wab.feasible and wbc.feasible):
            part_b = False
            break
        xi = compose_couplings(wab.coupling, wbc.coupling, b)
        psi = xi.matrix
        residual = max(
            np.abs(psi.sum(axis=1) - a.masses).max(),
            np.abs(psi.sum(axis=0) - c.masses).max(),
            np.abs(psi @ c.atoms - a.masses * a.atoms).max(),
        )
        part_b &= residual < 1e-8
    # part c runs the complete (exact) convex-order test on dyadic chains,
    # which floats hold exactly: every link holds and no strict link reverses
    exact_rng = np.random.default_rng(34)
    part_c = (check_flatter(dirac, ends, exact=True).feasible
              and not check_flatter(ends, dirac, exact=True).feasible)
    for _ in range(200):
        a = dyadic_measure(exact_rng)
        b = spread_measure(exact_rng, a)
        c = spread_measure(exact_rng, b)
        for lo, hi in ((a, b), (b, c)):
            part_c &= check_flatter(lo, hi, exact=True).feasible
            part_c &= ((np.array_equal(lo.atoms, hi.atoms)
                        and np.array_equal(lo.masses, hi.masses))
                       or not check_flatter(hi, lo, exact=True).feasible)
    elapsed = time.time() - t0
    ok = part_a and part_b and part_c and elapsed < 20.0
    report(3, ok, f"endpoint pair: {part_a}, 200 composed chains residual<1e-8: "
                  f"{part_b}, exact convex order on 200 dyadic chains: {part_c}, "
                  f"{elapsed:.2f}s")


def test_criterion_4_stepping_consistency():
    t0 = time.time()
    rng = np.random.default_rng(44)
    failures = 0
    for _ in range(100):
        g = random_graphon(rng, int(rng.integers(2, 9)))
        p = PartitionSpec.dyadic(g.weights, int(rng.integers(0, 4)))
        verdict = order_check(stepping(g, p), g)
        failures += verdict.status != "consistent"
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 60.0
    report(4, ok, f"necessary conditions on 100 steppings: {failures} failures, "
                  f"{elapsed:.2f}s")


def test_criterion_5_cut_norm_oracle():
    t0 = time.time()
    rng = np.random.default_rng(55)
    grids = {}
    matches = 0
    exceeds = 0
    grid_ok = True
    for trial in range(500):
        k = int(rng.integers(2, 9))
        w = rng.random(k) + 0.1
        w /= w.sum()
        v = rng.uniform(-1, 1, (k, k))
        kernel = SignedStepKernel(w, (v + v.T) / 2)
        exact = cut_norm(kernel, mode="exact").value
        heur = cut_norm(kernel, mode="heuristic", seed=trial).value
        exceeds += heur > exact + 1e-12
        matches += abs(heur - exact) <= 1e-9
        if k not in grids:
            pts = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
            grids[k] = np.array(list(itertools.product(pts, repeat=k)))
        s_grid = grids[k]
        a = kernel.weights
        ay = (a[:, None] * a[None, :]) * kernel.values
        cols = (s_grid * a) @ kernel.values * a
        # the objective is separately linear in each t_j, so the grid's best
        # t is its 0/1 envelope
        grid_val = max(np.maximum(cols, 0).sum(axis=1).max(),
                       np.maximum(-cols, 0).sum(axis=1).max())
        grid_ok &= grid_val <= exact + 1e-10
        del ay
    elapsed = time.time() - t0
    ok = (matches >= 475) and exceeds == 0 and grid_ok and elapsed < 60.0
    report(5, ok, f"heuristic==exact in {matches}/500 (need 475), "
                  f"exceeds={exceeds}, grid lower bound held: {grid_ok}, "
                  f"{elapsed:.2f}s")


def test_criterion_6_weak_isomorphism_zero_distance():
    t0 = time.time()
    rng = np.random.default_rng(66)
    worst = 0.0
    freq_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 9))
        g = random_graphon(rng, n, equal_mass=True)
        v = grid_version(g, n, rng.permutation(n))
        val, _ = cut_distance(g, v, budget={"restarts": 1, "max_iters": 2},
                              seed=0)
        worst = max(worst, val)
        a = range_frequencies(g)
        b = range_frequencies(v)
        freq_ok &= (a.atoms.tolist() == b.atoms.tolist()
                    and a.masses.tolist() == b.masses.tolist())
    # colour refinement leaves a cycle's cells in one class, so no canonical
    # order matches C_k to its permutation: only the permutation sweep reaches 0
    cycles = []
    for k in range(5, 9):
        i = np.arange(k)
        v = np.zeros((k, k))
        v[i, (i + 1) % k] = v[(i + 1) % k, i] = 1.0
        c = StepGraphon(np.full(k, 1.0 / k), v)
        perm = np.random.default_rng((66, k)).permutation(k)
        cycles.append(cut_distance(c, grid_version(c, k, perm),
                                   budget={"restarts": 1, "max_iters": 2}, seed=0)[0])
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and freq_ok and cycles == [0.0] * 4 and elapsed < 120.0
    report(6, ok, f"max distance over 50 rearranged pairs: {worst:.3g}, "
                  f"range frequencies exact: {freq_ok}, C5-C8 permuted: {cycles}, "
                  f"{elapsed:.2f}s")


def test_criterion_7_chain_convergence():
    t0 = time.time()
    rng = np.random.default_rng(77)
    l1_ok = cd_ok = True
    for _ in range(20):
        g = hierarchical_graphon(rng)
        l1s, cds = [], []
        for d in range(7):
            gn = stepping(g, PartitionSpec.dyadic(g.weights, d))
            l1s.append(l1_distance(gn, g))
            val, _ = cut_distance(gn, g, budget={"restarts": 2, "max_iters": 4},
                                  seed=0)
            cds.append(val)
        l1_ok &= all(l1s[i + 1] <= l1s[i] + 1e-12 for i in range(6))
        l1_ok &= l1s[-1] < 1e-12
        cd_ok &= all(cds[i + 1] <= cds[i] + 2e-6 for i in range(6))
    elapsed = time.time() - t0
    ok = l1_ok and cd_ok
    report(7, ok, f"L1 non-increasing & exact at depth 6: {l1_ok}, "
                  f"cut bounds non-increasing within 2e-6: {cd_ok}, "
                  f"{elapsed:.2f}s")


def test_criterion_8_strictification():
    t0 = time.time()
    rng = np.random.default_rng(88)
    eps = 0.1
    strict_ok = True
    refuted_via_range = 0
    for _ in range(50):
        k = int(rng.integers(2, 7))
        v = rng.uniform(0.15, 0.85, (k, k))
        w = rng.random(k) + 0.1
        g = StepGraphon(w / w.sum(), (v + v.T) / 2)
        out = strictify(g, eps)
        pair_mass = float(np.outer(g.weights, g.weights).sum())
        gain = int_f(out, lambda x: x * x) - int_f(g, lambda x: x * x)
        strict_ok &= gain >= eps * eps * pair_mass / 2 - 1e-12
        strict_ok &= order_check(g, out).status == "consistent"
        reverse = order_check(out, g)
        refuted_via_range += (reverse.refuted and "range-frequency-flatness"
                              in reverse.failed_conditions())
    elapsed = time.time() - t0
    ok = strict_ok and refuted_via_range == 50
    report(8, ok, f"convex gain & forward consistency: {strict_ok}, "
                  f"reverse refuted via range flatness: {refuted_via_range}/50, "
                  f"{elapsed:.2f}s")


def test_criterion_9_multiway_invariance():
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        v = rng.random((6, 6))
        g = StepGraphon(np.full(6, 1 / 6), (v + v.T) / 2)
        u = grid_version(g, 6, rng.permutation(6))
        su = sample_multiway_set(g, [0.5, 0.5], count=0, seed=9)
        sw = sample_multiway_set(u, [0.5, 0.5], count=0, seed=9)
        worst = max(worst, multiway_hausdorff(su, sw))
    c0 = StepGraphon([1.0], [[0.0]])
    c1 = StepGraphon([1.0], [[1.0]])
    d01 = multiway_hausdorff(sample_multiway_set(c0, [0.5, 0.5], 1, seed=1),
                             sample_multiway_set(c1, [0.5, 0.5], 1, seed=1))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and d01 == 1.0
    report(9, ok, f"max hausdorff over 20 rearranged pairs: {worst:.3g}, "
                  f"constants 0 vs 1: {d01}, {elapsed:.2f}s")


def test_criterion_10_split_reconstruction_identity():
    t0 = time.time()
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(20):
        k = 8
        v = rng.random((k, k))
        g = StepGraphon(np.full(k, 1 / k), (v + v.T) / 2)
        picks = rng.random(8) < 0.5
        if not picks.any():
            picks[0] = True
        intervals = [(i / 8, (i + 1) / 8) for i in range(8) if picks[i]]
        inside = PartitionSpec.from_intervals(g.weights, intervals)
        mass_in = inside.assignment.sum(axis=1)
        j = PartitionSpec(np.column_stack([mass_in, g.weights - mass_in]))
        gt = reorder_by_ordered_partition(g, j)
        s = StepFunction1D.indicator(intervals)
        worst = max(worst, l1_distance(split_reconstruct(gt, s, 32), g))
    elapsed = time.time() - t0
    ok = worst < 1e-10
    report(10, ok, f"max L1 reconstruction error over 20 pairs: {worst:.3g}, "
                   f"{elapsed:.2f}s")
