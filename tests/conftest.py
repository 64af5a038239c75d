import itertools
from math import log2

import numpy as np
import pytest
from hypothesis import settings
from scipy.optimize import linprog

from stepgraphon import (
    DiscreteMeasure,
    PartitionSpec,
    ScalingDiverged,
    SolverFailure,
    SignedStepKernel,
    StepGraphon,
    grid_version,
    interlace_version,
    stepping,
)
from stepgraphon.core import MATCH_TOL, Coupling, _mismatch, _support
from stepgraphon.measures import FlatnessWitness, _flatness_system
from stepgraphon.metrics import (_BLOCK_FLOATS, _heuristic_starts, _pattern_table,
                                 l1_hausdorff, rectangle_signature, signature_weights)
from stepgraphon.order import canonicalize

# Property tests replay the same examples on every run and carry no per-example
# deadline, so machine load can neither change nor fail them.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


QUARTERS = [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]

# Benchmark order pairs stepping(G) vs G (seed, job index) on which the float
# flatness route once failed: a witness off Coupling's 1e-9 marginal tolerance
# (MarginalMismatch) or, at (3, 39), a false "no coupling".
FLATNESS_DEFECT_PAIRS = [(1, 7), (1, 27), (1, 40), (3, 20), (3, 23), (3, 39), (5, 20)]


def stepped_dirichlet_pair(rng, k, intervals):
    """(stepping of G onto intervals, G) for a k-cell G with Dirichlet weights."""
    w = rng.dirichlet(np.ones(k))
    v = rng.uniform(0.0, 1.0, (k, k))
    G = StepGraphon(w, np.triu(v) + np.triu(v, 1).T)
    return stepping(G, PartitionSpec.from_intervals(G.weights, intervals)), G


def flatness_defect_pair(seed, index):
    """The 12-cell benchmark order pair of `probes` job `index` at `seed`."""
    return stepped_dirichlet_pair(np.random.default_rng((seed, 2, index, 0)), 12, QUARTERS)


def random_graphon(rng, k=None, equal_mass=False):
    k = k or int(rng.integers(2, 9))
    if equal_mass:
        w = np.full(k, 1.0 / k)
    else:
        w = rng.random(k) + 0.1
        w /= w.sum()
    v = rng.random((k, k))
    v = (v + v.T) / 2
    return StepGraphon(w, v)


def corner_rule_reference(row, col, row_order=None, col_order=None):
    """The corner rule with numpy-scalar residual masses, as first written."""
    row = np.asarray(row, dtype=float)
    col = np.asarray(col, dtype=float)
    row_order = range(len(row)) if row_order is None else row_order
    col_order = range(len(col)) if col_order is None else col_order
    r = row.copy()
    c = col.copy()
    m = np.zeros((len(row), len(col)))
    ri = ci = 0
    while ri < len(row_order) and ci < len(col_order):
        i, j = row_order[ri], col_order[ci]
        t = min(r[i], c[j])
        m[i, j] = t
        r[i] -= t
        c[j] -= t
        if r[i] <= c[j]:
            ri += 1
        else:
            ci += 1
    return m


def scaled_random_reference(rng, row, col, cap=500, residual_tol=1e-10):
    """One Sinkhorn-scaled interior plan, as the sampler first scaled each alone."""
    def ratio(target, current):
        return np.divide(target, current, out=np.zeros_like(target), where=current > 0)

    m = rng.random((len(row), len(col))) + 0.05
    res = np.inf
    for _ in range(cap):
        m *= ratio(row, m.sum(axis=1))[:, None]
        m *= ratio(col, m.sum(axis=0))
        res = max(np.abs(m.sum(axis=1) - row).max(),
                  np.abs(m.sum(axis=0) - col).max())
        if res < residual_tol:
            m *= ratio(row, m.sum(axis=1))[:, None]
            return m
    raise ScalingDiverged(res, cap)


def stepping_reference(W, P):
    """stepping as it first was, symmetrizing the block averages a second time."""
    P.require_source(W.weights)
    r = P.assignment
    b = P.target_masses
    m = r.T @ W.values @ r
    m = 0.5 * (m + m.T)
    denom = np.outer(b, b)
    vals = np.divide(m, denom, out=np.zeros_like(m), where=denom > 0)
    vals = np.clip(0.5 * (vals + vals.T), 0.0, 1.0)
    return StepGraphon(b / b.sum(), vals)


def cumulative_reference(weights):
    """Block breakpoints as the library first computed them in four places."""
    cum = np.concatenate(([0.0], np.cumsum(weights)))
    cum[-1] = 1.0
    return cum


def l1_reference(U, W):
    """The L1 distance as first computed: both kernels read at the midpoints
    of the cells between their merged breakpoints."""
    cu, cw = U.cumulative(), W.cumulative()
    cum = np.unique(np.concatenate((cu, cw)))
    mids = 0.5 * (cum[:-1] + cum[1:])
    iu = np.clip(np.searchsorted(cu, mids, side="right") - 1, 0, U.k - 1)
    iw = np.clip(np.searchsorted(cw, mids, side="right") - 1, 0, W.k - 1)
    lengths = np.diff(cum)
    diff = np.abs(U.values[np.ix_(iu, iu)] - W.values[np.ix_(iw, iw)])
    return float(lengths @ diff @ lengths)


def overlaps_reference(cum, intervals):
    """Block overlaps of each interval, (len(intervals), k), in both first forms.

    The first is the per-interval loop of PartitionSpec.from_intervals and
    rectangle_integral, the second the broadcast of core.overlap_coupling
    and the dyadic rectangle signature.
    """
    per_interval = np.zeros((len(intervals), len(cum) - 1))
    for l, (lo, hi) in enumerate(intervals):
        left = np.maximum(cum[:-1], lo)
        right = np.minimum(cum[1:], hi)
        per_interval[l] = np.clip(right - left, 0.0, None)
    lo = np.array([x for x, _ in intervals])
    hi = np.array([y for _, y in intervals])
    left = np.maximum(lo[:, None], cum[None, :-1])
    right = np.minimum(hi[:, None], cum[None, 1:])
    return per_interval, np.clip(right - left, 0.0, None)


def canonical_cell_order_reference(values):
    """The canonical cell order of an equal-mass grid, as first written.

    Colors start from each cell's sorted row and are refined by (own color,
    multiset of (neighbor color, value)) until the class count is stable.
    """
    def rank(keys):
        lookup = {k: i for i, k in enumerate(sorted(set(keys)))}
        return [lookup[k] for k in keys]

    rows = [tuple(row) for row in values]
    n = len(rows)
    colors = rank([tuple(sorted(row)) for row in rows])
    for _ in range(n):
        keys = [(colors[c], tuple(sorted(zip(colors, rows[c])))) for c in range(n)]
        new_colors = rank(keys)
        stable = len(set(new_colors)) == len(set(colors))
        colors = new_colors
        if stable or len(set(colors)) == n:
            break
    order = sorted(range(n), key=lambda c: colors[c])
    return np.asarray(order, dtype=int)


def envelope_reference(W, n, count, depth, seed=0):
    """sample_envelope's signatures as first computed, one graphon per sample."""
    base = canonicalize(W, n)
    sigs = []
    for idx in range(count):
        rng = np.random.default_rng((seed, idx))
        perm = rng.permutation(n)
        sigs.append(rectangle_signature(grid_version(base, n, perm), depth).ravel())
    for level in range(1, n + 1):
        if 2 * level > n:
            break
        if n % (2 * level) == 0:
            sigs.append(rectangle_signature(interlace_version(base, level), depth).ravel())
    for d in range(depth + 1):
        stepped = stepping(base, PartitionSpec.dyadic(base.weights, d))
        sigs.append(rectangle_signature(stepped, depth).ravel())
    return np.array(sigs)


def chi_reference(U, W, n, count, depth, seed=0):
    """chi_estimate as first computed: both envelopes, every signature coordinate."""
    return l1_hausdorff(envelope_reference(U, n, count, depth, seed),
                        envelope_reference(W, n, count, depth, seed),
                        signature_weights(depth).ravel())


def flatness_lp_reference(l1, l2):
    """Float check_flatter with no call-function screen: every pair that
    passes the fast-fails goes to the HiGHS LP.  Totals and first moments
    match as core._mismatch decides, and HiGHS is held to MATCH_TOL.

    Returns (witness, LP status), the status None when no LP was solved.
    Solves through scipy.optimize.linprog, not the library's own HiGHS call,
    so the oracle shares no LP code with the route under test, and a count
    of measures.linprog calls sees only that route.
    """
    t1, t2 = l1.total_mass(), l2.total_mass()
    if _mismatch(t1, t2):
        return FlatnessWitness(False, reason="total mass mismatch"), None
    if l1.n == 0 or l2.n == 0:
        if max(t1, t2) <= MATCH_TOL:
            return FlatnessWitness(True, None, residual=max(t1, t2),
                                   reason="effectively empty measures"), None
        return FlatnessWitness(False, reason="empty versus nonempty measure"), None
    if _mismatch(l1.first_moment(), l2.first_moment()):
        return FlatnessWitness(False, reason="first moment mismatch"), None
    a, b = _flatness_system(l1, l2)
    scale = 2.0 ** round(log2(t1))
    cost = np.abs(np.subtract.outer(l1.atoms, l2.atoms)).ravel()
    res = linprog(cost, A_eq=a, b_eq=b / scale, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": MATCH_TOL})
    if res.status == 2:
        return FlatnessWitness(
            False, reason="no coupling satisfies the barycenter constraints"), 2
    if res.status != 0 or res.x is None:
        raise SolverFailure(f"flatness LP ended with status {res.status}: {res.message}")
    x = np.clip(res.x, 0.0, None) * scale
    coupling = Coupling(x.reshape(l1.n, l2.n), l1.masses, l2.masses)
    return FlatnessWitness(True, coupling, residual=float(np.abs(a @ x - b).max())), 0


def exact_cut_norm_reference(ay):
    """The exact cut-norm scan as first written: every block in float64."""
    k = ay.shape[0]
    l = (k + 1) // 2
    low = ay[:l].T @ _pattern_table(l).T
    high = ay[l:].T @ _pattern_table(k - l).T
    low_total, high_total = low.sum(axis=0), high.sum(axis=0)
    n_high = high.shape[1]
    # Blocks of consecutive hi; axes (column, hi, lo), so a flattened
    # (hi, lo) slice runs in pattern order.
    per_block = min(n_high, max(1, _BLOCK_FLOATS // (k << l)))
    buf = np.empty((k, per_block, 1 << l))
    best_val, best_idx, best_sign = -1.0, 0, 1.0
    for hi in range(0, n_high, per_block):
        n = min(per_block, n_high - hi)
        cols = np.add(high[:, hi:hi + n, None], low[:, None, :], out=buf[:, :n])
        np.maximum(cols, 0.0, out=cols)
        pos = cols.sum(axis=0).ravel()
        neg = pos - (high_total[hi:hi + n, None] + low_total).ravel()
        ip, iq = int(pos.argmax()), int(neg.argmax())
        if pos[ip] > best_val:
            best_val, best_idx, best_sign = float(pos[ip]), (hi << l) + ip, 1.0
        if neg[iq] > best_val:
            best_val, best_idx, best_sign = float(neg[iq]), (hi << l) + iq, -1.0
    s = ((best_idx >> np.arange(k)) & 1).astype(float)
    cols = s @ ay
    t = (best_sign * cols > 0).astype(float)
    return s, t


def heuristic_reference(Y, seed=0, restarts=32):
    """Heuristic cut_norm as first written: one batch per sign, on a negated copy.

    Returns (value, witness_s, witness_t) over all of Y's blocks.
    """
    def batch(ay, s0):
        s = s0.astype(float)
        vals = np.full(len(s), -np.inf)
        for _ in range(100):
            cols = s @ ay
            t = (cols > 0).astype(float)
            rows = t @ ay.T
            s_new = (rows > 0).astype(float)
            new_vals = np.einsum("ri,ri->r", s_new @ ay, t)
            improved = new_vals > vals + 1e-15
            if not improved.any():
                break
            s = np.where(improved[:, None], s_new, s)
            vals = np.maximum(new_vals, vals)
        cols = s @ ay
        t = (cols > 0).astype(float)
        vals = np.einsum("ri,ri->r", cols, t)
        best = int(np.argmax(vals))
        return s[best], t[best], float(vals[best])

    Yp, idx = _support(Y)
    a = Yp.weights
    k = len(a)
    ay = (a[:, None] * a[None, :]) * Yp.values
    s0 = _heuristic_starts(seed, max(restarts, 1), k)
    best = (-1.0, np.zeros(k), np.zeros(k))
    for sign in (1.0, -1.0):
        s, t, val = batch(sign * ay, s0)
        if abs(val) > best[0]:
            best = (abs(val), s, t)
    _, s, t = best
    full_s = np.zeros(Y.k, dtype=int)
    full_t = np.zeros(Y.k, dtype=int)
    full_s[idx] = s
    full_t[idx] = t
    return float(abs(s @ ay @ t)), full_s, full_t


def perm_sweep_reference(U, W):
    """The permutation sweep as first written: one einsum per chunk over the
    full 2^k pattern table and the difference kernels of every permutation."""
    k = U.k
    perms = np.array(list(itertools.permutations(range(k))), dtype=int)
    wv = W.values[perms[:, :, None], perms[:, None, :]]
    diff = U.values[None, :, :] - wv
    scale = 1.0 / (k * k)
    patterns = _pattern_table(k)
    best_val, best_perm = np.inf, None
    chunk = max(1, (1 << 22) // max(1, (1 << k) * k))
    for base in range(0, len(perms), chunk):
        d = diff[base:base + chunk] * scale
        cols = np.einsum("si,pij->psj", patterns, d)
        vals = np.maximum(
            np.maximum(cols, 0.0).sum(axis=2).max(axis=1),
            np.maximum(-cols, 0.0).sum(axis=2).max(axis=1),
        )
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_perm = perms[base + i]
    return best_val, best_perm


def perm_value_reference(U, W, perm):
    """One permutation's value as perm_sweep_reference scores it."""
    k = U.k
    d = (U.values - W.values[np.ix_(perm, perm)]) * (1.0 / (k * k))
    cols = _pattern_table(k) @ d
    return float(max(np.maximum(cols, 0.0).sum(axis=1).max(),
                     np.maximum(-cols, 0.0).sum(axis=1).max()))


def dyadic_measure(rng, max_atoms=6):
    """Atoms on the 1/64 grid and masses in steps of 1/32.

    Every atom, mass, sum and half of these is a float, so the exact
    flatness test decides the measure the test means, not a rounding of it.
    """
    n = int(rng.integers(1, max_atoms + 1))
    return DiscreteMeasure(rng.choice(65, size=n, replace=False) / 64,
                           rng.integers(1, 9, size=n) / 32)


def spread_measure(rng, measure):
    """Mean-preserving spread of a dyadic measure, exact in floats.

    Each atom x of mass m becomes x - d and x + d of mass m / 2, d random
    on the 1/64 grid and within [0, 1] (d = 0 keeps the atom), so measure
    is exactly an average of the result.
    """
    steps = np.round(measure.atoms * 64).astype(int)
    d = rng.integers(0, np.minimum(steps, 64 - steps) + 1) / 64
    half = measure.masses / 2
    return DiscreteMeasure(np.concatenate((measure.atoms - d, measure.atoms + d)),
                           np.concatenate((half, half)))


def random_kernel(rng, k=None):
    k = k or int(rng.integers(2, 9))
    w = rng.random(k) + 0.1
    w /= w.sum()
    v = rng.uniform(-1, 1, (k, k))
    v = (v + v.T) / 2
    return SignedStepKernel(w, v)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
