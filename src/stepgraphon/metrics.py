"""Distances on step kernels: cut norm, cut distance, weak* metric, Hausdorff.

The exact cut norm enumerates one side of the bilinear box problem and solves
the other side greedily; bilinearity puts the optimum at 0/1 vertices, so the
enumeration is exact.  The cut distance over couplings is an upper bound on
the true rearrangement infimum, the cut distance delta.  Its permutation
sweep is exact over cell permutations only: it gives the permutation distance
delta-hat of equal-mass grids (Lovasz, Large Networks, section 8.1), itself an
upper bound on delta, which a fractional coupling can undercut.  A value of 0,
as for pairs that are bitwise equal up to a cell permutation, is exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys

import numpy as np

from .core import (
    WEIGHT_TOL,
    Coupling,
    SignedStepKernel,
    _canonical_cell_order,
    _derived,
    _grid_cells,
    _overlaps,
    _support,
    common_refinement,
    corner_rule,
    dyadic_intervals,
    grid_version,
    overlap_coupling,
)
from .errors import EmptySet, SolverFailure, StepGraphonError, TooManyBlocksForExact

EXACT_BLOCK_CAP = 24
SWEEP_BLOCK_CAP = 8
_BLOCK_FLOATS = 1 << 16  # exact enumeration block; timed faster than 2^17 or 2^18
_SCREEN_BLOCKS = 8  # float32 screen from this many blocks (k >= 15); below it costs more
DEFAULT_BUDGET = {"restarts": 32, "max_iters": 200, "tol": 1e-9}
WEAK_STAR_DEPTH_CAP = 10  # the deepest level with a nonzero float64 weight


class CutNormResult:
    """Cut-norm value plus the 0/1 block-selection witness achieving it."""

    def __init__(self, value, witness_s, witness_t, mode):
        self.value = float(value)
        self.witness_s = np.asarray(witness_s, dtype=int)
        self.witness_t = np.asarray(witness_t, dtype=int)
        self.mode = mode

    def to_dict(self):
        return {
            "value": self.value,
            "witness_S": self.witness_s.tolist(),
            "witness_T": self.witness_t.tolist(),
            "mode": self.mode,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["value"], d["witness_S"], d["witness_T"], d["mode"])


def _witness_value(ay, s, t):
    return float(abs(s @ ay @ t))


@functools.cache
def _pattern_table(n):
    """Read-only (2^n, n) 0/1 table: row i holds the bits of i, bit j in column j."""
    table = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def _heuristic_starts(seed, n_starts, k):
    """Read-only (n_starts, k) 0/1 table: row r is the heuristic's start r.

    Bounded, as a seed sweep would keep every table; a `cutdist` run needs 50.
    """
    table = np.empty((n_starts, k))
    for r in range(n_starts):
        table[r] = np.random.default_rng((seed, r)).integers(0, 2, size=k)
    table.flags.writeable = False
    return table


def _half_sums(ay):
    """Column sums of every subset of each half of the rows, and their totals.

    ay is one (k, k) kernel or a stack (..., k, k).  With l = ceil(k / 2),
    column i of low (..., k, 2^l) holds the column sums of the rows among
    the first l that the bits of i select, and high (..., k, 2^(k - l)) the
    same for the last k - l rows; the totals sum those columns.
    """
    k = ay.shape[-1]
    l = (k + 1) // 2
    low = ay[..., :l, :].swapaxes(-1, -2) @ _pattern_table(l).T
    high = ay[..., l:, :].swapaxes(-1, -2) @ _pattern_table(k - l).T
    return low, high, low.sum(axis=-2), high.sum(axis=-2)


def _pattern_blocks(low, high, low_total, high_total, per_block, keep=None):
    """Yield (hi, pos, neg) for each block of per_block consecutive hi.

    The arrays' dtype sets the precision, and leading batch axes of low,
    high and their totals carry through to pos and neg.  Axes of the work
    buffer are (*batch, column, hi, lo), so pos and neg, flattened after
    the batch axes, run in pattern order.  keep, one bool per block, skips
    the blocks it marks False.
    """
    *batch, k, n_low = low.shape
    n_high = high.shape[-1]
    buf = np.empty((*batch, k, per_block, n_low), dtype=low.dtype)
    for block, hi in enumerate(range(0, n_high, per_block)):
        if keep is not None and not keep[block]:
            continue
        n = min(per_block, n_high - hi)
        cols = np.add(high[..., hi:hi + n, None], low[..., None, :], out=buf[..., :n, :])
        np.maximum(cols, 0.0, out=cols)
        pos = cols.sum(axis=-3).reshape(*batch, -1)
        neg = pos - (high_total[..., hi:hi + n, None]
                     + low_total[..., None, :]).reshape(*batch, -1)
        yield hi, pos, neg


def _screen_blocks(low, high, low_total, high_total, per_block, total_abs):
    """One float32 pass: the blocks that may hold a float64 maximum.

    Scaling: low, high and their totals are multiplied by 2^shift, exact,
    so that the largest magnitude of low and high lies in [0.5, 1), and
    cast to float32.  All values below are in these scaled units.

    Error bound.  For a pattern let A = sum_j |high[j, hi]| + |low[j, lo]|.
    A and the magnitude of the pattern total are at most T' = 2^shift T,
    T = sum |ay|, up to float64 rounding.  Compare pos and neg with their
    exact values from the float64 low, high and totals; u32 = 2^-24 and
    u64 = 2^-53 are the unit roundoffs.
    - float32: a column sum is two rounded casts and a rounded add, off by
      (2 u32 + u32^2) times its share of A; the k-term sum adds (k - 1) u32 A
      in any summation order; the totals' casts and add and neg's
      subtraction add less than 4 u32 A.  So pos and neg are within
      (k + 7) u32 A.
    - float64: the same steps without the casts, within (k + 5) u64 A.
    - underflow: the 4k + 3 float32 casts, adds and sum steps lose at most
      2^-126 each (2^-150 per cast and nothing per add under gradual
      underflow; 2^-126 also covers flush to zero).
    So E = 2 ((k + 7) u32 + (k + 5) u64) T' + (4k + 4) 2^-126 bounds
    |v32 - v64| for every pattern, pos and neg; the factor 2 covers the
    float64 rounding of A <= T' and of the threshold.

    Screen.  Let G be the largest float32 value.  Its pattern's float64
    value is at least G - E, and so is the float64 maximum.  A block whose
    float32 maximum is below G - 2E holds only float64 values below G - E,
    hence no float64 maximum, and is dropped.  Every other block is kept;
    a NaN keeps them all.
    """
    k = low.shape[0]
    shift = -int(np.frexp(max(np.abs(low).max(), np.abs(high).max()))[1])

    def scaled(x):
        return np.ldexp(x, shift, out=np.empty(x.shape, np.float32), casting="same_kind")

    maxima = np.array([max(pos.max(), neg.max()) for _, pos, neg in _pattern_blocks(
        scaled(low), scaled(high), scaled(low_total), scaled(high_total), per_block)])
    err = (2.0 * ((k + 7) * 2.0 ** -24 + (k + 5) * 2.0 ** -53) * math.ldexp(total_abs, shift)
           + (4 * k + 4) * 2.0 ** -126)
    return ~(maxima < maxima.max() - 2.0 * err)


def _exact_cut_norm(ay):
    """Enumerate s over {0,1}^k; t is the greedy sign pattern per column.

    Split-half enumeration, O(2^k k): pattern (hi << l) | lo selects row j
    for each set bit j, and its column sums s @ ay are high[:, hi] +
    low[:, lo], where low and high hold the column sums of every subset of
    the first l and the last k - l rows.  pos sums the positive column sums
    of a pattern and neg the negative ones, as pos minus the pattern total.
    The first maximum in pattern order wins, pos before neg.

    The scan runs over blocks of consecutive hi.  From _SCREEN_BLOCKS
    blocks on it takes two passes: a float32 pass (_screen_blocks) keeps
    the blocks that may hold a float64 maximum, and the float64 pass scans
    only those, in the same order with the same strict update.  A skipped
    block holds only patterns below the float64 maximum, so the winner,
    and with it the witness, is the one a scan of every block finds.
    """
    k = ay.shape[0]
    low, high, low_total, high_total = _half_sums(ay)
    n_low, n_high = low.shape[1], high.shape[1]
    per_block = min(n_high, max(1, _BLOCK_FLOATS // (k * n_low)))
    keep = None
    if math.ceil(n_high / per_block) >= _SCREEN_BLOCKS:
        keep = _screen_blocks(low, high, low_total, high_total, per_block,
                              float(np.abs(ay).sum()))
    best_val, best_idx, best_sign = -1.0, 0, 1.0
    for hi, pos, neg in _pattern_blocks(low, high, low_total, high_total, per_block, keep):
        ip, iq = int(pos.argmax()), int(neg.argmax())
        if pos[ip] > best_val:
            best_val, best_idx, best_sign = float(pos[ip]), hi * n_low + ip, 1.0
        if neg[iq] > best_val:
            best_val, best_idx, best_sign = float(neg[iq]), hi * n_low + iq, -1.0
    s = ((best_idx >> np.arange(k)) & 1).astype(float)
    cols = s @ ay
    t = (best_sign * cols > 0).astype(float)
    return s, t


def _alternating_max_batch(ay, s0):
    """Batched alternating 0/1 maximization of the bilinear form on both signs.

    Each row of s0 is an independent start, run once on ay and once on -ay;
    rows stop updating once their objective stalls.  The two signs are the
    two halves of a (2, n, k) stack.  A product multiplies each half by ay
    in its own (n, k) @ (k, k) BLAS call, as a single sign would, and then
    negates the second half; negation is exact, so it equals the product
    with -ay bit for bit, without a copy of the kernel.  (One call on all 2n
    rows would not: BLAS may sum a row in another order when the number of
    rows changes.)  Returns the best (s, t, value) of ay, then that of -ay.
    """
    def product(x, m):
        out = x @ m
        out[1] *= -1.0
        return out

    s = np.stack((s0, s0)).astype(float)
    vals = np.full(s.shape[:2], -np.inf)
    for _ in range(100):
        cols = product(s, ay)
        t = (cols > 0).astype(float)
        rows = product(t, ay.T)
        s_new = (rows > 0).astype(float)
        new_vals = np.einsum("hri,hri->hr", product(s_new, ay), t)
        improved = new_vals > vals + 1e-15
        if not improved.any():
            break
        s = np.where(improved[..., None], s_new, s)
        vals = np.maximum(new_vals, vals)
    cols = product(s, ay)
    t = (cols > 0).astype(float)
    vals = np.einsum("hri,hri->hr", cols, t)
    best = vals.argmax(axis=1)
    return [(s[h, best[h]], t[h, best[h]], float(vals[h, best[h]])) for h in (0, 1)]


def cut_norm(Y, mode="exact", seed=0, restarts=32):
    """Cut norm of a signed step kernel with a box witness.

    Exact mode enumerates 2^k sign patterns (k <= 24); heuristic mode runs
    seeded alternating maximization on both signs of the kernel and always
    reports an achieved (hence lower-bounding) value.
    """
    Yp, idx = _support(Y)
    a = Yp.weights
    k = len(a)
    ay = (a[:, None] * a[None, :]) * Yp.values
    if mode == "exact":
        if k > EXACT_BLOCK_CAP:
            raise TooManyBlocksForExact(
                f"{k} blocks exceeds the exact cap of {EXACT_BLOCK_CAP}")
        s, t = _exact_cut_norm(ay)
    elif mode == "heuristic":
        s0 = _heuristic_starts(seed, max(restarts, 1), k)
        best = (-1.0, np.zeros(k), np.zeros(k))
        for s, t, val in _alternating_max_batch(ay, s0):
            if abs(val) > best[0]:
                best = (abs(val), s, t)
        _, s, t = best
    else:
        raise ValueError(f"unknown cut-norm mode {mode!r}")
    value = _witness_value(ay, s, t)
    full_s = np.zeros(Y.k, dtype=int)
    full_t = np.zeros(Y.k, dtype=int)
    full_s[idx] = s
    full_t[idx] = t
    return CutNormResult(value, full_s, full_t, mode)


def _difference_kernel(U, W, C):
    ru, rw = common_refinement(U, W, C)
    dv = np.clip(ru.values - rw.values, -1.0, 1.0)
    return _derived(SignedStepKernel, ru.weights, dv)


def _auto_cut_norm(kernel, seed=0, restarts=32, exact_cap=EXACT_BLOCK_CAP):
    if kernel.k <= exact_cap:
        return cut_norm(kernel, mode="exact")
    return cut_norm(kernel, mode="heuristic", seed=seed, restarts=restarts)


def cut_norm_distance(U, W, C, mode=None):
    """Cut norm of U - W overlaid by the coupling C, heuristic starts at seed 0.

    With a shared partition and the diagonal coupling this is the plain cut
    norm distance on the common ground space.
    """
    kernel = _difference_kernel(U, W, C)
    if mode is None:
        return _auto_cut_norm(kernel).value
    return cut_norm(kernel, mode=mode).value


def aligned_cut_norm_distance(U, W):
    """Cut norm distance on the shared ground space (identity alignment)."""
    return cut_norm_distance(U, W, overlap_coupling(U, W))


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first LP solve.

    Importing scipy.optimize costs most of a process start, and only the
    transport and flatness LPs need it.  measures binds this same function.
    """
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


def _marginal_rows(n, m):
    """Independent 0/1 marginal constraints on a row-major n x m plan.

    Row i sums cells (i, *) and row n + j cells (*, j) for j < m - 1.  The
    last column sum is implied by the others, and its right-hand side could
    disagree with them by rounding, so it is left out: callers pass the
    column marginal without its last entry.
    """
    rows = np.zeros((n + m - 1, n, m))
    i, j = np.arange(n), np.arange(m - 1)
    rows[i, i, :] = 1.0
    rows[n + j, :, j] = 1.0
    return rows.reshape(n + m - 1, n * m)


def _min_cost_transport(cost, row, col):
    """Exact linear-programming solve of the transportation problem."""
    n, m = cost.shape
    res = linprog(cost.ravel(), A_eq=_marginal_rows(n, m),
                  b_eq=np.concatenate((row, col[:-1])), bounds=(0, None), method="highs")
    if res.status != 0:
        raise SolverFailure(f"transport LP failed with status {res.status}")
    return np.clip(res.x.reshape(n, m), 0.0, None)


def _witness_gradient(U, W, cmat, res):
    """Gradient of the witnessed box integral as a function of the coupling.

    The cut-norm witness lives on the nonzero cells of cmat in row-major
    order (the refinement prunes zero cells the same way).
    """
    ku, kw = cmat.shape
    s_grid = np.zeros((ku, kw))
    t_grid = np.zeros((ku, kw))
    ii, jj = np.nonzero(cmat > 0)
    s_grid[ii, jj] = res.witness_s
    t_grid[ii, jj] = res.witness_t
    tc = t_grid * cmat
    sc = s_grid * cmat
    su, sw = sc.sum(axis=1), sc.sum(axis=0)
    tu, tw = tc.sum(axis=1), tc.sum(axis=0)
    f_val = float(su @ U.values @ tu - sw @ W.values @ tw)
    sign = 1.0 if f_val >= 0 else -1.0
    t1 = np.subtract.outer(U.values @ tu, W.values @ tw)
    t2 = np.subtract.outer(U.values @ su, W.values @ sw)
    return sign * (s_grid * t1 + t_grid * t2)


SEARCH_EXACT_CAP = 14
SEARCH_RESTARTS = 8
SUPPORT_CAP = 4096


def _search_eval(U, W, cmat, seed, memo):
    """Cut norm of U - W under the coupling cmat, memoized by cmat's bytes."""
    key = ("eval", cmat.tobytes())
    if key not in memo:
        coupling = Coupling(cmat, U.weights, W.weights)
        kernel = _difference_kernel(U, W, coupling)
        memo[key] = _auto_cut_norm(kernel, seed=seed, restarts=SEARCH_RESTARTS,
                                   exact_cap=SEARCH_EXACT_CAP)
    return memo[key]


def _search_plan(U, W, grad, memo):
    """Transport plan minimizing <grad, C>, memoized by grad's bytes.

    A failed LP is memoized as None, which ends the search.
    """
    key = ("plan", grad.tobytes())
    if key not in memo:
        try:
            memo[key] = _min_cost_transport(grad, U.weights, W.weights)
        except SolverFailure:
            memo[key] = None
    return memo[key]


def _local_search(U, W, c0, max_iters, tol, seed, memo):
    """Frank-Wolfe-style descent from c0; returns (value, coupling matrix).

    memo caches both steps, which are pure in (U, W, seed) and the array
    they are given; share one dict only between searches on the same pair
    and seed, and a hit returns what the step would have computed.
    """
    cmat = c0
    res = _search_eval(U, W, cmat, seed, memo)
    val = res.value
    for _ in range(max_iters):
        c_star = _search_plan(U, W, _witness_gradient(U, W, cmat, res), memo)
        if c_star is None:
            break
        improved = False
        for gamma in (1.0, 0.5, 0.25, 0.1):
            cand = (1.0 - gamma) * cmat + gamma * c_star
            if np.count_nonzero(cand > 0) > SUPPORT_CAP:
                continue
            res2 = _search_eval(U, W, cand, seed, memo)
            if res2.value < val - tol:
                cmat, res, val = cand, res2, res2.value
                improved = True
                break
        if not improved:
            break
    return val, cmat


def _perm_sweep(U, W):
    """Exact minimum of the cut norm over cell permutations (equal masses).

    For each permutation p the difference kernel is (U - W[p][:, p]) / k^2,
    and its cut norm is the exact scan's maximum of pos and neg over every
    pattern: one _pattern_blocks call per chunk of permutations, on the
    split-half column sums of the whole chunk, in one block of every hi.
    The sweep costs O(k! 2^k k), and a chunk's work buffer holds about
    _BLOCK_FLOATS values.  The first minimum in permutation order wins.
    """
    k = U.k
    perms = np.array(list(itertools.permutations(range(k))), dtype=int)
    scale = 1.0 / (k * k)
    best_val, best_perm = np.inf, None
    chunk = max(1, _BLOCK_FLOATS // (k << k))
    for base in range(0, len(perms), chunk):
        p = perms[base:base + chunk]
        d = (U.values - W.values[p[:, :, None], p[:, None, :]]) * scale
        low, high, low_total, high_total = _half_sums(d)
        _, pos, neg = next(_pattern_blocks(low, high, low_total, high_total, high.shape[-1]))
        vals = np.maximum(pos.max(axis=-1), neg.max(axis=-1))
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_perm = perms[base + i]
    return best_val, best_perm


def _canonical_key(G):
    return (G.k, tuple(G.weights.tolist()), tuple(G.values.ravel().tolist()))


def _expand_coupling(cmat, idx_u, idx_w, ku, kw, wu, ww):
    full = np.zeros((ku, kw))
    full[np.ix_(idx_u, idx_w)] = cmat
    return Coupling(full, wu, ww)


def _isomorphic_start(A, B):
    """The coupling that matches B's cells to equal cells of A, or None.

    Both sides are put in canonical cell order; when the reordered weights
    and values are bitwise equal, matching the cells in that order gives a
    difference kernel that is exactly 0.  Otherwise, including cell-permuted
    pairs whose refinement leaves unequal classes, there is no such start.
    """
    if A.k != B.k or not np.array_equal(np.sort(A.weights), np.sort(B.weights)):
        return None
    pa = _canonical_cell_order(A.weights, A.values)
    pb = _canonical_cell_order(B.weights, B.values)
    if not (np.array_equal(A.weights[pa], B.weights[pb])
            and np.array_equal(A.values[np.ix_(pa, pa)], B.values[np.ix_(pb, pb)])):
        return None
    cmat = np.zeros((A.k, B.k))
    cmat[pa, pb] = A.weights[pa]
    return cmat


def _search_budget(budget):
    """DEFAULT_BUDGET updated by budget, or StepGraphonError for a bad entry."""
    cfg = dict(DEFAULT_BUDGET)
    for key, value in (budget or {}).items():
        if key not in DEFAULT_BUDGET:
            raise StepGraphonError(f"budget key {key!r} is not one of {sorted(DEFAULT_BUDGET)}")
        if key == "tol":
            ok = isinstance(value, numbers.Real) and 0 <= value <= sys.float_info.max
        else:
            ok = isinstance(value, numbers.Integral) and value >= 0
        if isinstance(value, bool) or not ok:
            kind = "a finite number" if key == "tol" else "an integer"
            raise StepGraphonError(f"budget {key} must be {kind} >= 0, got {value!r}")
        cfg[key] = value
    return cfg


def cut_distance(U, W, budget=None, seed=0):
    """Upper bound on the rearrangement cut distance, with the best coupling.

    Runs deterministic starts (corner rule, product) plus seeded random
    corner-rule vertices through an alternating local search, and a
    permutation sweep when both sides refine to at most 8 equal-mass cells
    and neither has a single cell (one cell leaves one coupling, the
    product, and it is a start).  The result is the minimum over everything
    evaluated, an upper bound on the cut distance.  The sweep is exact over
    cell permutations only: its minimum is the permutation distance
    delta-hat of the two grids, an upper bound on the cut distance, and a
    fractional coupling from the search can be lower.
    Only a value of 0 is claimed exact.  When the pruned sides are bitwise
    equal up to a cell permutation, found by matching their canonical cell
    orders, that permutation's coupling is the first start; its difference
    kernel is exactly 0, so the value is exactly 0.0 at any number of cells.
    The search stops at the first start that reaches 0 and then skips the
    sweep: no later value can be lower.  Starts often converge onto the same
    couplings, so the search memoizes its cut norms and transport LPs for the
    length of the call; a memo hit returns exactly what recomputing would, so
    results do not depend on it.
    """
    cfg = _search_budget(budget)
    swap = _canonical_key(U) > _canonical_key(W)
    A, B = (W, U) if swap else (U, W)
    a_full, b_full = A.weights, B.weights
    Ap, idx_a = _support(A)
    Bp, idx_b = _support(B)
    a, b = Ap.weights, Bp.weights

    row_orders, col_orders = [np.arange(len(a))], [np.arange(len(b))]
    for r in range(cfg["restarts"]):
        rng = np.random.default_rng((seed, r))
        row_orders.append(rng.permutation(len(a)))
        col_orders.append(rng.permutation(len(b)))
    corners = corner_rule(a, b, row_orders, col_orders)
    iso = _isomorphic_start(Ap, Bp)
    starts = [] if iso is None else [iso]
    starts.append(corners[0])
    if Ap.k * Bp.k <= 1024:
        starts.append(Coupling.product(a, b).matrix)
    starts.extend(corners[1:])

    best_val, best_c = np.inf, None
    memo = {}
    for c0 in starts:
        val, cmat = _local_search(Ap, Bp, c0, cfg["max_iters"], cfg["tol"], seed, memo)
        if val < best_val:
            best_val, best_c = val, cmat
        if best_val == 0.0:
            break

    equal_a = np.abs(a - a[0]).max() <= WEIGHT_TOL
    equal_b = np.abs(b - b[0]).max() <= WEIGHT_TOL
    common = math.lcm(Ap.k, Bp.k) if equal_a and equal_b else None
    if (best_val > 0.0 and min(Ap.k, Bp.k) > 1
            and common is not None and common <= SWEEP_BLOCK_CAP):
        Ar = grid_version(Ap, common)
        Br = grid_version(Bp, common)
        val, perm = _perm_sweep(Ar, Br)
        if val < best_val:
            best_val = val
            best_c = np.zeros((Ap.k, Bp.k))
            np.add.at(best_c, (_grid_cells(a, common), _grid_cells(b, common)[perm]),
                      1.0 / common)

    coupling = _expand_coupling(best_c, idx_a, idx_b, A.k, B.k, a_full, b_full)
    if swap:
        coupling = coupling.transpose()
    return float(best_val), coupling


def rectangle_signature(W, depth):
    """Exact integrals of W over all depth-D dyadic rectangles (M x M)."""
    lo, hi = zip(*dyadic_intervals(depth))
    r = _overlaps(W.cumulative(), lo, hi)
    return r @ W.values @ r.T


def signature_weights(depth):
    """The (M x M) weights 2^-(n+k), as products of exact powers of two."""
    u = 2.0 ** -np.arange(1, (1 << (depth + 1)))
    return np.outer(u, u)


def weak_star_distance(U, W, depth):
    """Truncated weak* metric over the dyadic rectangle family.

    Sums 2^-(n+k) |integral over A_n x A_k of U - W| for the breadth-first
    dyadic enumeration A_1 = [0,1], A_2 = [0,1/2), A_3 = [1/2,1), ... down to
    the given depth; all integrals are exact block-overlap sums.  Levels past
    WEAK_STAR_DEPTH_CAP = 10 are dropped: an interval there has n >= 2^11,
    so each of its terms has n + k >= 2049 and a weight 2^-(n+k) of exactly
    0.0 in float64 (the smallest positive float64 is 2^-1074).  Every depth
    from 10 on thus sums the same nonzero terms and returns one value,
    without the (2^(depth+1) - 1)^2 signatures of a deeper level.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    depth = min(depth, WEAK_STAR_DEPTH_CAP)
    diff = rectangle_signature(U, depth)
    diff -= rectangle_signature(W, depth)
    np.abs(diff, out=diff)
    diff *= signature_weights(depth)
    return float(diff.sum())


def l1_hausdorff(points_a, points_b, weights):
    """Hausdorff distance of two finite point sets under a weighted l1 metric.

    Points are rows; x and y lie |x - y| @ weights apart.  The distance
    matrix is filled one row of points_a at a time, through one difference
    buffer the size of points_b that every row reuses.
    """
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("hausdorff distance needs nonempty sets")
    d = np.empty((len(a), len(b)))
    diff = np.empty_like(b)
    for i in range(len(a)):
        np.abs(np.subtract(b, a[i], out=diff), out=diff)
        np.matmul(diff, weights, out=d[i])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
