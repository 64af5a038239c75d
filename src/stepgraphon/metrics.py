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

import collections.abc
import functools
import importlib.machinery
import importlib.util
import itertools
import math
import numbers
import os
import sys
import threading

import numpy as np

from .core import (
    ARRAY_CAP,
    WEIGHT_TOL,
    Coupling,
    SignedStepKernel,
    _canonical_cell_order,
    _check_stack,
    _coupling_cells,
    _dyadic_overlaps,
    _freeze,
    _grid_cells,
    _support,
    common_refinement,
    corner_rule,
)
from .errors import EmptySet, SolverFailure, StepGraphonError, TooManyBlocksForExact

EXACT_BLOCK_CAP = 24
SWEEP_BLOCK_CAP = 8
_BLOCK_FLOATS = 1 << 16  # exact scan block, timed faster than 2^17 or 2^18; picks tied witnesses
_SCREEN_BLOCKS = 8  # bound screen from this many blocks (k >= 15)
_SCREEN_FANOUT = 1 << 10  # children per screen expansion; 2^9 timed slower on ties, 2^11 on random
DEFAULT_BUDGET = {"restarts": 32, "max_iters": 200}
HEURISTIC_RESTARTS = 32  # seeded starts of the heuristic cut norm
WEAK_STAR_DEPTH_CAP = 10  # the deepest level with a nonzero float64 weight
LP_RESIDUAL_TOL = 10 * math.sqrt(1e-9)  # scipy.optimize.linprog's check of an optimum
HIGHS_TOL_FLOOR = 1e-10  # the least primal feasibility tolerance HiGHS accepts


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


@functools.cache
def _pattern_table(n):
    """Read-only (2^n, n) 0/1 table: row i holds the bits of i, bit j in column j."""
    return _freeze(((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float))


@functools.lru_cache(maxsize=64)
def _heuristic_starts(seed, n_starts, k):
    """Read-only (n_starts, k) 0/1 table: row r is the heuristic's start r.

    Bounded, as a seed sweep would keep every table; a `cutdist` run needs 50.
    """
    table = np.empty((n_starts, k))
    for r in range(n_starts):
        table[r] = np.random.default_rng((seed, r)).integers(0, 2, size=k)
    return _freeze(table)


def _pattern_blocks(ay, per_block, blocks):
    """Yield (hi, pos, neg) for each listed block of per_block consecutive hi.

    ay is one (k, k) kernel or a stack (..., k, k); its dtype sets the
    precision, and its leading batch axes carry through to pos and neg.
    With l = ceil(k / 2), column lo of low holds the column sums of the
    rows among the first l that the bits of lo select, and column hi of
    high the same for the last k - l rows, so pattern (hi << l) | lo has
    column sums high[:, hi] + low[:, lo].  blocks are ascending block
    numbers; block b holds hi from b * per_block on.  Axes of the work
    buffer are (*batch, column, hi, lo), so pos and neg, flattened after
    the batch axes, run in pattern order, and the sum over columns adds
    whole (hi, lo) slices in column order: a pattern's pos has the same
    bits in a short block as in a full one.
    """
    k = ay.shape[-1]
    l = (k + 1) // 2
    low = ay[..., :l, :].swapaxes(-1, -2) @ _pattern_table(l).T
    high = ay[..., l:, :].swapaxes(-1, -2) @ _pattern_table(k - l).T
    low_total, high_total = low.sum(axis=-2), high.sum(axis=-2)
    *batch, _, n_low = low.shape
    n_high = high.shape[-1]
    buf = np.empty((*batch, k, per_block, n_low), dtype=low.dtype)
    for block in blocks:
        hi = block * per_block
        n = min(per_block, n_high - hi)
        cols = np.add(high[..., hi:hi + n, None], low[..., None, :], out=buf[..., :n, :])
        np.maximum(cols, 0.0, out=cols)
        pos = cols.sum(axis=-3).reshape(*batch, -1)
        neg = pos - (high_total[..., hi:hi + n, None]
                     + low_total[..., None, :]).reshape(*batch, -1)
        yield hi, pos, neg


def _completion_bound(cols, plus, minus, work):
    """Upper bound on the pos and neg of every completion of each node.

    A node fixes some rows, and column i of cols holds their column sums;
    plus and minus sum the positive parts and the magnitudes of the
    negative parts of the rows still free.  A completion's column sum j
    lies in [cols_j - minus_j, cols_j + plus_j], so its pos is at most
    sum_j (cols_j + plus_j)+ and its neg at most sum_j (minus_j - cols_j)+.
    With plus and minus 0 this is the node's own value, the larger of its
    pos and neg.  work is a (2, *cols.shape) buffer.
    """
    np.add(cols, plus[:, None], out=work[0])
    np.subtract(minus[:, None], cols, out=work[1])
    np.maximum(work, 0.0, out=work)
    return work.sum(axis=1).max(axis=0)


def _bound_screen(ay, per_block, total_abs):
    """The blocks of the scan that may hold a float64 maximum.

    A depth-first branch and bound fixes the rows heaviest first
    (descending sum_j |ay_ij|, stable).  A node of depth d fixes the first
    d of them; it is a column of k column sums over the rows it sets and
    one more entry, its pattern's index over all k rows (exact in float64,
    as k <= 24).  The incumbent is the value of the heuristic's pattern
    (cut_norm's heuristic call).  A batch of n nodes is expanded by the
    next r rows at once, r >= 1 the most that keeps its n 2^r children
    within _SCREEN_FANOUT, and batches hold at most half that.  A child
    whose _completion_bound is below the incumbent minus the margin is
    pruned.  The tree ends at the first depth whose free rows sum to at
    most the margin in |ay|, depth k unless the lightest rows are that
    light: below it no bound can tell patterns apart.
    A node that survives there flags every high half hi that its
    completions reach, its own and each with more of the free rows of the
    high half set.  A block of per_block consecutive hi is kept when one of
    them is flagged, and the screen returns the ascending numbers of the
    kept blocks.  Pruning only uses bounds, so the depth at which the tree
    ends changes the work, not the blocks that must stay.

    Margin.  Let T = sum |ay| and u = 2^-53.  Every value below is made by
    additions, subtractions and max(., 0) of float64 entries of ay; each
    of these is exact when its result is subnormal and within u of it
    otherwise, so to first order in u, in units of u T and in any
    summation order:
    - the scan's pos is within 2k of the exact value (k for a column sum,
      k - 1 for the sum over columns), and its neg within 5k (the pattern
      total adds 3k - 1, the subtraction 1);
    - a node's column sums are within k and the free rows' sums within
      k - 1, so a bound is within 3k;
    - the heuristic's value (a product with ay and a sum) is within 2k.
    A pruned pattern's scan value is thus at most its bound + 3k + 5k, and
    the scan's maximum at least the incumbent - 2k - 5k.  So a margin of
    15k u T keeps every block that holds a float64 maximum;
    32k u T also covers the second-order terms and the rounding of T, of
    the margin and of the threshold, and 2^-1070 the margin's underflow.
    """
    k = ay.shape[0]
    l = (k + 1) // 2
    order = np.argsort(-np.abs(ay).sum(axis=1), kind="stable")
    rows = np.concatenate((ay[order], np.ldexp(1.0, order)[:, None]), axis=1)
    plus = np.zeros((k + 1, k))
    minus = np.zeros((k + 1, k))
    plus[:k] = np.cumsum(np.maximum(rows[:, :k], 0.0)[::-1], axis=0)[::-1]
    minus[:k] = np.cumsum(np.maximum(-rows[:, :k], 0.0)[::-1], axis=0)[::-1]
    s, _ = _alternating_max(_heuristic_starts(0, HEURISTIC_RESTARTS, k),
                            lambda x: x @ ay, lambda x: x @ ay.T)
    cols = s @ ay
    best = max(np.maximum(cols, 0.0).sum(), np.maximum(-cols, 0.0).sum())
    margin = 32 * k * 2.0 ** -53 * total_abs + 2.0 ** -1070
    cutoff = best - margin
    free = plus.sum(axis=1) + minus.sum(axis=1)
    stop = int(np.argmax(free <= margin))
    kids_buf = np.empty((k + 1) * _SCREEN_FANOUT)
    work_buf = np.empty(2 * k * _SCREEN_FANOUT)
    marks = np.zeros(1 << (k - l), dtype=bool)
    stack = [(0, np.zeros((k + 1, 1)))]
    while stack:
        depth, nodes = stack.pop()
        n = min(nodes.shape[1], _SCREEN_FANOUT // 2)
        if nodes.shape[1] > n:
            stack.append((depth, nodes[:, n:]))
        r = min(stop - depth, (_SCREEN_FANOUT // n).bit_length() - 1)
        m = n << r
        kids = kids_buf[:(k + 1) * m].reshape(k + 1, m)
        np.add(nodes[:, :n, None], (_pattern_table(r) @ rows[depth:depth + r]).T[:, None, :],
               out=kids.reshape(k + 1, n, 1 << r))
        depth += r
        work = work_buf[:2 * k * m].reshape(2, k, m)
        bound = _completion_bound(kids[:k], plus[depth], minus[depth], work)
        live = bound >= cutoff
        if live.any():
            nodes = kids[:, live]
            if depth < stop:
                stack.append((depth, nodes))
            else:
                marks[nodes[k].astype(np.int64) >> l] = True
    for j in order[stop:]:
        if j >= l:
            halves = marks.reshape(-1, 2, 1 << (j - l))
            halves[:, 1] |= halves[:, 0]
    return np.flatnonzero(np.logical_or.reduceat(marks, np.arange(0, len(marks), per_block)))


def _exact_cut_norm(ay):
    """Enumerate s over {0,1}^k; t is the greedy sign pattern per column.

    Split-half enumeration, O(2^k k): pattern (hi << l) | lo selects row j
    for each set bit j, and its column sums s @ ay are high[:, hi] +
    low[:, lo], where low and high hold the column sums of every subset of
    the first l and the last k - l rows.  pos sums the positive column sums
    of a pattern and neg the negative ones, as pos minus the pattern total.

    The scan runs over blocks of per_block consecutive hi, in order; in
    each it tries pos's first maximum, then neg's, and a try wins only with
    a strictly larger value.  So pos wins a tie with neg in its block even
    where neg reaches the value at an earlier pattern, and the block size
    (_BLOCK_FLOATS) is part of the witness.  From _SCREEN_BLOCKS blocks on
    a branch and bound (_bound_screen) first picks the blocks that may hold
    a float64 maximum, and the float64 pass scans only those, in the same
    order with the same strict update.  A skipped block holds only
    patterns below the float64 maximum, so the winner, and with it the
    witness, is the one a scan of every block finds.  There an all-zero ay
    returns s = t = 0 at once, as that scan would: every pattern ties at 0,
    so no bound prunes one.
    """
    k = ay.shape[0]
    l = (k + 1) // 2
    n_low, n_high = 1 << l, 1 << (k - l)
    per_block = min(n_high, max(1, _BLOCK_FLOATS // (k * n_low)))
    blocks = range(math.ceil(n_high / per_block))
    if len(blocks) >= _SCREEN_BLOCKS:
        total_abs = float(np.abs(ay).sum())
        if total_abs == 0.0:
            return np.zeros(k), np.zeros(k)
        blocks = _bound_screen(ay, per_block, total_abs)
    best_val, best_idx, best_sign = -1.0, 0, 1.0
    for hi, pos, neg in _pattern_blocks(ay, per_block, blocks):
        ip, iq = int(pos.argmax()), int(neg.argmax())
        if pos[ip] > best_val:
            best_val, best_idx, best_sign = float(pos[ip]), hi * n_low + ip, 1.0
        if neg[iq] > best_val:
            best_val, best_idx, best_sign = float(neg[iq]), hi * n_low + iq, -1.0
    s = ((best_idx >> np.arange(k)) & 1).astype(float)
    cols = s @ ay
    t = (best_sign * cols > 0).astype(float)
    return s, t


def _alternating_max(s0, times, times_transpose):
    """Batched alternating 0/1 maximization of a bilinear form x K y on both signs.

    times(x) is x @ K and times_transpose(x) is x @ K^T, for a stack x of row
    vectors.  Each row of s0 is an independent start, run once on K and once on
    -K; a row steps only to a strictly larger value, so the loop ends and a
    power-of-two scale of K, exact in every compared value, keeps the witness.
    The two signs are the two halves of a (2, n, k) stack.  A product applies K
    to each half in its own call, as a single sign would, and then negates the
    second half; negation is exact, so it equals the product with -K bit for
    bit, without a copy of the kernel.  (One BLAS call on all 2n rows would
    not: BLAS may sum a row in another order when the number of rows changes.)
    For the same reason the column sums s_new @ K that score an iteration are
    bitwise those the next one would compute from its s, so they are kept, row
    by row, instead of recomputed, and the first product, where both halves are
    s0, is taken on one half and stacked with its negation.  Returns copies of
    the (s, t) of the larger of the best value of K and that of -K, K on a tie.
    """
    def product(f, x):
        out = f(x)
        out[1] *= -1.0
        return out

    s = np.stack((s0, s0)).astype(float)
    vals = np.full(s.shape[:2], -np.inf)
    first = times(s[:1])  # both signs start from s0
    cols = np.concatenate((first, -first))
    for _ in range(100):
        t = (cols > 0).astype(float)
        s_new = (product(times_transpose, t) > 0).astype(float)
        new_cols = product(times, s_new)
        new_vals = np.einsum("hri,hri->hr", new_cols, t)
        improved = new_vals > vals
        if not improved.any():
            break
        s = np.where(improved[..., None], s_new, s)
        cols = np.where(improved[..., None], new_cols, cols)
        vals = np.maximum(new_vals, vals)
    t = (cols > 0).astype(float)
    vals = np.einsum("hri,hri->hr", cols, t)
    best = vals.argmax(axis=1)
    h = int(vals[1, best[1]] > vals[0, best[0]])
    return s[h, best[h]].copy(), t[h, best[h]].copy()


def cut_norm(Y, mode="exact", seed=0):
    """Cut norm of a signed step kernel with a box witness.

    Exact mode enumerates 2^k sign patterns (k <= 24); heuristic mode runs
    seeded alternating maximization from HEURISTIC_RESTARTS starts on both
    signs of the kernel and always reports an achieved (hence
    lower-bounding) value.
    """
    Yp, idx = _support(Y)
    a = Yp.weights
    k = len(a)
    ay = a[:, None] * a[None, :]
    ay *= Yp.values  # in place: one (k, k) temporary fewer, same products
    if mode == "exact":
        if k > EXACT_BLOCK_CAP:
            raise TooManyBlocksForExact(
                f"{k} blocks exceeds the exact cap of {EXACT_BLOCK_CAP}")
        s, t = _exact_cut_norm(ay)
    elif mode == "heuristic":
        s, t = _alternating_max(_heuristic_starts(seed, HEURISTIC_RESTARTS, k),
                                lambda x: x @ ay, lambda x: x @ ay.T)
    else:
        raise ValueError(f"unknown cut-norm mode {mode!r}")
    value = float(abs(s @ ay @ t))
    full_s = np.zeros(Y.k, dtype=int)
    full_t = np.zeros(Y.k, dtype=int)
    full_s[idx] = s
    full_t[idx] = t
    return CutNormResult(value, full_s, full_t, mode)


def cut_norm_distance(U, W, C, mode="exact"):
    """Cut norm of U - W overlaid by the coupling C, in cut_norm's mode, seed 0.

    Past EXACT_BLOCK_CAP refined cells exact mode raises TooManyBlocksForExact,
    as cut_norm does; heuristic mode gives an achieved box sum, a lower bound
    on the cut norm under C.  With a shared partition and the diagonal coupling
    this is the plain cut norm distance on the common ground space.  U and W
    are graphons; a SignedStepKernel raises StepGraphonError.
    """
    if isinstance(U, SignedStepKernel) or isinstance(W, SignedStepKernel):
        raise StepGraphonError("cut_norm_distance takes two graphons, not a signed kernel")
    ru, rw = common_refinement(U, W, C)
    return cut_norm(SignedStepKernel(ru.weights, ru.values - rw.values), mode=mode).value


@functools.cache
def _highs_core():
    """scipy's HiGHS extension, scipy.optimize._highspy._core, without scipy.optimize.

    `import scipy` runs only the package's start-up, whose _distributor_init
    puts the DLLs of Windows wheels on the path.  A loaded extension is
    reused.  Otherwise the file is loaded alone and registered under its
    dotted name, where a later `import scipy.optimize` finds it.
    """
    import scipy

    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    directory = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    spec = importlib.machinery.FileFinder(directory, (
        importlib.machinery.ExtensionFileLoader,
        importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(
            f"no HiGHS extension _core in {directory}; stepgraphon needs scipy>=1.17", name=name)
    core = importlib.util.module_from_spec(spec)
    sys.modules[name] = core
    spec.loader.exec_module(core)
    return core


# plan shapes whose transport rows are kept; the 5,028 transport LPs of `cutdist` seeds
# 1, 2, 3 and 5 come in 6: 5x6 (3,832 of them), 8x64, 4x64, 16x64, 6x6 and 10x10
_TRANSPORT_SHAPES = 64
_solvers = threading.local()


def _thread_solver(core):
    """This thread's HiGHS solver and HiGHS's default primal feasibility tolerance.

    Built on the thread's first solve, with the options that
    scipy.optimize.linprog(method="highs") passes and linprog does not set
    per call: the dual simplex, no debug checks, no output.  The solver is
    the only state a thread keeps: linprog sets presolve and the tolerance
    and passes a whole model on every call.
    """
    try:
        return _solvers.solver
    except AttributeError:
        pass
    options = core.HighsOptions()
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = options.output_flag = False
    highs = core._Highs()
    if highs.passOptions(options) == core.HighsStatus.kError:
        raise SolverFailure("HiGHS refused the options of scipy's linprog")
    _solvers.solver = highs, options.primal_feasibility_tolerance
    return _solvers.solver


def _rowwise(dense):
    """HiGHS's row-wise (start, index, value) arrays of the nonzeros of a dense matrix."""
    rows, cols = np.nonzero(dense)
    start = np.searchsorted(rows, np.arange(len(dense) + 1)).astype(np.int32)
    return start, cols.astype(np.int32), dense[rows, cols]


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


class _TransportRows:
    """_marginal_rows(n, m) in row-wise form, which linprog takes for A_eq.

    shape is the dense shape; start, index and value are the read-only
    arrays linprog hands HiGHS, so every thread can share one object per
    shape (_transport_rows).  presolve is the HiGHS setting its LPs are
    solved with: "off" when both sides have at least 3 cells, where presolve
    removes nothing and leaves every bit of x as it was, and "on" otherwise,
    where it eliminates the singleton and doubleton rows of a 1- or 2-cell
    side and HiGHS then reaches another optimal vertex without it.
    """

    def __init__(self, n, m):
        dense = _marginal_rows(n, m)
        self.shape = dense.shape
        self.start, self.index, self.value = map(_freeze, _rowwise(dense))
        self.presolve = "off" if min(n, m) >= 3 else "on"


@functools.lru_cache(maxsize=_TRANSPORT_SHAPES)
def _transport_rows(n, m):
    """The _TransportRows of an n x m plan, one object per shape while cached."""
    return _TransportRows(n, m)


def linprog(c, A_eq, b_eq, primal_feasibility_tolerance=None):
    """Solve min c.x subject to A_eq x = b_eq, x >= 0 on scipy's bundled HiGHS.

    A_eq is a dense matrix, or the transport rows _TransportRows.  HiGHS
    gets the model and options that scipy.optimize.linprog(method="highs")
    gives it: A_eq without its zeros (row-wise here; HiGHS makes the
    column-wise copy scipy passes), presolve on, the dual simplex, no
    output.  So x is the same bits, without the wrapper's input cleaning,
    option checks and bound-marginal loop, which cost more than the solve.
    The one exception is presolve on transport rows with at least 3 cells
    on both sides: it is off there, as it removes nothing from those LPs and
    x keeps scipy's bits without it (_TransportRows).  Returns x for an
    optimum, and None where scipy reports status 2: HiGHS finds the model
    infeasible or refuses it.  Every other end raises SolverFailure: a
    refused option, an optimum with a NaN, an entry below -LP_RESIDUAL_TOL
    or an equality residual above it (where scipy reports status 4), and
    any other model status, such as unbounded or a time or iteration limit.

    HiGHS rejects a primal_feasibility_tolerance below HIGHS_TOL_FLOOR,
    printing its own error line although output is off, so such a
    tolerance raises StepGraphonError before HiGHS is reached.

    The first solve loads scipy's package start-up and its HiGHS extension
    alone (_highs_core), never scipy.optimize, whose import costs most of a
    process start.  Each thread solves on its own HiGHS solver, built once.
    A call sets presolve and the tolerance (HiGHS's default when None), then
    hands the solver the whole model as plain arrays in one passModel call:
    the row-wise matrix (_rowwise of a dense A_eq, or the shared arrays of
    the transport rows), the costs, x >= 0, and b_eq as both row bounds.
    HiGHS copies them, so nothing carries over from the last solve.
    measures binds this same function.
    """
    if primal_feasibility_tolerance is not None and not (
            primal_feasibility_tolerance >= HIGHS_TOL_FLOOR):
        raise StepGraphonError(
            f"primal feasibility tolerance {primal_feasibility_tolerance!r} is below "
            f"HiGHS's floor {HIGHS_TOL_FLOOR!r}")
    core = _highs_core()
    highs, default_tol = _thread_solver(core)
    tol = default_tol if primal_feasibility_tolerance is None else primal_feasibility_tolerance
    if isinstance(A_eq, _TransportRows):
        (start, index, value), presolve = (A_eq.start, A_eq.index, A_eq.value), A_eq.presolve
    else:
        (start, index, value), presolve = _rowwise(A_eq), "on"
    error = core.HighsStatus.kError
    for name, option in (("presolve", presolve), ("primal_feasibility_tolerance", float(tol))):
        if highs.setOptionValue(name, option) == error:
            raise SolverFailure(f"HiGHS refused {name} {option!r}")

    num_row, num_col = A_eq.shape
    if highs.passModel(num_col, num_row, len(value), int(core.MatrixFormat.kRowwise),
                       int(core.ObjSense.kMinimize), 0.0, c, np.zeros(num_col),
                       np.full(num_col, core.kHighsInf), b_eq, b_eq, start, index, value,
                       np.zeros(num_col, np.int32)) == error:
        model_status = core.HighsModelStatus.kModelError
    else:
        solved = highs.run() != error
        model_status = highs.getModelStatus()
        if solved and model_status == core.HighsModelStatus.kOptimal:
            solution = highs.getSolution()
            x = np.array(solution.col_value)
            residual = b_eq - np.array(solution.row_value)
            held = (not np.isnan(highs.getObjectiveValue())
                    and (x >= -LP_RESIDUAL_TOL).all()
                    and (np.abs(residual) <= LP_RESIDUAL_TOL).all())
            if not held:
                raise SolverFailure(
                    f"the optimum misses its constraints by more than {LP_RESIDUAL_TOL:.2e}")
            return x
    if model_status in (core.HighsModelStatus.kInfeasible, core.HighsModelStatus.kModelError):
        return None
    raise SolverFailure(f"HiGHS model status {highs.modelStatusToString(model_status)}")


def _min_cost_transport(cost, row, col):
    """Exact linear-programming solve of the transportation problem."""
    n, m = cost.shape
    x = linprog(cost.ravel(), _transport_rows(n, m), np.concatenate((row, col[:-1])))
    if x is None:
        raise SolverFailure("the transport LP is infeasible")
    return np.clip(x.reshape(n, m), 0.0, None)


def _witness_gradient(U, W, cmat, s, t):
    """Gradient of the box integral of the witness (s, t) as a function of the coupling.

    The witness lives on core._coupling_cells of cmat, in their order.
    """
    ku, kw = cmat.shape
    s_grid = np.zeros((ku, kw))
    t_grid = np.zeros((ku, kw))
    ii, jj, _ = _coupling_cells(cmat)
    s_grid[ii, jj] = s
    t_grid[ii, jj] = t
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
SEARCH_TOL = 1e-9
SEARCH_RESTARTS = 8
SUPPORT_CAP = 4096


def _factored_cut_norm(U, W, ii, jj, a, seed):
    """Heuristic cut norm of U - W on coupling cells, without building the refinement.

    On the n cells p = (ii[p], jj[p]) of a coupling, with masses a, from
    core._coupling_cells, the difference kernel is L D L^T: L (n, k_U + k_W)
    holds a[p] at (p, ii[p]) and (p, k_U + jj[p]), and D =
    blockdiag(U.values, -W.values).  So a product x @ (L D L^T) is two
    products through k_U + k_W columns, and, the kernel being symmetric, it
    serves both sides of the bilinear form.  The alternating heuristic runs
    on it with cut_norm's loop and starts, SEARCH_RESTARTS of them.  The
    value is |(s L) D (t L)^T|, the witness's box integral, so a lower bound.
    Returns (value, s, t), the witness on those cells, in their order.
    """
    n, ku = len(a), U.k
    ell = np.zeros((n, ku + W.k))
    ell[np.arange(n), ii] = a
    ell[np.arange(n), ku + jj] = a
    ell_d = np.concatenate((U.values[ii], -W.values[jj]), axis=1)
    ell_d *= a[:, None]

    def times(x):
        return (x @ ell_d) @ ell.T

    s, t = _alternating_max(_heuristic_starts(seed, SEARCH_RESTARTS, n), times, times)
    return float(abs(s @ ell_d @ (t @ ell))), s, t


def _cells_exact(U, W, ii, jj, a):
    """Exact cut norm of a a^T (U[ii][:, ii] - W[jj][:, jj]) on coupling cells.

    Returns (value, s, t), bitwise cut_norm's value and witness on the
    refinement; the cells and masses are core._coupling_cells's.
    """
    ay = np.outer(a, a) * (U.values[ii][:, ii] - W.values[jj][:, jj])
    s, t = _exact_cut_norm(ay)
    return float(abs(s @ ay @ t)), s, t


def _search_eval(U, W, cmat, seed, memo):
    """Score (value, s, t) of U - W under the coupling matrix cmat, memoized by cmat's bytes.

    cmat is unchecked (_search_plan checks the LP plans; the rest are exact
    starts or convex combinations).  Up to SEARCH_EXACT_CAP cells the score
    is _cells_exact's, past that _factored_cut_norm's heuristic; s and t are
    the witness on core._coupling_cells of cmat.
    """
    key = ("eval", cmat.tobytes())
    if key not in memo:
        ii, jj, a = _coupling_cells(cmat)
        if len(a) <= SEARCH_EXACT_CAP:
            memo[key] = _cells_exact(U, W, ii, jj, a)
        else:
            memo[key] = _factored_cut_norm(U, W, ii, jj, a, seed)
    return memo[key]


def _search_plan(U, W, grad, memo):
    """Transport plan minimizing <grad, C>, memoized by grad's bytes.

    A failed LP is memoized as None, which ends the search.  A plan is
    memoized after Coupling's checks, as linprog allows residuals above MATCH_TOL.
    """
    key = ("plan", grad.tobytes())
    if key not in memo:
        try:
            plan = _min_cost_transport(grad, U.weights, W.weights)
            memo[key] = Coupling(plan, U.weights, W.weights).matrix
        except SolverFailure:
            memo[key] = None
    return memo[key]


def _local_search(U, W, c0, max_iters, seed, memo):
    """Frank-Wolfe-style descent from c0; returns (score, coupling matrix).

    A step is the first of the line search toward the transport plan on the
    witness's gradient that lowers the score by more than SEARCH_TOL.
    memo caches both steps, which are pure in (U, W, seed) and the array
    they are given; share one dict only between searches on the same pair
    and seed, and a hit returns what the step would have computed.
    """
    cmat = c0
    val, s, t = _search_eval(U, W, cmat, seed, memo)
    for _ in range(max_iters):
        c_star = _search_plan(U, W, _witness_gradient(U, W, cmat, s, t), memo)
        if c_star is None:
            break
        for gamma in (1.0, 0.5, 0.25, 0.1):
            cand = (1.0 - gamma) * cmat + gamma * c_star
            if np.count_nonzero(cand > 0) > SUPPORT_CAP:
                continue
            score = _search_eval(U, W, cand, seed, memo)
            if score[0] < val - SEARCH_TOL:
                cmat, (val, s, t) = cand, score
                break
        else:
            break
    return val, cmat


def _perm_sweep(u, w):
    """Exact minimum of the cut norm over cell permutations (equal masses).

    u and w are the value grids of two kernels on k equal cells.  For each
    permutation p the difference kernel is (u - w[p][:, p]) / k^2,
    and its cut norm is the exact scan's maximum of pos and neg over every
    pattern: one _pattern_blocks call per chunk of permutations, on the
    split-half column sums of the whole chunk, in one block of every hi.
    The sweep costs O(k! 2^k k), and a chunk's work buffer holds about
    _BLOCK_FLOATS values.  The first minimum in permutation order wins.
    """
    k = len(u)
    perms = np.array(list(itertools.permutations(range(k))), dtype=int)
    scale = 1.0 / (k * k)
    best_val, best_perm = np.inf, None
    chunk = max(1, _BLOCK_FLOATS // (k << k))
    for base in range(0, len(perms), chunk):
        p = perms[base:base + chunk]
        d = (u - w[p[:, :, None], p[:, None, :]]) * scale
        _, pos, neg = next(_pattern_blocks(d, 1 << (k // 2), [0]))
        vals = np.maximum(pos.max(axis=-1), neg.max(axis=-1))
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_perm = perms[base + i]
    return best_val, best_perm


def _canonical_key(G):
    return (G.k, tuple(G.weights.tolist()), tuple(G.values.ravel().tolist()))


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
    """DEFAULT_BUDGET updated by budget, a mapping or None, or StepGraphonError if it is bad."""
    cfg = dict(DEFAULT_BUDGET)
    budget = {} if budget is None else budget
    if not isinstance(budget, collections.abc.Mapping):
        raise StepGraphonError(f"budget must be a mapping, got {type(budget).__name__}")
    for key, value in budget.items():
        if key not in DEFAULT_BUDGET:
            raise StepGraphonError(f"budget key {key!r} is not one of {sorted(DEFAULT_BUDGET)}")
        if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= 0):
            raise StepGraphonError(f"budget {key} must be an integer >= 0, got {value!r}")
        cfg[key] = value
    return cfg


def cut_distance(U, W, budget=None, seed=0):
    """Upper bound on the rearrangement cut distance, with the best coupling.

    Runs deterministic starts (corner rule, product) plus seeded random
    corner-rule vertices through an alternating local search, and a
    permutation sweep when both sides refine to at most 8 equal-mass cells
    and neither has a single cell (one cell leaves one coupling, the
    product, and it is a start).  A start's winner replaces the incumbent
    only when lower, by its exact cut norm past SEARCH_EXACT_CAP and up to
    EXACT_BLOCK_CAP cells: its heuristic score, a lower bound, could displace
    a better coupling, and a score that ties the incumbent can round above
    its exact value.  The sweep is exact over cell permutations only: its
    minimum is the permutation distance delta-hat of the two grids, an upper
    bound on the cut distance, and a fractional coupling from the search can
    be lower.  Only a value of 0 is claimed exact.  When the pruned sides are bitwise
    equal up to a cell permutation, found by matching their canonical cell
    orders, that permutation's coupling is the first start; its difference
    kernel is exactly 0, so the value is exactly 0.0 at any number of cells.
    The search stops at the first start that reaches 0 and then skips the
    sweep: no later value can be lower.  Starts often converge onto the same
    couplings, so the search memoizes its cut norms and transport LPs for the
    length of the call; a memo hit returns exactly what recomputing would, so
    results do not depend on it.  Restarts whose corner starts would hold
    more than core.ARRAY_CAP values raise StepGraphonError before any is built.
    The search scores a coupling by the exact cut norm of its difference
    kernel up to SEARCH_EXACT_CAP cells, past that by a heuristic lower bound
    (_factored_cut_norm).  The returned value is the exact cut norm under the
    returned coupling when it has at most EXACT_BLOCK_CAP cells, and past that
    the search's score, which can be below it.  A SignedStepKernel raises
    StepGraphonError.
    """
    if isinstance(U, SignedStepKernel) or isinstance(W, SignedStepKernel):
        raise StepGraphonError("cut_distance takes two graphons, not a signed kernel")
    cfg = _search_budget(budget)
    swap = _canonical_key(U) > _canonical_key(W)
    A, B = (W, U) if swap else (U, W)
    Ap, idx_a = _support(A)
    Bp, idx_b = _support(B)
    a, b = Ap.weights, Bp.weights

    _check_stack(cfg["restarts"] + 1, len(a), len(b), "corner starts")
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
    if iso is not None:
        # its difference kernel is exactly 0, and this is its exact cut norm;
        # factored products, which sum U and W apart, would round
        memo[("eval", iso.tobytes())] = (0.0, np.zeros(Ap.k), np.zeros(Ap.k))
    for c0 in starts:
        val, cmat = _local_search(Ap, Bp, c0, cfg["max_iters"], seed, memo)
        if val <= best_val:  # a score is a lower bound up to rounding: a tie can be lower too
            ii, jj, mass = _coupling_cells(cmat)
            if SEARCH_EXACT_CAP < len(mass) <= EXACT_BLOCK_CAP:
                val = _cells_exact(Ap, Bp, ii, jj, mass)[0]
        if val < best_val:
            best_val, best_c = val, cmat
        if best_val == 0.0:
            break

    equal_a = np.abs(a - a[0]).max() <= WEIGHT_TOL
    equal_b = np.abs(b - b[0]).max() <= WEIGHT_TOL
    common = math.lcm(Ap.k, Bp.k) if equal_a and equal_b else None
    if (best_val > 0.0 and min(Ap.k, Bp.k) > 1
            and common is not None and common <= SWEEP_BLOCK_CAP):
        ca, cb = _grid_cells(a, common), _grid_cells(b, common)
        val, perm = _perm_sweep(Ap.values[np.ix_(ca, ca)], Bp.values[np.ix_(cb, cb)])
        if val < best_val:
            best_val = val
            best_c = np.zeros((Ap.k, Bp.k))
            np.add.at(best_c, (ca, cb[perm]), 1.0 / common)

    full = np.zeros((A.k, B.k))
    full[np.ix_(idx_a, idx_b)] = best_c
    coupling = Coupling(full, A.weights, B.weights)
    if np.count_nonzero(full > 0) <= EXACT_BLOCK_CAP:  # before the transpose: the search's cells
        best_val = cut_norm_distance(A, B, coupling, mode="exact")
    if swap:
        coupling = coupling.transpose()
    return float(best_val), coupling


def rectangle_signature(W, depth):
    """Exact integrals of W over all depth-D dyadic rectangles (M x M)."""
    r = _dyadic_overlaps(W.cumulative(), depth)
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
    buffer the size of points_b that every row reuses, in row blocks of at
    most ARRAY_CAP distances (one row if a row is longer).  Each block
    keeps its row minima and folds its column minima into a running
    minimum; min and max are exact, so the block size leaves the value.
    """
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("hausdorff distance needs nonempty sets")
    rows = max(1, ARRAY_CAP // len(b))
    diff = np.empty_like(b)
    row_min, col_min = np.empty(len(a)), np.full(len(b), np.inf)
    for lo in range(0, len(a), rows):
        d = np.empty((min(rows, len(a) - lo), len(b)))
        for i, out in enumerate(d, lo):
            np.abs(np.subtract(b, a[i], out=diff), out=diff)
            np.matmul(diff, weights, out=out)
        row_min[lo:lo + len(d)] = d.min(axis=1)
        np.minimum(col_min, d.min(axis=0), out=col_min)
    return float(max(row_min.max(), col_min.max()))
