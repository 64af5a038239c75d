"""Step-kernel types, partitions, couplings and block-level operations.

A step graphon is stored as a vector of block masses (summing to 1) plus a
symmetric matrix of block values; block i occupies the interval
[cum_i, cum_{i+1}) of [0,1], so the list order fixes the geometry.  This
module alone computes that layout: the breakpoints (_cumulative), interval
overlaps (_overlaps), the block holding a point (_locate), the blocks that
carry mass (_support), the overlay of two kernels (overlap_coupling) and the
dyadic interval family (dyadic_intervals).  It also decides when two mass
vectors match (_mismatch, within MATCH_TOL).  All operations are pure;
arrays are frozen after construction.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AsymmetricValues,
    MarginalMismatch,
    PartitionMismatch,
    ResolutionIncompatible,
    ValueOutOfRange,
    WeightsNotNormalized,
)

WEIGHT_TOL = 1e-12
MATCH_TOL = 1e-9


def _validate_weights(w):
    if w.ndim != 1 or len(w) == 0:
        raise WeightsNotNormalized("weights must be a nonempty vector")
    bad = np.flatnonzero(~np.isfinite(w) | (w < 0.0))
    if len(bad):
        i = int(bad[0])
        raise WeightsNotNormalized(f"weight {float(w[i])!r} at index {i} is not a valid mass",
                                   index=i)
    s = float(w.sum())
    if abs(s - 1.0) > WEIGHT_TOL:
        raise WeightsNotNormalized(f"weights sum to {s!r}, expected 1 within {WEIGHT_TOL}")


def _validate_symmetric(v, k, lo, hi):
    if v.shape != (k, k):
        raise WeightsNotNormalized(
            f"value matrix shape {v.shape} does not match {k} blocks")
    bad = (v < lo) | (v > hi) | ~np.isfinite(v)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueOutOfRange(int(i), int(j), v[i, j], lo, hi)
    if not (v == v.T).all():
        i, j = np.argwhere(v != v.T)[0]
        raise AsymmetricValues(int(i), int(j), v[i, j], v[j, i])


def _freeze(a):
    a.setflags(write=False)
    return a


def _derived(cls, weights, values):
    """A cls kernel on arrays that pass its checks by construction.

    Freezes weights and values as given, without __init__'s copy and checks.
    Only for kernels derived from validated ones, such as the refinements
    inside the cut-distance search; public constructors and readers validate.
    """
    G = cls.__new__(cls)
    G.weights = _freeze(weights)
    G.values = _freeze(values)
    return G


def _mismatch(x, y):
    """Whether x and y differ in shape or by more than MATCH_TOL somewhere.

    Written as a negated <=, so a NaN on either side is a mismatch.
    """
    return np.shape(x) != np.shape(y) or not (np.abs(x - y).max(initial=0.0) <= MATCH_TOL)


def _nonnegative(r):
    """r clipped at 0 after raising PartitionMismatch below -MATCH_TOL.

    r is one assignment or a stack of them; the message names the first
    offending entry by its (block, part) position.
    """
    bad = r < -MATCH_TOL
    if bad.any():
        idx = tuple(np.argwhere(bad)[0])
        raise PartitionMismatch(f"negative mass {float(r[idx])!r} at ({idx[-2]}, {idx[-1]})")
    return np.clip(r, 0.0, None)


def _require_source(r, weights):
    """PartitionSpec.require_source for one assignment or a stack of them."""
    n = r.shape[-2]
    if n != len(weights):
        raise PartitionMismatch(
            f"partition has {n} source blocks, graphon has {len(weights)}")
    rows = r.sum(axis=-1)
    if _mismatch(rows, np.broadcast_to(weights, rows.shape)):
        raise PartitionMismatch("partition row sums do not match block weights")


def _cumulative(weights):
    """Breakpoints of consecutive blocks: block i occupies [cum[i], cum[i+1])."""
    cum = np.concatenate(([0.0], np.cumsum(weights)))
    cum[-1] = 1.0
    return cum


def _overlaps(cum, lo, hi):
    """Lengths of [lo, hi) within each block of the breakpoints cum.

    lo and hi are scalars or equal-shape arrays of interval ends; the result
    has one trailing axis of length len(cum) - 1 over the blocks.
    """
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    return np.clip(np.minimum(hi, cum[1:]) - np.maximum(lo, cum[:-1]), 0.0, None)


def _locate(cum, x):
    """Index of the block of the breakpoints cum holding each x.

    Blocks are right-open; x = 1 (and anything past it) maps to the last
    block, anything below 0 to the first.  x is a scalar or an array.
    """
    return np.clip(np.searchsorted(cum, x, side="right") - 1, 0, len(cum) - 2)


def _support(G):
    """G without its zero-weight blocks, and the indices of the kept blocks.

    The kept blocks keep their weights and values bit for bit; G itself
    comes back when every weight is positive.
    """
    keep = G.weights > 0
    idx = np.flatnonzero(keep)
    if keep.all():
        return G, idx
    return type(G)(G.weights[idx], G.values[np.ix_(idx, idx)]), idx


def dyadic_intervals(depth):
    """Breadth-first dyadic intervals of [0,1], levels 0..depth, 1-indexed."""
    out = []
    for level in range(depth + 1):
        n = 1 << level
        out.extend((i / n, (i + 1) / n) for i in range(n))
    return out


class StepGraphon:
    """Symmetric step kernel with block masses summing to 1 and values in [0,1].

    Zero-weight blocks are retained; every operation ignores them.
    """

    lo, hi = 0.0, 1.0

    def __init__(self, weights, values):
        w = np.array(weights, dtype=float)
        v = np.array(values, dtype=float)
        _validate_weights(w)
        _validate_symmetric(v, len(w), self.lo, self.hi)
        self.weights = _freeze(w)
        self.values = _freeze(v)

    @property
    def k(self):
        return len(self.weights)

    def cumulative(self):
        """Breakpoints: block i occupies [cum[i], cum[i+1])."""
        return _cumulative(self.weights)

    def to_dict(self):
        return {"weights": self.weights.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, d):
        """Read `to_dict` output; a `"signed"` flag reads as SignedStepKernel.

        SignedStepKernel.from_dict reads a file with or without the flag.
        """
        if d.get("signed"):
            cls = SignedStepKernel
        return cls(d["weights"], d["values"])

    def __repr__(self):
        return f"StepGraphon(k={self.k}, density={edge_density(self):.6g})"


class SignedStepKernel(StepGraphon):
    """Same layout as StepGraphon with values in [-1, 1]; holds differences."""

    lo, hi = -1.0, 1.0

    def to_dict(self):
        d = super().to_dict()
        d["signed"] = True
        return d

    def __repr__(self):
        return f"SignedStepKernel(k={self.k})"


class StepFunction1D:
    """Piecewise-constant function on [0,1] with values in [0,1]."""

    def __init__(self, breakpoints, values):
        bp = np.array(breakpoints, dtype=float)
        vals = np.array(values, dtype=float)
        if bp.ndim != 1 or len(bp) < 2 or len(vals) != len(bp) - 1:
            raise WeightsNotNormalized("breakpoints/values lengths are inconsistent")
        if abs(bp[0]) > WEIGHT_TOL or abs(bp[-1] - 1.0) > WEIGHT_TOL:
            raise WeightsNotNormalized("breakpoints must start at 0 and end at 1")
        if not (np.diff(bp) > 0).all():
            raise WeightsNotNormalized("breakpoints must be strictly increasing")
        bad = np.flatnonzero((vals < 0) | (vals > 1) | ~np.isfinite(vals))
        if len(bad):
            i = int(bad[0])
            raise ValueOutOfRange(i, i, vals[i], 0.0, 1.0)
        bp[0], bp[-1] = 0.0, 1.0
        self.breakpoints = _freeze(bp)
        self.values = _freeze(vals)

    def __call__(self, x):
        return self.values[_locate(self.breakpoints, np.asarray(x, dtype=float))]

    def prefix_integral(self, x):
        """Exact integral of the function over [0, x]."""
        x = np.asarray(x, dtype=float)
        lo = self.breakpoints[:-1]
        hi = self.breakpoints[1:]
        seg = np.clip(x[..., None], lo, hi) - lo
        return (seg * self.values).sum(axis=-1)

    def integral(self):
        return float((np.diff(self.breakpoints) * self.values).sum())

    def to_dict(self):
        return {"breakpoints": self.breakpoints.tolist(), "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(d["breakpoints"], d["values"])

    @classmethod
    def constant(cls, c):
        return cls([0.0, 1.0], [c])

    @classmethod
    def indicator(cls, intervals):
        """Indicator of a union of disjoint intervals of [0,1]."""
        pts = {0.0, 1.0}
        for a, b in intervals:
            pts.add(float(a))
            pts.add(float(b))
        bp = sorted(pts)
        vals = []
        for a, b in zip(bp[:-1], bp[1:]):
            mid = 0.5 * (a + b)
            vals.append(1.0 if any(lo <= mid < hi for lo, hi in intervals) else 0.0)
        return cls(bp, vals)


class PartitionSpec:
    """Fractional assignment of source block mass onto ordered target parts.

    assignment[i, l] is the mass of source block i placed into part l, so row
    sums recover the source weights and column sums the target part masses.
    """

    def __init__(self, assignment):
        r = np.array(assignment, dtype=float)
        if r.ndim != 2 or r.size == 0:
            raise PartitionMismatch("assignment must be a nonempty 2-d matrix")
        self.assignment = _freeze(_nonnegative(r))

    @property
    def source_weights(self):
        return self.assignment.sum(axis=1)

    @property
    def target_masses(self):
        return self.assignment.sum(axis=0)

    def require_source(self, weights):
        """Raise PartitionMismatch unless the row sums are these block weights."""
        _require_source(self.assignment, weights)

    def to_dict(self):
        return {"assignment": self.assignment.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(d["assignment"])

    @classmethod
    def identity(cls, weights):
        w = np.asarray(weights, dtype=float)
        return cls(np.diag(w))

    @classmethod
    def merge_all(cls, weights):
        w = np.asarray(weights, dtype=float)
        return cls(w.reshape(-1, 1))

    @classmethod
    def from_intervals(cls, weights, targets):
        """Assignment by interval overlap of blocks with target intervals."""
        cum = _cumulative(np.asarray(weights, dtype=float))
        lo = [x for x, _ in targets]
        hi = [y for _, y in targets]
        return cls(np.ascontiguousarray(_overlaps(cum, lo, hi).T))

    @classmethod
    def dyadic(cls, weights, depth):
        """Overlap assignment onto the 2**depth dyadic cells of [0,1]."""
        return cls.from_intervals(weights, dyadic_intervals(depth)[(1 << depth) - 1:])


class Coupling:
    """Nonnegative matrix with prescribed row and column sums."""

    def __init__(self, matrix, row_marginal=None, col_marginal=None):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise MarginalMismatch("coupling must be a nonempty 2-d matrix")
        if (m < -MATCH_TOL).any():
            raise MarginalMismatch("coupling has negative entries")
        m = np.clip(m, 0.0, None)
        row = m.sum(axis=1) if row_marginal is None else np.asarray(row_marginal, float)
        col = m.sum(axis=0) if col_marginal is None else np.asarray(col_marginal, float)
        if _mismatch(m.sum(axis=1), row):
            raise MarginalMismatch("row sums do not match the row marginal")
        if _mismatch(m.sum(axis=0), col):
            raise MarginalMismatch("column sums do not match the column marginal")
        self.matrix = _freeze(m)
        self.row_marginal = _freeze(np.array(row, dtype=float))
        self.col_marginal = _freeze(np.array(col, dtype=float))

    def require_marginals(self, row, col):
        if len(self.row_marginal) != len(row) or len(self.col_marginal) != len(col):
            raise MarginalMismatch("coupling shape does not match the mass vectors")
        if _mismatch(self.row_marginal, row):
            raise MarginalMismatch("coupling row marginal does not match")
        if _mismatch(self.col_marginal, col):
            raise MarginalMismatch("coupling column marginal does not match")

    def transpose(self):
        return Coupling(self.matrix.T, self.col_marginal, self.row_marginal)

    def to_dict(self):
        return {
            "matrix": self.matrix.tolist(),
            "row_marginal": self.row_marginal.tolist(),
            "col_marginal": self.col_marginal.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["matrix"], d.get("row_marginal"), d.get("col_marginal"))

    @classmethod
    def diagonal(cls, weights):
        w = np.asarray(weights, dtype=float)
        return cls(np.diag(w), w, w)

    @classmethod
    def product(cls, row, col):
        r = np.asarray(row, dtype=float)
        c = np.asarray(col, dtype=float)
        return cls(np.outer(r, c) / max(r.sum(), 1e-300), r, c)


def corner_rule(row, col, row_orders, col_orders):
    """Corner-rule vertices of the transport polytope, one per pair of orders.

    row_orders is (n, len(row)) and col_orders (n, len(col)); lane p visits
    rows in row_orders[p] and columns in col_orders[p], and the result is
    (n, len(row), len(col)).  Vertices have at most len(row) + len(col) - 1
    nonzero cells, which keeps the induced refinements small.  All lanes
    walk in lockstep, at most len(row) + len(col) - 1 steps over the live
    lanes.  Each step is the IEEE min (as Python's min(r, c), signed zeros
    included), subtraction and comparison of the one-lane walk, so every
    lane equals it bit for bit.
    """
    row = np.asarray(row, dtype=float)
    col = np.asarray(col, dtype=float)
    k, q = len(row), len(col)
    row_orders = np.asarray(row_orders, dtype=np.intp)
    col_orders = np.asarray(col_orders, dtype=np.intp)
    n = len(row_orders)
    r = np.tile(row, n)
    c = np.tile(col, n)
    m = np.zeros(n * k * q)
    live = np.arange(n)
    ri = np.zeros(n, dtype=np.intp)
    ci = np.zeros(n, dtype=np.intp)
    while len(live):
        i = live * k + row_orders[live, ri]
        jl = col_orders[live, ci]
        j = live * q + jl
        rv, cv = r[i], c[j]
        t = np.where(cv < rv, cv, rv)
        m[i * q + jl] = t
        rv -= t
        cv -= t
        r[i], c[j] = rv, cv
        step = rv <= cv
        ri += step
        ci += ~step
        going = (ri < k) & (ci < q)
        live, ri, ci = live[going], ri[going], ci[going]
    return m.reshape(n, k, q)


def edge_density(W):
    """Total integral of the kernel over the unit square."""
    a = W.weights
    return float(a @ W.values @ a)


def degree_function(W):
    """Row integrals as a step function; zero-weight blocks are dropped."""
    degrees = W.values @ W.weights
    keep = W.weights > 0
    return StepFunction1D(_cumulative(W.weights[keep]), np.clip(degrees[keep], 0.0, 1.0))


def int_f(W, f):
    """Integral of f(W(x,y)) over the square, for any scalar f on [0,1]."""
    a = W.weights
    fv = np.vectorize(f, otypes=[float])(W.values)
    return float(a @ fv @ a)


def stepping(W, P):
    """Blockwise averaging of W over the partition P (zero parts get value 0)."""
    P.require_source(W.weights)
    r = P.assignment
    b = P.target_masses
    m = r.T @ W.values @ r
    m = 0.5 * (m + m.T)  # + commutes exactly, so m and m / outer(b, b) are bitwise symmetric
    denom = np.outer(b, b)
    vals = np.divide(m, denom, out=np.zeros_like(m), where=denom > 0)
    return StepGraphon(b / b.sum(), np.clip(vals, 0.0, 1.0))


def common_refinement(U, W, C):
    """Overlay two graphons on the refinement indexed by coupling cells.

    Cells (i, j) with C[i, j] > 0 are laid out row-major, so the first output
    is a plain refinement of U while the second is a rearranged refinement of
    W carried onto U's geometry.  Both outputs are index gathers of the
    validated symmetric values, on the positive coupling cells divided by
    their sum, so they are built without re-running the checks.
    """
    if not isinstance(C, Coupling):
        raise MarginalMismatch("expected a Coupling")
    C.require_marginals(U.weights, W.weights)
    ii, jj = np.nonzero(C.matrix > 0)
    w_cells = C.matrix[ii, jj]
    Uv = U.values[np.ix_(ii, ii)]
    Wv = W.values[np.ix_(jj, jj)]
    w_cells = w_cells / w_cells.sum()
    return _derived(type(U), w_cells, Uv), _derived(type(W), w_cells, Wv)


def overlap_coupling(U, W):
    """Coupling by interval overlap of the two block structures (no shuffle)."""
    cu = U.cumulative()
    return Coupling(_overlaps(W.cumulative(), cu[:-1], cu[1:]), U.weights, W.weights)


def l1_distance(U, W):
    """Exact L1 distance of two step kernels on the shared ground space."""
    ru, rw = common_refinement(U, W, overlap_coupling(U, W))
    a = ru.weights
    return float(a @ np.abs(ru.values - rw.values) @ a)


def rectangle_integral(W, xint, yint):
    """Exact integral of W over an axis-aligned rectangle of the square."""
    cum = W.cumulative()
    return float(_overlaps(cum, *xint) @ W.values @ _overlaps(cum, *yint))


def _grid_cells(weights, n):
    """Map of each of n equal cells to its source block, or raise."""
    counts_f = np.asarray(weights, dtype=float) * n
    counts = np.rint(counts_f).astype(int)
    if np.abs(counts_f - counts).max() > MATCH_TOL or counts.sum() != n:
        raise ResolutionIncompatible(
            f"weights are not multiples of 1/{n} within tolerance")
    return np.repeat(np.arange(len(counts)), counts)


def grid_version(W, n, perm=None):
    """Refine W to n equal cells and permute the cells.

    The result has value W(perm[c], perm[d]) on cell pair (c, d); it is a
    measure-preserving rearrangement, so the multiset of cell values (and
    every rearrangement-invariant functional) is unchanged.
    """
    cell_block = _grid_cells(W.weights, n)
    if perm is None:
        perm = np.arange(n)
    perm = np.asarray(perm, dtype=int)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ResolutionIncompatible(f"perm is not a permutation of {n} cells")
    src = cell_block[perm]
    vals = W.values[np.ix_(src, src)]
    return type(W)(np.full(n, 1.0 / n), vals)


def _rank(keys):
    lookup = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [lookup[k] for k in keys]


def _canonical_cell_order(weights, values):
    """Deterministic cell ordering by iterated neighborhood refinement.

    Each cell starts from the color (weight, sorted row), and colors are
    refined by (own color, multiset of (neighbor color, value)).  Cells of
    cell-permuted copies carry bitwise-identical weights and values, so
    both copies get the same class ordering.  Classes that survive
    refinement are treated as interchangeable; for value-homogeneous
    classes (constants, generic random kernels) any within-class order
    yields the same reordered kernel.  Regular kernels are not resolved:
    the two-block kernel on 16 cells stays one class with values 0 and 1,
    so two of its rearrangements can reorder to different kernels, and
    callers must compare the reordered kernels.
    """
    rows = [tuple(row) for row in values.tolist()]
    n = len(rows)
    colors = _rank([(w, tuple(sorted(row))) for w, row in zip(weights.tolist(), rows)])
    for _ in range(n):
        keys = [(colors[c], tuple(sorted(zip(colors, rows[c])))) for c in range(n)]
        new_colors = _rank(keys)
        stable = len(set(new_colors)) == len(set(colors))
        colors = new_colors
        if stable or len(set(colors)) == n:
            break
    order = sorted(range(n), key=lambda c: colors[c])
    return np.asarray(order, dtype=int)


def interlace_version(W, n):
    """The interlacing rearrangement at level n.

    Width-1/(2n) slabs of the left half go to even positions and slabs of
    the right half to odd positions; applied to a two-block graphon this
    produces the 2n-cell chessboard, and constants are fixed.  At n = 1 the
    map degenerates to the identity.  The result lives on the smallest grid
    that refines both the 1/(2n) slabs and W's blocks; the map acts on such
    a grid by cell translation.
    """
    if n < 1:
        raise ResolutionIncompatible("interlacing level must be >= 1")
    slabs = 2 * n
    for mult in range(1, 4097):
        m = slabs * mult
        try:
            _grid_cells(W.weights, m)
        except ResolutionIncompatible:
            continue
        break
    else:
        raise ResolutionIncompatible(
            f"no grid refining both 1/{slabs} slabs and the block weights")
    return grid_version(W, m, _interlace_order(m, n))


def _interlace_order(m, n):
    """Cell order of the level-n interlacing on m equal cells, 2n dividing m.

    For any W whose blocks are unions of the m cells, grid_version(W, m,
    order) is interlace_version(W, n): its cell c holds W's cell order[c].
    """
    slabs = 2 * n
    per = m // slabs
    ks = np.arange(n)
    sigma_coarse = np.empty(slabs, dtype=int)
    sigma_coarse[ks] = 2 * ks
    sigma_coarse[n + ks] = 2 * ks + 1
    cells = np.arange(m)
    sigma = sigma_coarse[cells // per] * per + cells % per
    return np.argsort(sigma)  # inverse permutation


def reorder_by_ordered_partition(W, J):
    """Cut blocks along an ordered fractional partition and stack the pieces.

    Piece (l, i) holds the mass J[i, l] with W's block-i values; pieces are
    laid out part-major, realizing the shift that sends part 0 to the left end.
    Zero-mass pieces are dropped.
    """
    J.require_source(W.weights)
    r = J.assignment
    pieces = [(l, i) for l in range(r.shape[1]) for i in range(W.k) if r[i, l] > 0]
    if not pieces:
        raise PartitionMismatch("partition assigns no mass")
    weights = np.array([r[i, l] for l, i in pieces])
    src = np.array([i for _, i in pieces])
    vals = W.values[np.ix_(src, src)]
    return StepGraphon(weights / weights.sum(), vals)


def split_reconstruct(Wt, s, n):
    """Reassemble a kernel from its two-sided split data on an n-cell grid.

    Given the reordered kernel Wt and a split-density step function s, this
    evaluates the four-term convex combination of Wt composed with the two
    cumulative maps of s (mass moved left, mass moved right) at midpoints of
    the n-cell grid.  Midpoint evaluation is exact once every breakpoint of s
    is a multiple of 1/n and the composed maps land inside single blocks.
    """
    if n < 1:
        raise ResolutionIncompatible("grid resolution must be >= 1")
    for b in s.breakpoints:
        if abs(b * n - round(b * n)) > MATCH_TOL:
            raise ResolutionIncompatible(
                f"split-function breakpoint {float(b)!r} is not a multiple of 1/{n}")
    x = (np.arange(n) + 0.5) / n
    sx = np.asarray(s(x), dtype=float)
    psi = np.asarray(s.prefix_integral(x), dtype=float)
    psi1 = float(s.prefix_integral(np.array(1.0)))
    phi = psi1 + x - psi
    cum = Wt.cumulative()
    p = _locate(cum, psi)
    q = _locate(cum, phi)
    v = Wt.values
    m_pp = v[np.ix_(p, p)] * np.outer(sx, sx)
    m_pq = v[np.ix_(p, q)] * np.outer(sx, 1.0 - sx)
    m_qq = v[np.ix_(q, q)] * np.outer(1.0 - sx, 1.0 - sx)
    vals = (m_pp + m_qq) + (m_pq + m_pq.T)
    return StepGraphon(np.full(n, 1.0 / n), np.clip(vals, 0.0, 1.0))
