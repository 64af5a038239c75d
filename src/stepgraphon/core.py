"""Step-kernel types and block-level operations.

A step graphon is stored as a vector of block masses (summing to 1) plus a
symmetric matrix of block values; block i occupies the interval
[cum_i, cum_{i+1}) of [0,1], so the list order fixes the geometry.  All
operations are pure; arrays are frozen after construction.
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
        raise WeightsNotNormalized(f"weight {w[i]!r} at index {i} is not a valid mass",
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
        w = w / w.sum()
        self.weights = _freeze(w)
        self.values = _freeze(v)

    @property
    def k(self):
        return len(self.weights)

    def cumulative(self):
        """Breakpoints: block i occupies [cum[i], cum[i+1])."""
        cum = np.concatenate(([0.0], np.cumsum(self.weights)))
        cum[-1] = 1.0
        return cum

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
        if ((vals < 0) | (vals > 1) | ~np.isfinite(vals)).any():
            i = int(np.argwhere((vals < 0) | (vals > 1) | ~np.isfinite(vals))[0])
            raise ValueOutOfRange(i, i, vals[i], 0.0, 1.0)
        bp[0], bp[-1] = 0.0, 1.0
        self.breakpoints = _freeze(bp)
        self.values = _freeze(vals)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1,
                      0, len(self.values) - 1)
        return self.values[idx]

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
        if (r < -MATCH_TOL).any():
            i, l = np.argwhere(r < -MATCH_TOL)[0]
            raise PartitionMismatch(f"negative mass {r[i, l]!r} at ({i}, {l})")
        r = np.clip(r, 0.0, None)
        self.assignment = _freeze(r)

    @property
    def source_weights(self):
        return self.assignment.sum(axis=1)

    @property
    def target_masses(self):
        return self.assignment.sum(axis=0)

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
        w = np.asarray(weights, dtype=float)
        cum = np.concatenate(([0.0], np.cumsum(w)))
        cum[-1] = 1.0
        r = np.zeros((len(w), len(targets)))
        for l, (lo, hi) in enumerate(targets):
            left = np.maximum(cum[:-1], lo)
            right = np.minimum(cum[1:], hi)
            r[:, l] = np.clip(right - left, 0.0, None)
        return cls(r)

    @classmethod
    def dyadic(cls, weights, depth):
        """Overlap assignment onto the 2**depth dyadic cells of [0,1]."""
        n = 2 ** depth
        targets = [(i / n, (i + 1) / n) for i in range(n)]
        return cls.from_intervals(weights, targets)


def _locate(cum, x):
    """Index of the block interval containing x (right-open; 1 maps to the last)."""
    i = int(np.searchsorted(cum, x, side="right") - 1)
    return min(max(i, 0), len(cum) - 2)


def _symmetrize(m):
    """Bitwise-symmetric copy; commutativity of + makes (m + m.T) exact."""
    return 0.5 * (m + m.T)


def edge_density(W):
    """Total integral of the kernel over the unit square."""
    a = W.weights
    return float(a @ W.values @ a)


def degree_function(W):
    """Row integrals as a step function; zero-weight blocks are dropped."""
    degrees = W.values @ W.weights
    keep = W.weights > 0
    bp = np.concatenate(([0.0], np.cumsum(W.weights[keep])))
    bp[-1] = 1.0
    return StepFunction1D(bp, np.clip(degrees[keep], 0.0, 1.0))


def int_f(W, f):
    """Integral of f(W(x,y)) over the square, for any scalar f on [0,1]."""
    a = W.weights
    fv = np.vectorize(f, otypes=[float])(W.values)
    return float(a @ fv @ a)


def stepping(W, P):
    """Blockwise averaging of W over the partition P (zero parts get value 0)."""
    r = P.assignment
    if r.shape[0] != W.k:
        raise PartitionMismatch(
            f"partition has {r.shape[0]} source blocks, graphon has {W.k}")
    if np.abs(P.source_weights - W.weights).max() > MATCH_TOL:
        raise PartitionMismatch("partition row sums do not match block weights")
    b = P.target_masses
    m = _symmetrize(r.T @ W.values @ r)
    denom = np.outer(b, b)
    vals = np.divide(m, denom, out=np.zeros_like(m), where=denom > 0)
    vals = np.clip(_symmetrize(vals), 0.0, 1.0)
    return StepGraphon(b / b.sum(), vals)


def common_refinement(U, W, C):
    """Overlay two graphons on the refinement indexed by coupling cells.

    Cells (i, j) with C[i, j] > 0 are laid out row-major, so the first output
    is a plain refinement of U while the second is a rearranged refinement of
    W carried onto U's geometry.
    """
    from .metrics import Coupling  # cycle-free: metrics imports core lazily too

    if not isinstance(C, Coupling):
        raise MarginalMismatch("expected a Coupling")
    C.require_marginals(U.weights, W.weights)
    ii, jj = np.nonzero(C.matrix > 0)
    w_cells = C.matrix[ii, jj]
    Uv = U.values[np.ix_(ii, ii)]
    Wv = W.values[np.ix_(jj, jj)]
    w_cells = w_cells / w_cells.sum()
    return StepGraphon(w_cells, Uv), StepGraphon(w_cells, Wv)


def refine_on_shared_breakpoints(U, W):
    """Cell masses and value matrices of both graphons on merged breakpoints."""
    cu, cw = U.cumulative(), W.cumulative()
    cum = np.unique(np.concatenate((cu, cw)))
    mids = 0.5 * (cum[:-1] + cum[1:])
    iu = np.clip(np.searchsorted(cu, mids, side="right") - 1, 0, U.k - 1)
    iw = np.clip(np.searchsorted(cw, mids, side="right") - 1, 0, W.k - 1)
    lengths = np.diff(cum)
    return lengths, U.values[np.ix_(iu, iu)], W.values[np.ix_(iw, iw)]


def l1_distance(U, W):
    """Exact L1 distance of two step kernels on the shared ground space."""
    lengths, Uv, Wv = refine_on_shared_breakpoints(U, W)
    return float(lengths @ np.abs(Uv - Wv) @ lengths)


def rectangle_integral(W, xint, yint):
    """Exact integral of W over an axis-aligned rectangle of the square."""
    cum = W.cumulative()
    def overlaps(lo, hi):
        return np.clip(np.minimum(cum[1:], hi) - np.maximum(cum[:-1], lo), 0.0, None)
    return float(overlaps(*xint) @ W.values @ overlaps(*yint))


def _grid_cells(weights, n):
    """Map of each of n equal cells to its source block, or raise."""
    counts_f = np.asarray(weights, dtype=float) * n
    counts = np.rint(counts_f).astype(int)
    if np.abs(counts_f - counts).max() > 1e-9 or counts.sum() != n:
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
    out_weights = np.full(n, 1.0 / n)
    if isinstance(W, SignedStepKernel):
        return SignedStepKernel(out_weights, vals)
    return StepGraphon(out_weights, vals)


def interlace_version(W, n, resolution=None):
    """The interlacing rearrangement at level n.

    Width-1/(2n) slabs of the left half go to even positions and slabs of
    the right half to odd positions; applied to a two-block graphon this
    produces the 2n-cell chessboard, and constants are fixed.  At n = 1 the
    map degenerates to the identity.  The result lives on the smallest grid
    that refines both the 1/(2n) slabs and W's blocks (or on `resolution`
    cells when given); the map acts on such a grid by cell translation.
    """
    if n < 1:
        raise ResolutionIncompatible("interlacing level must be >= 1")
    slabs = 2 * n
    if resolution is None:
        m = None
        for mult in range(1, 4097):
            cand = slabs * mult
            try:
                _grid_cells(W.weights, cand)
            except ResolutionIncompatible:
                continue
            m = cand
            break
        if m is None:
            raise ResolutionIncompatible(
                f"no grid refining both 1/{slabs} slabs and the block weights")
    else:
        m = int(resolution)
        if m % slabs != 0:
            raise ResolutionIncompatible(
                f"resolution {m} is not a multiple of {slabs}")
        _grid_cells(W.weights, m)
    per = m // slabs
    ks = np.arange(n)
    sigma_coarse = np.empty(slabs, dtype=int)
    sigma_coarse[ks] = 2 * ks
    sigma_coarse[n + ks] = 2 * ks + 1
    cells = np.arange(m)
    sigma = sigma_coarse[cells // per] * per + cells % per
    pi = np.argsort(sigma)  # inverse permutation
    return grid_version(W, m, pi)


def reorder_by_ordered_partition(W, J):
    """Cut blocks along an ordered fractional partition and stack the pieces.

    Piece (l, i) holds the mass J[i, l] with W's block-i values; pieces are
    laid out part-major, realizing the shift that sends part 0 to the left end.
    Zero-mass pieces are dropped.
    """
    r = J.assignment
    if r.shape[0] != W.k:
        raise PartitionMismatch(
            f"partition has {r.shape[0]} source blocks, graphon has {W.k}")
    if np.abs(J.source_weights - W.weights).max() > MATCH_TOL:
        raise PartitionMismatch("partition row sums do not match block weights")
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
        if abs(b * n - round(b * n)) > 1e-9:
            raise ResolutionIncompatible(
                f"split-function breakpoint {b!r} is not a multiple of 1/{n}")
    x = (np.arange(n) + 0.5) / n
    sx = np.asarray(s(x), dtype=float)
    psi = np.asarray(s.prefix_integral(x), dtype=float)
    psi1 = float(s.prefix_integral(np.array(1.0)))
    phi = psi1 + x - psi
    cum = Wt.cumulative()
    p = np.clip(np.searchsorted(cum, psi, side="right") - 1, 0, Wt.k - 1)
    q = np.clip(np.searchsorted(cum, phi, side="right") - 1, 0, Wt.k - 1)
    v = Wt.values
    m_pp = v[np.ix_(p, p)] * np.outer(sx, sx)
    m_pq = v[np.ix_(p, q)] * np.outer(sx, 1.0 - sx)
    m_qq = v[np.ix_(q, q)] * np.outer(1.0 - sx, 1.0 - sx)
    vals = (m_pp + m_qq) + (m_pq + m_pq.T)
    return StepGraphon(np.full(n, 1.0 / n), np.clip(vals, 0.0, 1.0))
