"""The named kernels of the four-kernel worked family, with exact geometry.

w1 carries a width-eps cross strip, all-1 off-diagonal halves and a constant
4(eps - eps^2) upper square; w2 swaps the two anti-diagonal triangles of w1;
u1 is the two-block averaged form; u2 is the four-term half-scale average of
w1.  The swapped triangles of w2 are not axis-aligned, so the w2 step kernel
is the exact cell average on the 2*eps grid (breakpoints of the strip and of
the checked rectangles included); every integral over a grid-aligned
rectangle is exact, and the checked-rectangle comparisons against the true
triangle geometry are provided separately.  w1's integrals are those of its
step kernel; only the triangle swap is written out, twice on purpose: the
scalar reference w2_rectangle_integral and its vectorized twin.
"""

from __future__ import annotations

import math

import numpy as np

from .core import StepGraphon, _locate, _overlaps, rectangle_integral
from .errors import StepGraphonError, UnsupportedEps


def _validate_eps(eps):
    if eps is None:
        raise UnsupportedEps("eps is required for this kernel")
    k = round(-math.log2(eps)) if 0 < eps < 1 else 0  # 0, negatives, NaN and inf fail here
    if not (3 <= k <= 10) or eps != 2.0 ** -k:
        raise UnsupportedEps(f"eps must be 2**-k with 3 <= k <= 10, got {eps!r}")
    return eps


def _upper_value(eps):
    return 4.0 * (eps - eps * eps)


def bipartite_graphon():
    return StepGraphon([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])


def w1_graphon(eps):
    """Cross strip at 1/4 +- eps/2, all-1 off-diagonal halves, constant upper square."""
    _validate_eps(eps)
    e2 = _upper_value(eps)
    weights = [0.25 - eps / 2, eps, 0.25 - eps / 2, 0.5]
    values = [
        [0.0, 1.0, 0.0, 1.0],
        [1.0, 1.0, 1.0, 1.0],
        [0.0, 1.0, 0.0, 1.0],
        [1.0, 1.0, 1.0, e2],
    ]
    return StepGraphon(weights, values)


def u1_graphon(eps):
    _validate_eps(eps)
    e2 = _upper_value(eps)
    return StepGraphon([0.5, 0.5], [[e2, 1.0], [1.0, e2]])


def u2_graphon(eps):
    """Four-term average of half-scale w1 copies, on its minimal 3-block grid."""
    _validate_eps(eps)
    w1 = w1_graphon(eps)
    cum1 = w1.cumulative()
    bps = np.array([0.0, 0.5 - eps, 0.5 + eps, 1.0])
    mids = 0.5 * (bps[:-1] + bps[1:])
    k = len(mids)
    vals = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            total = 0.0
            for ax in (0.0, 1.0):
                for ay in (0.0, 1.0):
                    bi = _locate(cum1, (mids[i] + ax) / 2.0)
                    bj = _locate(cum1, (mids[j] + ay) / 2.0)
                    total += w1.values[bi, bj]
            vals[i, j] = vals[j, i] = total / 4.0
    return StepGraphon(np.diff(bps), vals)


# ---------------------------------------------------------------------------
# exact geometry of w2 (anti-diagonal triangle swap)
# ---------------------------------------------------------------------------

def _area_above_antidiag(x0, x1, y0, y1, t):
    """Area of {(x, y) in [x0,x1] x [y0,y1] : x + y >= t} (vectorized)."""
    x0, x1 = np.asarray(x0, float), np.asarray(x1, float)
    y0, y1 = np.asarray(y0, float), np.asarray(y1, float)
    width = np.clip(x1 - x0, 0.0, None)
    height = np.clip(y1 - y0, 0.0, None)
    lo = np.clip(t - y1, x0, x1)
    hi = np.clip(t - y0, x0, x1)
    full = (x1 - hi) * height
    lin = 0.5 * ((hi - (t - y1)) ** 2 - (lo - (t - y1)) ** 2)
    return np.where((width <= 0) | (height <= 0), 0.0, full + lin)


def _minus_strip(lo, hi, s0, s1):
    """Decompose [lo,hi] minus [s0,s1] into at most two intervals."""
    return [(lo, min(hi, s0)), (max(lo, s1), hi)]


def _pattern_area_above(x0, x1, y0, y1, t, s0, s1):
    """Integral of 1[x in S or y in S] over the part of the box above x+y=t."""
    total = _area_above_antidiag(x0, x1, y0, y1, t)
    off = 0.0
    for a, b in _minus_strip(x0, x1, s0, s1):
        for c, d in _minus_strip(y0, y1, s0, s1):
            off += _area_above_antidiag(a, b, c, d, t)
    return total - off


def w2_rectangle_integral(eps, xint, yint):
    """Exact integral of w2 (true triangle swap) over an axis-aligned rectangle."""
    total = rectangle_integral(w1_graphon(eps), xint, yint)
    e2 = _upper_value(eps)
    s0, s1 = 0.25 - eps / 2, 0.25 + eps / 2
    x0, x1 = xint
    y0, y1 = yint
    # lower-left square: replace the cross pattern by e2 above x+y=1/2
    a0, a1 = max(x0, 0.0), min(x1, 0.5)
    b0, b1 = max(y0, 0.0), min(y1, 0.5)
    if a1 > a0 and b1 > b0:
        tri = float(_area_above_antidiag(a0, a1, b0, b1, 0.5))
        pat = float(_pattern_area_above(a0, a1, b0, b1, 0.5, s0, s1))
        total += e2 * tri - pat
    # upper-right square: replace e2 by the translated cross pattern above x+y=3/2
    a0, a1 = max(x0, 0.5), min(x1, 1.0)
    b0, b1 = max(y0, 0.5), min(y1, 1.0)
    if a1 > a0 and b1 > b0:
        tri = float(_area_above_antidiag(a0, a1, b0, b1, 1.5))
        pat = float(_pattern_area_above(a0 - 0.5, a1 - 0.5, b0 - 0.5, b1 - 0.5,
                                        0.5, s0, s1))
        total += pat - e2 * tri
    return float(total)


def _w2_breakpoints(eps):
    n = round(1.0 / (2.0 * eps))
    pts = {i / n for i in range(n + 1)}
    pts.update((0.25 - eps / 2, 0.25 + eps / 2, 0.5 - eps, 0.5 + eps))
    return np.array(sorted(pts))


def _pattern_area_above_vec(x0, x1, y0, y1, t, s0, s1):
    total = _area_above_antidiag(x0, x1, y0, y1, t)
    off = 0.0
    for a, b in ((x0, np.minimum(x1, s0)), (np.maximum(x0, s1), x1)):
        for c, d in ((y0, np.minimum(y1, s0)), (np.maximum(y0, s1), y1)):
            off = off + _area_above_antidiag(a, b, c, d, t)
    return total - off


def _w2_integral_vec(eps, x0, x1, y0, y1):
    """Vectorized twin of w2_rectangle_integral; exact on dyadic inputs."""
    w1 = w1_graphon(eps)
    e2 = _upper_value(eps)
    s0, s1 = 0.25 - eps / 2, 0.25 + eps / 2
    cum = w1.cumulative()
    # w1's part: the row-wise quadratic form of the block overlaps
    total = ((_overlaps(cum, x0, x1) @ w1.values) * _overlaps(cum, y0, y1)).sum(axis=1)
    a0, a1 = np.maximum(x0, 0.0), np.minimum(x1, 0.5)
    b0, b1 = np.maximum(y0, 0.0), np.minimum(y1, 0.5)
    c0, c1 = np.maximum(x0, 0.5), np.minimum(x1, 1.0)
    d0, d1 = np.maximum(y0, 0.5), np.minimum(y1, 1.0)
    # lower square: constant replaces the pattern above the anti-diagonal
    tri = _area_above_antidiag(a0, a1, b0, b1, 0.5)
    pat = _pattern_area_above_vec(a0, a1, b0, b1, 0.5, s0, s1)
    total = total + e2 * tri - pat
    # upper square: translated pattern replaces the constant
    tri2 = _area_above_antidiag(c0, c1, d0, d1, 1.5)
    pat2 = _pattern_area_above_vec(c0 - 0.5, c1 - 0.5, d0 - 0.5, d1 - 0.5,
                                   0.5, s0, s1)
    return total + pat2 - e2 * tri2


def w2_raster_graphon(eps):
    """Cell averages of the exact w2 on the 2*eps grid (strip breakpoints added).

    Integrals over every rectangle aligned with this grid agree exactly with
    the true triangle geometry; pointwise the kernel blends the swapped
    values along the anti-diagonals.
    """
    _validate_eps(eps)
    bps = _w2_breakpoints(eps)
    k = len(bps) - 1
    iu, ju = np.triu_indices(k)
    x0, x1 = bps[:-1][iu], bps[1:][iu]
    y0, y1 = bps[:-1][ju], bps[1:][ju]
    cells = _w2_integral_vec(eps, x0, x1, y0, y1)
    area = (x1 - x0) * (y1 - y0)
    vals = np.zeros((k, k))
    vals[iu, ju] = np.clip(cells / area, 0.0, 1.0)
    vals[ju, iu] = vals[iu, ju]
    return StepGraphon(np.diff(bps), vals)


def checked_rectangles(eps):
    """Products of the defining intervals used by the raster agreement check."""
    xs = [(0.0, 0.25 - eps / 2), (0.25 - eps / 2, 0.25 + eps / 2),
          (0.25 + eps / 2, 0.5), (0.0, 0.5), (0.5, 1.0), (0.0, 1.0),
          (0.5 - eps, 0.5 + eps)]
    return [(a, b) for a in xs for b in xs]


def w2_raster_agreement(eps):
    """Max |raster - exact| over the checked rectangles (bound: 4*eps^2)."""
    raster = w2_raster_graphon(eps)
    worst = 0.0
    for xint, yint in checked_rectangles(eps):
        exact = w2_rectangle_integral(eps, xint, yint)
        approx = rectangle_integral(raster, xint, yint)
        worst = max(worst, abs(exact - approx))
    return worst


# ---------------------------------------------------------------------------
# exact fractional-column optimizer for the sandwich bound
# ---------------------------------------------------------------------------

def _linear_segments(eps):
    """Column-integral profiles: g over [0,1/2] from w2, constant from w1.

    Segment format: (length, v_start, v_end) with the value linear along the
    segment.  The first family integrates w2 over x in [0,1/2]; the second
    integrates w1 over x in [1/2,1], which is constant.
    """
    _validate_eps(eps)
    e2 = _upper_value(eps)
    s0, s1 = 0.25 - eps / 2, 0.25 + eps / 2

    def g_low(y):
        return e2 * y + eps

    def g_strip(y):
        return e2 * y + (0.5 - y)

    def g_high(y):
        return e2 * y

    segments = [
        (s0, g_low(0.0), g_low(s0)),
        (s1 - s0, g_strip(s0), g_strip(s1)),
        (0.5 - s1, g_high(s1), g_high(0.5)),
        (0.5, e2 / 2.0, e2 / 2.0),
    ]
    return segments


def _measure_and_integral_above(segments, tau, strict=False):
    """Measure and integral of g over {g >= tau} (or {g > tau} when strict).

    Strictness only matters on plateaus; linear pieces meet each level in a
    null set.
    """
    measure = 0.0
    integral = 0.0
    for length, v0, v1 in segments:
        lo, hi = (v0, v1) if v0 <= v1 else (v1, v0)
        if lo == hi:
            take = lo > tau if strict else lo >= tau
            if take:
                measure += length
                integral += length * lo
            continue
        if hi <= tau:
            continue
        if lo >= tau:
            measure += length
            integral += length * 0.5 * (v0 + v1)
            continue
        frac = (hi - tau) / (hi - lo)
        measure += length * frac
        integral += length * frac * 0.5 * (hi + tau)
    return measure, integral


def waterfill_max(segments, mass):
    """Exact maximum of the integral of g over a set of prescribed measure.

    g is given as piecewise-linear segments; the optimum takes the top level
    set {g >= tau} with the threshold solved exactly (plateaus split).
    The loop returns by the lowest value at the latest: there the level set
    takes every segment, a measure summed as `total` is, and total > mass.
    """
    total = sum(s[0] for s in segments)
    if mass <= 0:
        return 0.0
    if mass >= total:
        return sum(length * 0.5 * (v0 + v1) for length, v0, v1 in segments)
    values = sorted({v for _, v0, v1 in segments for v in (v0, v1)}, reverse=True)
    prev, m_prev = values[0] + 1.0, 0.0
    for tau in values:
        m_tau, _ = _measure_and_integral_above(segments, tau)
        if m_tau >= mass:
            m_strict, i_strict = _measure_and_integral_above(segments, tau, strict=True)
            if m_strict < mass:
                # mass boundary falls on the plateau at this level
                return i_strict + (mass - m_strict) * tau
            # threshold lies strictly between tau and prev, where the measure
            # of the level set is linear in the level, from m_strict just
            # above tau to m_prev at prev, with m_prev < mass <= m_strict
            tau_star = prev - (mass - m_prev) * (prev - tau) / (m_strict - m_prev)
            tau_star = min(max(tau_star, tau), prev)
            m_s, i_s = _measure_and_integral_above(segments, tau_star)
            # trade any float drift in the hit mass at the threshold value
            return i_s + (mass - m_s) * tau_star
        prev, m_prev = tau, m_tau


def sandwich_sup(eps):
    """Exact value of the sandwich bound's column supremum, plus the lead term.

    Maximizes the mass-2*eps fractional column selection of the w2/w1 column
    profiles and adds the 1/2-mass mixed-quadrant contribution eps; the
    small-eps expansion is (5/4) eps + 3 eps^2 - 3 eps^3.
    """
    segments = _linear_segments(eps)
    sup = waterfill_max(segments, 2.0 * eps)
    return eps + sup


def u2_strip_integral(eps):
    """Exact integral of u2 over [0,1] x [1/2-eps, 1/2+eps].

    Closed form: (3/2) eps + 2 eps^2 - 2 eps^3.
    """
    return rectangle_integral(u2_graphon(eps), (0.0, 1.0), (0.5 - eps, 0.5 + eps))


_EPS_KERNELS = {"w1": w1_graphon, "w2": w2_raster_graphon, "u1": u1_graphon, "u2": u2_graphon}
NAMED = ("constant", "bipartite", *_EPS_KERNELS)


def build_named_graphon(name, c=None, eps=None):
    """Constructor for the named kernels of the worked examples.

    c sets the constant kernel's level and eps parametrizes w1, w2, u1 and
    u2; either one given to another kernel raises StepGraphonError.
    """
    if c is not None and name != "constant":
        raise StepGraphonError(f"c applies only to the constant kernel, not {name!r}")
    if eps is not None and name in ("constant", "bipartite"):
        raise StepGraphonError(f"eps does not apply to the {name!r} kernel")
    if name == "constant":
        value = 0.5 if c is None else float(c)
        if not 0.0 <= value <= 1.0:
            raise UnsupportedEps(f"constant level {value!r} outside [0,1]")
        return StepGraphon([1.0], [[value]])
    if name == "bipartite":
        return bipartite_graphon()
    if name in _EPS_KERNELS:
        return _EPS_KERNELS[name](eps)
    raise UnsupportedEps(f"unknown kernel name {name!r}; expected one of {NAMED}")
