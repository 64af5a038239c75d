import numpy as np
import pytest
from hypothesis import given, strategies as st

from stepgraphon import (
    StepFunction1D,
    UnsupportedEps,
    edge_density,
    grid_version,
    rectangle_integral,
    split_reconstruct,
)
from stepgraphon.errors import StepGraphonError
from stepgraphon.named import (
    build_named_graphon,
    checked_rectangles,
    sandwich_sup,
    u1_graphon,
    u2_graphon,
    u2_strip_integral,
    w1_graphon,
    w2_raster_agreement,
    w2_raster_graphon,
    w2_rectangle_integral,
    waterfill_max,
)
from stepgraphon.named import _linear_segments


def test_eps_validation():
    for bad in (0.3, 0.25, 2 ** -11, 0.0, None, float("nan"), float("inf")):
        with pytest.raises(UnsupportedEps):
            w1_graphon(bad)
    for k in range(3, 11):
        w1_graphon(2.0 ** -k)


def test_build_named_dispatch():
    g = build_named_graphon("constant", c=0.5)
    assert g.k == 1 and edge_density(g) == 0.5
    assert build_named_graphon("bipartite").k == 2
    assert build_named_graphon("w1", eps=1 / 8).k == 4
    assert build_named_graphon("u1", eps=1 / 8).k == 2
    assert build_named_graphon("u2", eps=1 / 8).k == 3
    with pytest.raises(UnsupportedEps):
        build_named_graphon("nonesuch")


C_ONLY = (StepGraphonError, "c applies only to the constant kernel, not {!r}")
NO_EPS = (StepGraphonError, "eps does not apply to the {!r} kernel")
NEEDS_EPS = (UnsupportedEps, "eps is required for this kernel")
UNKNOWN = (UnsupportedEps, "unknown kernel name {!r}; expected one of "
                           "('constant', 'bipartite', 'w1', 'w2', 'u1', 'u2')")
# name: the block count k or the (class, message) of each (c, eps) in
# (None, None), (None, 1/8), (0.5, None), (0.5, 1/8)
NAMED_OUTCOMES = {
    "constant": (1, NO_EPS, 1, NO_EPS),
    "bipartite": (2, NO_EPS, C_ONLY, C_ONLY),
    "w1": (NEEDS_EPS, 4, C_ONLY, C_ONLY),
    "w2": (NEEDS_EPS, 8, C_ONLY, C_ONLY),
    "u1": (NEEDS_EPS, 2, C_ONLY, C_ONLY),
    "u2": (NEEDS_EPS, 3, C_ONLY, C_ONLY),
    "nonesuch": (UNKNOWN, UNKNOWN, C_ONLY, C_ONLY),
}


@pytest.mark.parametrize("name", NAMED_OUTCOMES)
def test_build_named_outcomes(name):
    settings = [(c, eps) for c in (None, 0.5) for eps in (None, 1 / 8)]
    for (c, eps), outcome in zip(settings, NAMED_OUTCOMES[name]):
        if isinstance(outcome, int):
            assert build_named_graphon(name, c=c, eps=eps).k == outcome
            continue
        with pytest.raises(outcome[0]) as info:
            build_named_graphon(name, c=c, eps=eps)
        assert type(info.value) is outcome[0]
        assert str(info.value) == outcome[1].format(name)


def test_w1_geometry():
    eps = 1 / 8
    g = w1_graphon(eps)
    # integral over the upper square: (1/4) * 4(eps - eps^2) = eps - eps^2
    assert rectangle_integral(g, (0.5, 1.0), (0.5, 1.0)) == pytest.approx(
        eps - eps ** 2, abs=1e-15)


def test_u1_density_closed_form():
    # (1/2) * 4(eps - eps^2) + 1/2 at eps = 1/8
    assert edge_density(u1_graphon(1 / 8)) == 0.71875


def test_u2_block_values():
    eps = 1 / 16
    g = u2_graphon(eps)
    e = eps - eps * eps
    assert g.weights.tolist() == [0.5 - eps, 2 * eps, 0.5 - eps]
    assert g.values[0, 0] == pytest.approx(0.5 + e, abs=1e-15)
    assert g.values[0, 1] == pytest.approx(0.75 + e, abs=1e-15)
    assert g.values[1, 1] == pytest.approx(0.75 + e, abs=1e-15)
    assert g.values[0, 2] == pytest.approx(0.5 + e, abs=1e-15)


def test_u2_is_the_split_reconstruction_of_w1_at_one_half():
    # with s = 1/2 the four-term split average is u2's half-scale average
    for k in range(3, 11):
        eps = 2.0 ** -k
        n = 2 ** k
        got = split_reconstruct(w1_graphon(eps), StepFunction1D([0.0, 1.0], [0.5]), n)
        assert np.array_equal(grid_version(u2_graphon(eps), n).values, got.values)


def test_u2_strip_integral_closed_form():
    for eps in (2 ** -4, 2 ** -6, 2 ** -8):
        expect = 1.5 * eps + 2 * eps ** 2 - 2 * eps ** 3
        assert u2_strip_integral(eps) == pytest.approx(expect, abs=1e-15)


def test_u2_strip_integral_quadrature_oracle():
    # midpoint quadrature of the four-term average over a fine grid
    eps = 2 ** -4
    w1 = w1_graphon(eps)
    n = 512
    xs = (np.arange(n) + 0.5) / n
    cum = w1.cumulative()
    idx = lambda t: np.clip(np.searchsorted(cum, t, side="right") - 1, 0, 3)
    strip = (xs >= 0.5 - eps) & (xs <= 0.5 + eps)
    total = 0.0
    for x in xs:
        for y in xs[strip]:
            v = sum(w1.values[idx((x + ax) / 2), idx((y + ay) / 2)]
                    for ax in (0, 1) for ay in (0, 1)) / 4
            total += v / (n * n)
    assert total == pytest.approx(u2_strip_integral(eps), abs=2e-4)


def test_w2_exact_symmetry_and_mass_conservation():
    eps = 2 ** -4
    w1 = w1_graphon(eps)
    # the triangle swap preserves the total integral and both half-square
    # integrals (the swapped triangles mirror each other)
    total_w1 = rectangle_integral(w1, (0, 1), (0, 1))
    total_w2 = w2_rectangle_integral(eps, (0, 1), (0, 1))
    assert total_w2 == pytest.approx(total_w1, abs=1e-14)
    ll_w1 = rectangle_integral(w1, (0, 0.5), (0, 0.5))
    uu_w1 = rectangle_integral(w1, (0.5, 1), (0.5, 1))
    ll_w2 = w2_rectangle_integral(eps, (0, 0.5), (0, 0.5))
    uu_w2 = w2_rectangle_integral(eps, (0.5, 1), (0.5, 1))
    assert ll_w2 + uu_w2 == pytest.approx(ll_w1 + uu_w1, abs=1e-14)
    # symmetry in the two axes
    assert w2_rectangle_integral(eps, (0.1, 0.3), (0.6, 0.9)) == pytest.approx(
        w2_rectangle_integral(eps, (0.6, 0.9), (0.1, 0.3)), abs=1e-14)


def test_w2_exact_monte_carlo_oracle():
    eps = 2 ** -3
    s0, s1 = 0.25 - eps / 2, 0.25 + eps / 2
    e2 = 4 * (eps - eps ** 2)

    def w2_point(x, y):
        if x <= 0.5 and y <= 0.5:
            if x + y >= 0.5:
                return e2
            return 1.0 if (s0 <= x <= s1 or s0 <= y <= s1) else 0.0
        if x >= 0.5 and y >= 0.5:
            if x + y >= 1.5:
                u, v = x - 0.5, y - 0.5
                return 1.0 if (s0 <= u <= s1 or s0 <= v <= s1) else 0.0
            return e2
        return 1.0

    rng = np.random.default_rng(9)
    for _ in range(5):
        x0, x1 = np.sort(rng.random(2))
        y0, y1 = np.sort(rng.random(2))
        pts = rng.random((40_000, 2))
        pts[:, 0] = x0 + pts[:, 0] * (x1 - x0)
        pts[:, 1] = y0 + pts[:, 1] * (y1 - y0)
        mc = np.mean([w2_point(x, y) for x, y in pts]) * (x1 - x0) * (y1 - y0)
        exact = w2_rectangle_integral(eps, (x0, x1), (y0, y1))
        assert abs(mc - exact) < 5e-3


def test_w2_raster_matches_exact_on_grid_rectangles():
    for eps in (2 ** -3, 2 ** -4, 2 ** -6):
        assert w2_raster_agreement(eps) <= 4 * eps * eps
        raster = w2_raster_graphon(eps)
        assert edge_density(raster) == pytest.approx(
            w2_rectangle_integral(eps, (0, 1), (0, 1)), abs=1e-12)


def test_checked_rectangles_cover_defining_intervals():
    eps = 2 ** -4
    rects = checked_rectangles(eps)
    assert ((0.0, 0.5), (0.5, 1.0)) in rects
    assert ((0.5 - eps, 0.5 + eps), (0.5 - eps, 0.5 + eps)) in rects


def test_waterfill_against_discretized_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        segments = []
        for _ in range(int(rng.integers(1, 5))):
            length = float(rng.uniform(0.05, 0.4))
            v0, v1 = rng.uniform(0, 1, 2)
            if rng.random() < 0.3:
                v1 = v0  # plateau
            segments.append((length, float(v0), float(v1)))
        total = sum(s[0] for s in segments)
        mass = float(rng.uniform(0.01, total))
        # oracle: greedy selection on a fine discretization
        grid = []
        for length, v0, v1 in segments:
            n = max(1, int(length * 20000))
            ts = (np.arange(n) + 0.5) / n
            grid.append(np.column_stack([np.full(n, length / n),
                                         v0 + (v1 - v0) * ts]))
        grid = np.vstack(grid)
        order = np.argsort(-grid[:, 1])
        lens = grid[order, 0]
        vals = grid[order, 1]
        csum = np.cumsum(lens)
        kidx = int(np.searchsorted(csum, mass))
        take = np.minimum(lens, np.maximum(0, mass - np.concatenate(([0], csum[:-1]))))
        approx = float(np.dot(take, vals))
        exact = waterfill_max(segments, mass)
        assert exact == pytest.approx(approx, abs=2e-4)
        assert exact >= approx - 2e-4


@pytest.mark.parametrize("mass, expected", [(0.0, 0.0), (-0.25, 0.0), (1.0, 0.75), (2.0, 0.75)])
def test_waterfill_takes_nothing_or_everything_past_the_mass_range(mass, expected):
    # no mass takes nothing; the total mass 1 and more take the whole integral
    assert waterfill_max([(0.5, 1.0, 1.0), (0.5, 0.0, 1.0)], mass) == expected


def test_waterfill_solves_a_linear_piece_from_its_bracket():
    # g is 1 on [0, 1/2) and rises from 0 to 1 on [1/2, 1); mass 3/4 takes the
    # plateau and {g >= 1/2} of the linear piece, all in exact dyadic arithmetic
    assert waterfill_max([(0.5, 1.0, 1.0), (0.5, 0.0, 1.0)], 0.75) == 0.6875


@given(length=st.floats(0.05, 1.0), v0=st.floats(0.0, 1.0), v1=st.floats(0.0, 1.0),
       share=st.floats(0.01, 0.99))
def test_waterfill_on_one_linear_piece_is_the_closed_form(length, v0, v1, share):
    # the top set of measure m has threshold t = hi - m (hi - lo) / length
    # and integral m (hi + t) / 2
    hi, lo = max(v0, v1), min(v0, v1)
    mass = share * length
    t = hi - mass * (hi - lo) / length
    assert waterfill_max([(length, v0, v1)], mass) == pytest.approx(
        mass * (hi + t) / 2, rel=1e-12, abs=1e-15)


def test_sandwich_sup_closed_form():
    for eps in (2 ** -4, 2 ** -6, 2 ** -8):
        expect = 1.25 * eps + 3 * eps ** 2 - 3 * eps ** 3
        assert sandwich_sup(eps) == pytest.approx(expect, abs=1e-14)


def test_column_profiles_match_exact_geometry():
    # piece integrals of the column profile equal exact strip integrals
    eps = 2 ** -5
    segments = _linear_segments(eps)
    y = 0.0
    for length, v0, v1 in segments[:3]:
        piece = w2_rectangle_integral(eps, (0.0, 0.5), (y, y + length))
        assert piece == pytest.approx(length * (v0 + v1) / 2, abs=1e-14)
        y += length
    length, v0, v1 = segments[3]
    piece = rectangle_integral(w1_graphon(eps), (0.5, 1.0), (0.5, 1.0))
    assert piece == pytest.approx(length * v0, abs=1e-14)


def test_vectorized_integral_matches_scalar_reference():
    # both take w1's part from its step kernel; their triangle swaps are
    # independent code paths that must agree exactly on dyadic boxes
    from stepgraphon.named import _w2_integral_vec
    rng = np.random.default_rng(17)
    for eps in (2 ** -3, 2 ** -5):
        x0 = rng.integers(0, 64, 40) / 64
        x1 = x0 + rng.integers(1, 64, 40) / 64
        y0 = rng.integers(0, 64, 40) / 64
        y1 = y0 + rng.integers(1, 64, 40) / 64
        x1, y1 = np.minimum(x1, 1.0), np.minimum(y1, 1.0)
        vec = _w2_integral_vec(eps, x0, x1, y0, y1)
        for i in range(len(x0)):
            ref = w2_rectangle_integral(eps, (x0[i], x1[i]), (y0[i], y1[i]))
            assert vec[i] == pytest.approx(ref, abs=1e-15)
