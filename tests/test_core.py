import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stepgraphon import (
    AsymmetricValues,
    MarginalMismatch,
    PartitionMismatch,
    PartitionSpec,
    ResolutionIncompatible,
    SignedStepKernel,
    StepFunction1D,
    StepGraphon,
    StepGraphonError,
    ValueOutOfRange,
    WeightsNotNormalized,
    common_refinement,
    Coupling,
    edge_density,
    grid_version,
    int_f,
    interlace_version,
    l1_distance,
    rectangle_integral,
    reorder_by_ordered_partition,
    split_reconstruct,
    stepping,
)
from stepgraphon import core
from stepgraphon.core import MATCH_TOL, _cumulative, _mismatch, _mismatches, _overlaps
from stepgraphon.multiway import multiway_matrix
from stepgraphon.named import bipartite_graphon, u1_graphon

from conftest import (cumulative_reference, overlaps_reference, random_graphon,
                      stepping_reference)


# ---------------------------------------------------------------- construction

def test_constant_one_block():
    g = StepGraphon([1.0], [[0.5]])
    assert g.k == 1
    assert edge_density(g) == 0.5


def test_bipartite_construction():
    g = StepGraphon([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    assert edge_density(g) == 0.5


def test_w1_pattern_construction():
    eps = 1 / 8
    e2 = 4 * (eps - eps * eps)
    g = StepGraphon(
        [0.25 - eps / 2, eps, 0.25 - eps / 2, 0.5],
        [[0, 1, 0, 1], [1, 1, 1, 1], [0, 1, 0, 1], [1, 1, 1, e2]],
    )
    # integral over the upper square equals (eps - eps^2)
    assert rectangle_integral(g, (0.5, 1.0), (0.5, 1.0)) == pytest.approx(
        eps - eps ** 2, abs=1e-15)


def test_construction_errors_name_offender():
    with pytest.raises(AsymmetricValues) as err:
        StepGraphon([0.5, 0.5], [[0.0, 1.0], [0.5, 0.0]])
    assert err.value.index == (0, 1)
    assert str(err.value) == "value matrix not symmetric at (0, 1): 1.0 != 0.5"
    with pytest.raises(ValueOutOfRange) as err:
        StepGraphon([0.5, 0.5], [[0.0, 1.5], [1.5, 0.0]])
    assert err.value.index == (0, 1)
    assert str(err.value) == "value 1.5 at (0, 1) outside [0.0, 1.0]"
    with pytest.raises(WeightsNotNormalized):
        StepGraphon([0.5, 0.6], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(WeightsNotNormalized) as err:
        StepGraphon([-0.5, 1.5], [[0.0, 1.0], [1.0, 0.0]])
    assert err.value.index == 0
    values = np.zeros((3, 3))
    with pytest.raises(WeightsNotNormalized) as err:
        StepGraphon([0.5, -0.25, 0.75], values)
    assert str(err.value) == "weight -0.25 at index 1 is not a valid mass"
    assert err.value.index == 1
    with pytest.raises(WeightsNotNormalized, match="at index 1") as err:
        StepGraphon([0.5, float("nan"), -0.25], values)
    assert err.value.index == 1


def test_zero_weight_blocks_are_retained_and_ignored():
    g = StepGraphon([0.5, 0.0, 0.5], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert g.k == 3
    assert edge_density(g) == pytest.approx(0.5, abs=1e-15)


def test_signed_kernel_range():
    SignedStepKernel([1.0], [[-0.75]])
    with pytest.raises(ValueOutOfRange):
        SignedStepKernel([1.0], [[-1.5]])


# ---------------------------------------------------------------- functionals

def test_edge_density_examples():
    assert edge_density(StepGraphon([1.0], [[0.3]])) == 0.3
    assert edge_density(bipartite_graphon()) == 0.5
    # closed-form integration of the averaged kernel, eps = 1/8:
    # 0.5 * 4(eps - eps^2) + 0.5 = 0.71875
    assert edge_density(u1_graphon(1 / 8)) == 0.71875


def test_edge_density_monte_carlo_oracle(rng):
    g = u1_graphon(1 / 8)
    cum = g.cumulative()
    xs = rng.random(200_000)
    ys = rng.random(200_000)
    ix = np.searchsorted(cum, xs, side="right") - 1
    iy = np.searchsorted(cum, ys, side="right") - 1
    mc = g.values[ix, iy].mean()
    assert abs(mc - 0.71875) < 5e-3


def test_int_f_examples():
    g = random_graphon(np.random.default_rng(1))
    assert int_f(g, lambda x: x) == pytest.approx(edge_density(g), abs=1e-12)
    assert int_f(StepGraphon([1.0], [[0.5]]), lambda x: x * x) == 0.25
    # block sum: pairs (0,1) and (1,0) carry value 1, each mass 1/4
    assert int_f(bipartite_graphon(), lambda x: x * x) == 0.5


# ------------------------------------------------------------------- stepping

def test_stepping_identity_and_merge():
    g = random_graphon(np.random.default_rng(2))
    same = stepping(g, PartitionSpec(np.diag(g.weights)))
    assert l1_distance(same, g) < 1e-12
    merged = stepping(g, PartitionSpec(g.weights[:, None]))
    assert merged.k == 1
    assert merged.values[0, 0] == pytest.approx(edge_density(g), abs=1e-12)


def test_stepping_bipartite_merge_realizes_half():
    merged = stepping(bipartite_graphon(), PartitionSpec([[0.5], [0.5]]))
    assert merged.values[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_stepping_density_preserved(rng):
    for _ in range(25):
        g = random_graphon(rng)
        p = PartitionSpec.dyadic(g.weights, int(rng.integers(0, 4)))
        assert edge_density(stepping(g, p)) == pytest.approx(
            edge_density(g), abs=1e-10)


def test_stepping_jensen_monotonicity(rng):
    convex = [lambda x: x * x, lambda x: abs(x - 0.5), math.exp]
    for _ in range(25):
        g = random_graphon(rng)
        p = PartitionSpec.dyadic(g.weights, int(rng.integers(0, 4)))
        sg = stepping(g, p)
        for f in convex:
            assert int_f(sg, f) <= int_f(g, f) + 1e-10


@given(st.integers(1, 9), st.integers(0, 2**32 - 1), st.booleans(),
       st.lists(st.floats(0.0, 1.0), max_size=6))
def test_stepping_equals_the_twice_symmetrized_reference(k, seed, fractional, cuts):
    # the block averages are bitwise symmetric, so a second symmetrization is a no-op
    rng = np.random.default_rng(seed)
    g = random_graphon(rng, k=k, equal_mass=seed % 2 == 0)
    ends = [0.0, *sorted(cuts), 1.0]
    if fractional:
        p = PartitionSpec(g.weights[:, None] * rng.dirichlet(np.ones(len(ends) - 1), size=k))
    else:
        p = PartitionSpec.from_intervals(g.weights, list(zip(ends[:-1], ends[1:])))
    got, ref = stepping(g, p), stepping_reference(g, p)
    assert got.weights.tobytes() == ref.weights.tobytes()
    assert got.values.tobytes() == ref.values.tobytes()


def test_stepping_idempotent(rng):
    g = random_graphon(rng)
    p = PartitionSpec.dyadic(g.weights, 2)
    once = stepping(g, p)
    twice = stepping(once, PartitionSpec(np.diag(once.weights)))
    assert l1_distance(once, twice) < 1e-12


def test_stepping_partition_mismatch():
    g = bipartite_graphon()
    with pytest.raises(PartitionMismatch):
        stepping(g, PartitionSpec([[0.4, 0.0], [0.0, 0.5]]))


@pytest.mark.parametrize("op", [stepping, reorder_by_ordered_partition, multiway_matrix])
@pytest.mark.parametrize("assignment", [
    [[0.5, 0.5]],
    [[0.4, 0.0], [0.0, 0.6]],
    [[0.5, 0.0], [0.0, float("nan")]],
], ids=["source-count", "source-weights", "nan-cell"])
def test_partition_source_mismatch_raises_partition_mismatch(op, assignment):
    with pytest.raises(PartitionMismatch):
        op(bipartite_graphon(), PartitionSpec(assignment))


def test_averaged_l1_approximation_full_and_dyadic(rng):
    # on its own grid the stepping reproduces the kernel exactly; coarser
    # dyadic steppings approximate monotonically
    g = grid_version(random_graphon(rng, k=4, equal_mass=True), 16)
    full = stepping(g, PartitionSpec.dyadic(g.weights, 4))
    assert l1_distance(full, g) == 0.0
    errors = [l1_distance(stepping(g, PartitionSpec.dyadic(g.weights, d)), g)
              for d in range(5)]
    assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(4))


def test_block_mean_is_two_competitive(rng):
    # restricted L1 error of the block mean never exceeds twice that of any
    # other constant
    for _ in range(50):
        n = int(rng.integers(2, 12))
        masses = rng.random(n) + 0.05
        f = rng.random(n)
        b = rng.uniform(-0.5, 1.5)
        a = float(np.dot(masses, f) / masses.sum())
        err_a = float(np.dot(masses, np.abs(f - a)))
        err_b = float(np.dot(masses, np.abs(f - b)))
        assert err_a <= 2 * err_b + 1e-10


# -------------------------------------------------------------- block layout

@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=8)
       .filter(lambda raw: sum(raw) > 0),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=1, max_size=6))
def test_overlaps_equal_the_first_formulas_bit_for_bit(raw, intervals):
    w = np.array(raw) / sum(raw)
    cum = _cumulative(w)
    assert cum.tobytes() == cumulative_reference(w).tobytes()
    lo, hi = zip(*intervals)
    got = _overlaps(cum, lo, hi)
    per_interval, pairwise = overlaps_reference(cum, intervals)
    assert got.tobytes() == per_interval.tobytes() == pairwise.tobytes()
    for row, (a, b) in zip(got, intervals):
        assert _overlaps(cum, a, b).tobytes() == row.tobytes()
    assert (PartitionSpec.from_intervals(w, intervals).assignment.tobytes()
            == PartitionSpec(per_interval.T).assignment.tobytes())


# ---------------------------------------------------------- common refinement

def test_common_refinement_diagonal():
    g = random_graphon(np.random.default_rng(3), k=4)
    ru, rw = common_refinement(g, g, Coupling.diagonal(g.weights))
    assert l1_distance(ru, rw) == 0.0
    assert ru.k == 4


def test_common_refinement_forced_marginals():
    u = StepGraphon([1.0], [[0.3]])
    w = bipartite_graphon()
    ru, rw = common_refinement(u, w, Coupling([[0.5, 0.5]], [1.0], [0.5, 0.5]))
    assert ru.weights.tolist() == [0.5, 0.5]
    assert (ru.values == 0.3).all()
    assert rw.values.tolist() == w.values.tolist()


def test_common_refinement_product():
    u = StepGraphon([0.5, 0.5], [[0.1, 0.2], [0.2, 0.3]])
    w = bipartite_graphon()
    c = Coupling(np.full((2, 2), 0.25), u.weights, w.weights)
    ru, rw = common_refinement(u, w, c)
    assert ru.k == 4
    assert np.allclose(ru.weights, 0.25)


def test_common_refinement_marginal_mismatch():
    u = StepGraphon([0.4, 0.6], [[0.1, 0.2], [0.2, 0.3]])
    w = bipartite_graphon()
    with pytest.raises(MarginalMismatch):
        common_refinement(u, w, Coupling.diagonal([0.5, 0.5]))
    with pytest.raises(MarginalMismatch):
        common_refinement(w, w, None)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1), st.integers(-60, 60))
def test_a_coupling_stays_valid_under_a_power_of_two_scale(k, q, seed, j):
    # marginals off by up to MATCH_TOL / 2 around a total of 1; scaling every
    # mass by 2**j is exact, and past a total of 1 masses match relative to it
    rng = np.random.default_rng(seed)
    m = rng.random((k, q))
    m /= m.sum()
    row = m.sum(axis=1) + rng.uniform(-0.5, 0.5, k) * MATCH_TOL
    col = m.sum(axis=0) + rng.uniform(-0.5, 0.5, q) * MATCH_TOL
    Coupling(m, row, col)
    scaled = Coupling(np.ldexp(m, j), np.ldexp(row, j), np.ldexp(col, j))
    assert np.array_equal(scaled.matrix, np.ldexp(m, j))


@given(st.integers(0, 2 ** 32 - 1), st.integers(-60, 60))
def test_row_wise_mismatches_decide_as_one_vector_at_a_time(seed, j):
    rng = np.random.default_rng(seed)
    y = np.ldexp(rng.random(4), j)
    rel = rng.choice([0.0, 1e-10, -5e-10, 3e-9, np.nan], (6, 4))
    x = y * (1.0 + rel) + rng.choice([0.0, 5e-10, -2e-9], (6, 4))
    assert _mismatches(x, y).tolist() == [_mismatch(row, y) for row in x]


# ------------------------------------------------------------------- versions

def test_grid_version_identity_refines():
    g = bipartite_graphon()
    r = grid_version(g, 4)
    assert r.k == 4
    assert l1_distance(r, g) == 0.0


def test_grid_version_requires_compatible_weights():
    g = StepGraphon([1 / 3, 2 / 3], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ResolutionIncompatible):
        grid_version(g, 4)
    grid_version(g, 3)  # fine


def test_grid_version_preserves_invariants(rng):
    g = random_graphon(rng, k=4, equal_mass=True)
    perm = rng.permutation(8)
    v = grid_version(g, 8, perm)
    assert edge_density(v) == pytest.approx(edge_density(g), abs=1e-12)
    assert int_f(v, math.exp) == pytest.approx(int_f(g, math.exp), abs=1e-12)
    assert sorted(v.values.ravel().tolist()) == sorted(
        grid_version(g, 8).values.ravel().tolist())


def test_interlace_version_two_blocks():
    g = StepGraphon([0.5, 0.5], [[0.2, 0.8], [0.8, 0.4]])
    # level 1 on the half-cell grid is the identity rearrangement
    assert l1_distance(interlace_version(g, 1), g) == 0.0
    # level 2 interleaves the halves into alternating quarter cells
    il = interlace_version(g, 2)
    assert il.k == 4
    assert il.values[0, 0] == 0.2 and il.values[1, 1] == 0.4
    assert il.values[0, 1] == 0.8 and il.values[2, 3] == 0.8
    assert il.values[0, 2] == 0.2 and il.values[1, 3] == 0.4


def test_interlace_version_chessboard_and_constants():
    bip = bipartite_graphon()
    il = interlace_version(bip, 4)
    expect = np.indices((8, 8)).sum(axis=0) % 2
    assert np.array_equal(il.values, expect.astype(float))
    const = StepGraphon([1.0], [[0.25]])
    assert l1_distance(interlace_version(const, 8), const) == 0.0


def test_interlace_version_preserves_density(rng):
    g = random_graphon(rng, k=4, equal_mass=True)
    assert edge_density(interlace_version(g, 2)) == pytest.approx(
        edge_density(g), abs=1e-12)


# ------------------------------------------------------------------ reordering

def test_reorder_identity_and_swap():
    g = StepGraphon([0.25, 0.75], [[0.1, 0.6], [0.6, 0.9]])
    same = reorder_by_ordered_partition(g, PartitionSpec(np.diag(g.weights)))
    assert l1_distance(same, g) == 0.0
    swap = reorder_by_ordered_partition(
        g, PartitionSpec([[0.0, 0.25], [0.75, 0.0]]))
    assert swap.weights.tolist() == [0.75, 0.25]
    assert swap.values[0, 0] == 0.9 and swap.values[1, 1] == 0.1
    assert swap.values[0, 1] == 0.6


def test_reorder_split_block_to_both_ends():
    g = StepGraphon([0.5, 0.5], [[0.2, 0.8], [0.8, 0.4]])
    j = PartitionSpec([[0.25, 0.0, 0.25], [0.0, 0.5, 0.0]])
    out = reorder_by_ordered_partition(g, j)
    assert out.k == 3
    assert out.weights.tolist() == [0.25, 0.5, 0.25]
    assert edge_density(out) == pytest.approx(edge_density(g), abs=1e-12)
    assert out.values[0, 2] == 0.2  # both end pieces come from block 0


# ------------------------------------------------------------- reconstruction

def test_split_reconstruct_degenerate_split():
    bip = bipartite_graphon()
    for level in (0.0, 1.0):
        s = StepFunction1D([0.0, 1.0], [level])
        assert l1_distance(split_reconstruct(bip, s, 4), bip) == 0.0


def test_split_reconstruct_rejects_off_grid_breakpoints():
    s = StepFunction1D([0.0, 0.3, 1.0], [0.0, 1.0])
    with pytest.raises(ResolutionIncompatible) as err:
        split_reconstruct(bipartite_graphon(), s, 4)
    assert str(err.value) == "split-function breakpoint 0.3 is not a multiple of 1/4"


def test_split_reconstruct_half_split_averages():
    # each grid point mixes the four quadrant values 0, 1, 1, 0 equally
    out = split_reconstruct(bipartite_graphon(), StepFunction1D([0.0, 1.0], [0.5]), 8)
    assert (out.values == 0.5).all()


def test_split_reconstruct_identity_family(rng):
    for _ in range(5):
        vals = rng.random((8, 8))
        vals = (vals + vals.T) / 2
        w = StepGraphon(np.full(8, 1 / 8), vals)
        picks = rng.random(8) < 0.5
        if not picks.any():
            picks[0] = True
        intervals = [(i / 8, (i + 1) / 8) for i in range(8) if picks[i]]
        inside = PartitionSpec.from_intervals(w.weights, intervals)
        mass_in = inside.assignment.sum(axis=1)
        j = PartitionSpec(np.column_stack([mass_in, w.weights - mass_in]))
        wt = reorder_by_ordered_partition(w, j)
        s = StepFunction1D.indicator(intervals)
        assert l1_distance(split_reconstruct(wt, s, 32), w) < 1e-12


def test_split_reconstruct_breakpoint_alignment():
    s = StepFunction1D([0.0, 1 / 3, 1.0], [1.0, 0.0])
    with pytest.raises(ResolutionIncompatible):
        split_reconstruct(bipartite_graphon(), s, 8)


# -------------------------------------------------------------- step function

def test_step_function_validation():
    with pytest.raises(WeightsNotNormalized):
        StepFunction1D([0.0, 0.5], [1.0])
    with pytest.raises(WeightsNotNormalized):
        StepFunction1D([0.0, 0.5, 0.5, 1.0], [1.0, 0.0, 1.0])
    for values, index in (([0.5, 2.0, -1.0], 1), ([float("nan"), 0.5, 0.5], 0)):
        with pytest.raises(ValueOutOfRange) as info:
            StepFunction1D([0.0, 0.25, 0.5, 1.0], values)
        assert info.value.index == (index, index)
    f = StepFunction1D([0.0, 0.25, 1.0], [1.0, 0.0])
    assert f(0.1) == 1.0 and f(0.25) == 0.0 and f(1.0) == 0.0
    assert f.prefix_integral(np.array(0.5)) == pytest.approx(0.25)
    assert f.prefix_integral(np.array(1.0)) == pytest.approx(0.25)


# ------------------------------------------------------------- refused inputs

def test_require_marginals_refuses_other_shapes_and_column_masses():
    c = Coupling([[0.25, 0.25], [0.25, 0.25]], [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(MarginalMismatch, match="shape does not match"):
        c.require_marginals([0.5, 0.5], [1.0])
    with pytest.raises(MarginalMismatch, match="column marginal does not match"):
        c.require_marginals([0.5, 0.5], [0.25, 0.75])


@pytest.mark.parametrize("perm", [[0, 0, 1, 2], [0, 1, 2], [1, 2, 3, 4], [0.9, 1.2, 2.5, 3.1]])
def test_grid_version_refuses_a_bad_perm(perm):
    with pytest.raises(ResolutionIncompatible, match="not a permutation of 4 cells"):
        grid_version(bipartite_graphon(), 4, perm)


def test_interlace_version_refuses_level_zero():
    with pytest.raises(ResolutionIncompatible, match="interlacing level must be >= 1"):
        interlace_version(bipartite_graphon(), 0)


def test_interlace_version_refuses_weights_off_every_searched_grid():
    # 0.1234567 is a multiple of 1/m for no m up to the search's 2 * 4096 cells
    g = StepGraphon([0.1234567, 0.8765433], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ResolutionIncompatible,
                       match="no grid refining both 1/2 slabs and the block weights"):
        interlace_version(g, 1)


def test_split_reconstruct_refuses_an_empty_grid():
    s = StepFunction1D([0.0, 1.0], [0.5])
    with pytest.raises(ResolutionIncompatible, match="grid resolution must be >= 1"):
        split_reconstruct(bipartite_graphon(), s, 0)


@pytest.mark.parametrize("n", [0, -2])
def test_grid_version_refuses_an_empty_grid(n):
    with pytest.raises(ResolutionIncompatible, match="grid resolution must be >= 1"):
        grid_version(bipartite_graphon(), n)


def test_grids_past_the_array_cap_are_refused(monkeypatch):
    monkeypatch.setattr(core, "ARRAY_CAP", 15)
    g, s = bipartite_graphon(), StepFunction1D([0.0, 1.0], [0.5])
    assert grid_version(g, 2).k == interlace_version(g, 1).k == split_reconstruct(g, s, 2).k == 2
    refusal = "^1 grid of 4x4 hold 16 values, over the cap of 15$"
    for build in (lambda: grid_version(g, 4), lambda: interlace_version(g, 2),
                  lambda: split_reconstruct(g, s, 4)):
        with pytest.raises(StepGraphonError, match=refusal):
            build()


def test_interlace_version_refuses_before_building(monkeypatch):
    monkeypatch.setattr(core, "ARRAY_CAP", 100)
    built = []
    for name in ("_grid_cells", "_interlace_order"):
        def record(*args, _name=name, _build=getattr(core, name)):
            built.append(_name)
            return _build(*args)
        monkeypatch.setattr(core, name, record)
    with pytest.raises(StepGraphonError, match="^1 grid of 16x16 hold 256 values, over the cap"):
        interlace_version(bipartite_graphon(), 8)
    assert built == []
    assert interlace_version(bipartite_graphon(), 2).k == 4
    assert built == ["_grid_cells", "_interlace_order", "_grid_cells"]


# ----------------------------------------------------------------- kernel type

SIGNED = SignedStepKernel([0.5, 0.5], [[-0.5, 0.0], [0.0, -0.5]])


def test_stepping_keeps_a_signed_kernel_signed():
    # the block average is -0.25, which a graphon's range would clip to 0
    out = stepping(SIGNED, PartitionSpec([[0.5], [0.5]]))
    assert type(out) is SignedStepKernel
    assert out.weights.tolist() == [1.0] and out.values.tolist() == [[-0.25]]


def test_reorder_and_split_reconstruct_keep_a_signed_kernel_signed():
    kernel = SignedStepKernel([0.25, 0.75], [[-0.5, 0.25], [0.25, 1.0]])
    swap = reorder_by_ordered_partition(kernel, PartitionSpec([[0.0, 0.25], [0.75, 0.0]]))
    assert type(swap) is SignedStepKernel
    assert swap.values.tolist() == [[1.0, 0.25], [0.25, -0.5]]
    # every grid point mixes the quadrant values -0.5, 0, 0, -0.5 equally
    out = split_reconstruct(SIGNED, StepFunction1D([0.0, 1.0], [0.5]), 4)
    assert type(out) is SignedStepKernel
    assert (out.values == -0.25).all()
