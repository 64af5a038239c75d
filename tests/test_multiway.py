import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stepgraphon import (
    DimensionMismatch,
    MarginalMismatch,
    MultiwayMatrixSet,
    PartitionMismatch,
    PartitionSpec,
    ProvenanceMismatch,
    ScalingDiverged,
    StepGraphon,
    edge_density,
    grid_version,
    multiway_hausdorff,
    multiway_matrix,
    part_index_bound,
    sample_multiway_set,
    stepping,
)
from stepgraphon import multiway
from stepgraphon.named import bipartite_graphon
from stepgraphon.order import chi_estimate

from conftest import corner_rule_reference, random_graphon, scaled_random_reference


def test_multiway_matrix_single_part():
    g = random_graphon(np.random.default_rng(1))
    m = multiway_matrix(g, PartitionSpec.merge_all(g.weights))
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(edge_density(g), abs=1e-12)


def test_multiway_matrix_bipartite_identity():
    bip = bipartite_graphon()
    m = multiway_matrix(bip, PartitionSpec.identity(bip.weights))
    assert np.allclose(m, [[0.0, 0.25], [0.25, 0.0]])


def test_multiway_matrix_constant():
    c = StepGraphon([1.0], [[0.3]])
    r = PartitionSpec([[0.2, 0.8]])
    m = multiway_matrix(c, r)
    assert np.allclose(m, 0.3 * np.outer([0.2, 0.8], [0.2, 0.8]))


def test_multiway_matrix_mismatch():
    with pytest.raises(PartitionMismatch):
        multiway_matrix(bipartite_graphon(), PartitionSpec([[0.4], [0.4]]))


def test_sample_constant_is_singleton():
    c = StepGraphon([1.0], [[0.3]])
    s = sample_multiway_set(c, [0.5, 0.5], count=5, seed=2)
    assert len(s) == 1
    assert np.allclose(s.matrices[0], 0.3 * np.full((2, 2), 0.25))


def test_sample_respects_entry_bounds(rng):
    g = random_graphon(rng, k=4)
    a = [0.5, 0.5]
    s = sample_multiway_set(g, a, count=10, seed=3)
    bound = np.outer(a, a)
    dens = edge_density(g)
    for m in s.matrices:
        assert (m >= -1e-12).all()
        assert (m <= bound + 1e-9).all()
        assert m.sum() == pytest.approx(dens, abs=1e-10)


def test_sample_bipartite_vertex_range():
    bip = bipartite_graphon()
    s = sample_multiway_set(bip, [0.5, 0.5], count=20, seed=4)
    tops = [m[0, 0] for m in s.matrices]
    # the identity partition realizes 0; mixtures push mass onto the diagonal
    assert min(tops) == pytest.approx(0.0, abs=1e-12)
    assert max(tops) <= 0.25 + 1e-12
    assert max(tops) > 0.1


# Cells of the `probes` benchmark job 23 at seed 9108: with the Sinkhorn
# plans ending on a column scaling, one cut matrix total missed the edge
# density by more than 1e-10 and sample_multiway_set raised.
DRIFT_VALUES = [
    [0.09895740778043194, 0.09344437622225088, 0.35501255308853963,
     0.1435687014993967, 0.07322647835441354, 0.01778639874660415],
    [0.09344437622225088, 0.8894377639332368, 0.46275321770453115,
     0.9953437875745226, 0.892319144453414, 0.9145847157937325],
    [0.35501255308853963, 0.46275321770453115, 0.09072510986281723,
     0.6658497208614456, 0.7433275836532482, 0.0775469701628777],
    [0.1435687014993967, 0.9953437875745226, 0.6658497208614456,
     0.8200070645302604, 0.16177193998950512, 0.9879852312023198],
    [0.07322647835441354, 0.892319144453414, 0.7433275836532482,
     0.16177193998950512, 0.1343703734534175, 0.10756535133975997],
    [0.01778639874660415, 0.9145847157937325, 0.0775469701628777,
     0.9879852312023198, 0.10756535133975997, 0.6261171601329516],
]


def test_interior_plans_keep_the_edge_density():
    g = StepGraphon(np.full(6, 1 / 6), DRIFT_VALUES)
    s = sample_multiway_set(g, [0.5, 0.5], count=10)
    dens = edge_density(g)
    for m in s.matrices:
        assert abs(m.sum() - dens) <= 1e-10


def test_provenance_reproduces_matrices(rng):
    g = random_graphon(rng, k=3)
    s = sample_multiway_set(g, [0.25, 0.75], count=5, seed=5)
    for m, spec in zip(s.matrices, s.provenance):
        assert np.allclose(m, multiway_matrix(g, spec), atol=1e-12)


def test_hausdorff_identical_and_constants():
    bip = bipartite_graphon()
    s = sample_multiway_set(bip, [0.5, 0.5], count=5, seed=6)
    assert multiway_hausdorff(s, s) == 0.0
    c0 = StepGraphon([1.0], [[0.0]])
    c1 = StepGraphon([1.0], [[1.0]])
    s0 = sample_multiway_set(c0, [0.5, 0.5], count=1, seed=1)
    s1 = sample_multiway_set(c1, [0.5, 0.5], count=1, seed=1)
    assert multiway_hausdorff(s0, s1) == 1.0


def test_hausdorff_dimension_mismatch():
    c = StepGraphon([1.0], [[0.3]])
    s2 = sample_multiway_set(c, [0.5, 0.5], count=1, seed=1)
    s3 = sample_multiway_set(c, [0.25, 0.25, 0.5], count=1, seed=1)
    with pytest.raises(DimensionMismatch):
        multiway_hausdorff(s2, s3)


def test_weak_isomorphism_invariance(rng):
    # full corner-rule enumeration is closed under cell relabeling, so
    # deterministic generation coincides for any rearranged copy
    for _ in range(5):
        vals = rng.random((6, 6))
        vals = (vals + vals.T) / 2
        g = StepGraphon(np.full(6, 1 / 6), vals)
        v = grid_version(g, 6, rng.permutation(6))
        su = sample_multiway_set(g, [0.5, 0.5], count=0, seed=7)
        sv = sample_multiway_set(v, [0.5, 0.5], count=0, seed=7)
        assert multiway_hausdorff(su, sv) <= 1e-9


def test_stepping_coherence(rng):
    # averaging before or after coarse cuts gives the same matrices
    for _ in range(10):
        g = random_graphon(rng, k=6)
        p = PartitionSpec.dyadic(g.weights, 1)
        coarse = stepping(g, p)
        # a fractional assignment on the coarse blocks with row sums b
        b = coarse.weights
        frac = np.array([[0.6, 0.4], [0.2, 0.8]])
        r_coarse = PartitionSpec(frac * b[:, None])
        r_fine = PartitionSpec(p.assignment @ (r_coarse.assignment / b[:, None]))
        m_fine = multiway_matrix(g, r_fine)
        m_coarse = multiway_matrix(coarse, r_coarse)
        assert np.abs(m_fine - m_coarse).max() <= 1e-12


def test_part_index_bound():
    assert part_index_bound([0.5, 0.5], 6) == 3
    assert part_index_bound([0.25, 0.25, 0.25, 0.25], 6) == 7
    assert part_index_bound([1.0], 6) == 1


def test_quantitative_transfer_soft(rng):
    # when the envelope estimate is small the cut sets stay close: soft
    # check with generous sampling slack
    depth = 3
    for _ in range(3):
        g = random_graphon(rng, k=4, equal_mass=True)
        u = stepping(g, PartitionSpec.dyadic(g.weights, 2))
        chi = chi_estimate(u, g, 8, 30, depth, seed=11)
        r_q = part_index_bound([0.5, 0.5], depth)
        eps = chi * (2 ** (2 * r_q))
        su = sample_multiway_set(u, [0.5, 0.5], count=50, seed=12)
        sg = sample_multiway_set(g, [0.5, 0.5], count=50, seed=12)
        assert multiway_hausdorff(su, sg) <= 2 * eps + 0.05


def sample_reference(W, a, count, seed=0, dedup_tol=1e-9):
    """The sampler as first written: every plan's matrix against every kept one.

    Returns the kept matrices, their provenance and all generated plans.
    """
    a = np.asarray(a, dtype=float)
    w = W.weights
    k, q = len(w), len(a)
    plans = []
    if math.factorial(q) * math.factorial(k) <= multiway.VERTEX_ENUM_CAP:
        for row_order in itertools.permutations(range(k)):
            for col_order in itertools.permutations(range(q)):
                plans.append(corner_rule_reference(w, a, row_order, col_order))
    else:
        for i in range(k):
            for l in range(q):
                rows = [i] + [r for r in range(k) if r != i]
                cols_max = [l] + [c for c in range(q) if c != l]
                cols_min = [c for c in range(q) if c != l] + [l]
                plans.append(corner_rule_reference(w, a, rows, cols_max))
                plans.append(corner_rule_reference(w, a, rows, cols_min))
    for idx in range(count):
        plans.append(scaled_random_reference(np.random.default_rng((seed, idx)), w, a))
    matrices, provenance = [], []
    for plan in plans:
        spec = PartitionSpec(plan)
        m = multiway_matrix(W, spec)
        if any(np.abs(m - prev).sum() <= dedup_tol for prev in matrices):
            continue
        matrices.append(m)
        provenance.append(spec)
    return matrices, provenance, plans


def _dirichlet_graphon(rng, k):
    v = rng.random((k, k))
    return StepGraphon(rng.dirichlet(np.ones(k)), (v + v.T) / 2)


def _zero_weight_blocks(rng):
    v = rng.random((5, 5))
    return StepGraphon([0.3, 0.0, 0.2, 0.5, 0.0], (v + v.T) / 2)


SAMPLER_CASES = {
    "equal-mass-k6-q2": lambda rng: (random_graphon(rng, k=6, equal_mass=True), [0.5, 0.5]),
    "dirichlet-k5-q3": lambda rng: (_dirichlet_graphon(rng, 5), [0.2, 0.3, 0.5]),
    "extreme-k8-q2": lambda rng: (_dirichlet_graphon(rng, 8), [0.3, 0.7]),
    "zero-weight-block": lambda rng: (_zero_weight_blocks(rng), [0.4, 0.6]),
    "zero-part-mass": lambda rng: (_dirichlet_graphon(rng, 5), [0.25, 0.0, 0.75]),
    "one-part": lambda rng: (_dirichlet_graphon(rng, 6), [1.0]),
    "extreme-k8-q3": lambda rng: (random_graphon(rng, k=8, equal_mass=True),
                                  [0.25, 0.25, 0.5]),
}


@pytest.mark.parametrize("case", list(SAMPLER_CASES))
def test_sampler_equals_per_plan_reference(rng, monkeypatch, case):
    g, a = SAMPLER_CASES[case](rng)
    matrices, provenance, plans = sample_reference(g, a, count=10, seed=3)
    built = []

    def counted(W, R):
        built.append(R)
        return multiway_matrix(W, R)

    monkeypatch.setattr(multiway, "multiway_matrix", counted)
    s = sample_multiway_set(g, a, count=10, seed=3)
    assert len(s) == len(matrices)
    for m, ref in zip(s.matrices, matrices):
        assert (m == ref).all()
    for spec, ref in zip(s.provenance, provenance):
        assert (spec.assignment == ref.assignment).all()
    # one matrix per kept plan; the dedup product matches the per-plan one
    assert len(built) == len(s)
    distinct = list({p.tobytes(): p for p in plans}.values())
    if case == "equal-mass-k6-q2":
        assert len(distinct) < len(plans)
    stack = multiway._stacked_matrices(g, np.array(distinct))
    for p, m in zip(distinct, stack):
        assert (m == multiway_matrix(g, PartitionSpec(p))).all()


@pytest.mark.parametrize("count", [0, 1, 10])
def test_lockstep_scaling_equals_one_plan_at_a_time(rng, count):
    for k, q in ((6, 2), (5, 3), (1, 1), (9, 4)):
        w = rng.dirichlet(np.ones(k))
        a = rng.dirichlet(np.ones(q))
        plans = multiway._scaled_random(17, count, w, a)
        assert plans.shape == (count, k, q)
        for idx, plan in enumerate(plans):
            ref = scaled_random_reference(np.random.default_rng((17, idx)), w, a)
            assert plan.tobytes() == ref.tobytes()


def _one_round_residual(rng, row, col):
    with pytest.raises(ScalingDiverged) as info:
        scaled_random_reference(rng, row, col, cap=1)
    return info.value.residual


def test_scaling_cap_raises_with_the_live_residual():
    w, a = np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.5])
    with pytest.raises(ScalingDiverged) as info:
        multiway._scaled_random(0, 4, w, a, cap=1)
    assert info.value.iterations == 1
    assert 1e-10 <= info.value.residual < np.inf
    assert info.value.residual == max(
        _one_round_residual(np.random.default_rng((0, idx)), w, a) for idx in range(4))


def _corrupt_last_vertex(monkeypatch, entry):
    """Add entry to one cell of the last corner-rule plan the sampler builds."""
    stacked = multiway.corner_rule

    def corrupted(*args):
        plans = stacked(*args)
        plans[-1, 0, 0] += entry
        return plans

    monkeypatch.setattr(multiway, "corner_rule", corrupted)


# On the zero graphon every cut matrix is 0, so only the first plan is kept
# and the corrupted one meets only the checks run on every distinct plan.
ZERO = StepGraphon([0.1, 0.2, 0.3, 0.4], np.zeros((4, 4)))


def test_sampler_rejects_a_plan_with_negative_mass(monkeypatch):
    assert len(sample_multiway_set(ZERO, [0.5, 0.5], count=2)) == 1
    _corrupt_last_vertex(monkeypatch, -1.0)
    with pytest.raises(PartitionMismatch) as err:
        sample_multiway_set(ZERO, [0.5, 0.5], count=2)
    assert str(err.value) == "negative mass -0.9 at (0, 0)"


def test_sampler_rejects_a_plan_off_the_block_weights(monkeypatch):
    _corrupt_last_vertex(monkeypatch, 1e-6)
    with pytest.raises(PartitionMismatch, match="row sums"):
        sample_multiway_set(ZERO, [0.5, 0.5], count=2)


@given(st.integers(1, 6), st.integers(1, 3), st.data())
def test_cut_set_is_invariant_under_cell_permutations(k, q, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    v = rng.random((k, k))
    u = StepGraphon(np.full(k, 1.0 / k), (v + v.T) / 2)
    perm = data.draw(st.permutations(range(k)))
    a = rng.dirichlet(np.ones(q))
    su = sample_multiway_set(u, a, count=0)
    sv = sample_multiway_set(grid_version(u, k, perm), a, count=0)
    assert multiway_hausdorff(su, sv) <= 1e-12


def test_sampler_rejects_nan_part_masses():
    with pytest.raises(MarginalMismatch):
        sample_multiway_set(bipartite_graphon(), [float("nan"), float("nan")], count=1)


def test_cut_set_validates_provenance():
    a = [0.5, 0.5]
    m = [[0.1, 0.1], [0.1, 0.1]]
    spec = PartitionSpec([[0.25, 0.25], [0.25, 0.25]])
    assert len(MultiwayMatrixSet(a, [m], [spec])) == 1
    with pytest.raises(ProvenanceMismatch):
        MultiwayMatrixSet(a, [m], [])
    with pytest.raises(ProvenanceMismatch):
        MultiwayMatrixSet(a, [m], [PartitionSpec([[0.5, 0.0], [0.3, 0.2]])])
    # both onto parts (0.5, 0.5), from source weights (0.5, 0.5) and (0.6, 0.4)
    with pytest.raises(ProvenanceMismatch):
        MultiwayMatrixSet(a, [m, m], [spec, PartitionSpec([[0.4, 0.2], [0.1, 0.3]])])
    with pytest.raises(ProvenanceMismatch):
        MultiwayMatrixSet(a, [m, m], [spec, PartitionSpec([[0.5, 0.5]])])
