import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepgraphon import (
    NoInteriorValues,
    PartitionSpec,
    ResolutionIncompatible,
    StepGraphon,
    StepGraphonError,
    chi_estimate,
    classify_extremal,
    cut_distance,
    degree_frequencies,
    edge_density,
    grid_version,
    int_f,
    order_check,
    range_frequencies,
    sample_envelope,
    stepping,
    strictify,
    weak_star_distance,
)
from stepgraphon import core, measures, order
from stepgraphon.metrics import signature_weights
from stepgraphon.named import bipartite_graphon, w1_graphon
from stepgraphon.order import _signature

from conftest import (FLATNESS_DEFECT_PAIRS, canonical_cell_order_reference, chi_reference,
                      envelope_reference, flatness_defect_pair, random_graphon)

HALF = StepGraphon([1.0], [[0.5]])


# ------------------------------------------------------------- order check

def test_stepping_is_consistent(rng):
    for _ in range(30):
        g = random_graphon(rng)
        p = PartitionSpec.dyadic(g.weights, int(rng.integers(0, 4)))
        verdict = order_check(stepping(g, p), g)
        assert verdict.status == "consistent", verdict.to_dict()


@pytest.mark.parametrize("seed, index", FLATNESS_DEFECT_PAIRS)
def test_benchmark_steppings_are_consistent_and_not_reversed(seed, index):
    # the float flatness LP once raised MarginalMismatch or refuted these
    stepped, g = flatness_defect_pair(seed, index)
    verdict = order_check(stepped, g)
    assert verdict.status == "consistent", verdict.to_dict()
    assert order_check(g, stepped).status == "refuted"


@pytest.mark.parametrize("seed, index", [(1, 0), (1, 1), (2, 0), (3, 39)])
def test_reverse_benchmark_pairs_are_refuted_without_an_lp(monkeypatch, seed, index):
    # the call functions refute both reverse flatness conditions before any
    # solve; the forward pair solves one LP per condition for its witness
    calls = []
    solve = measures.linprog
    monkeypatch.setattr(measures, "linprog",
                        lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
    stepped, g = flatness_defect_pair(seed, index)
    verdict = order_check(g, stepped)
    assert verdict.failed_conditions() == ["range-frequency-flatness",
                                           "degree-frequency-flatness"]
    assert len(calls) == 0
    assert order_check(stepped, g).status == "consistent"
    assert len(calls) == 2


def test_half_below_bipartite():
    assert order_check(HALF, bipartite_graphon()).status == "consistent"


def test_bipartite_not_below_half():
    verdict = order_check(bipartite_graphon(), HALF)
    assert verdict.refuted
    assert "range-frequency-flatness" in verdict.failed_conditions()


def test_density_mismatch_refutes():
    verdict = order_check(StepGraphon([1.0], [[0.4]]), HALF)
    assert verdict.refuted
    assert "edge-density" in verdict.failed_conditions()


# ---------------------------------------------------------------- extremal

def test_classify_extremal():
    assert classify_extremal(StepGraphon([1.0], [[0.3]])) == "minimal"
    assert classify_extremal(bipartite_graphon()) == "maximal"
    assert classify_extremal(StepGraphon([1.0], [[0.0]])) == "both"
    assert classify_extremal(w1_graphon(1 / 8)) == "neither"


def test_classify_matches_range_frequencies(rng):
    for _ in range(20):
        g = random_graphon(rng)
        label = classify_extremal(g)
        freq = range_frequencies(g)
        if label == "minimal":
            assert freq.n == 1
        if label == "maximal":
            assert all(a in (0.0, 1.0) for a in freq.atoms)


# ------------------------------------------------------------------ strictify

def test_strictify_constant_half():
    out = strictify(HALF, 0.25)
    assert out.k == 2
    assert sorted(set(out.values.ravel().tolist())) == [0.25, 0.75]
    assert int_f(out, lambda x: x * x) == pytest.approx(0.3125)
    assert edge_density(out) == pytest.approx(0.5, abs=1e-15)


def test_strictify_needs_interior_values():
    with pytest.raises(NoInteriorValues):
        strictify(bipartite_graphon(), 0.1)


def test_strictify_w1_perturbs_only_interior():
    eps = 1 / 8
    g = w1_graphon(eps)
    out = strictify(g, eps / 2)
    inner = 4 * (eps - eps ** 2)
    expect = {0.0, 1.0, inner + eps / 2, inner - eps / 2}
    assert set(np.round(out.values.ravel(), 12).tolist()) == set(
        np.round(sorted(expect), 12).tolist())


def test_strictify_order_relation(rng):
    for _ in range(10):
        k = int(rng.integers(2, 6))
        v = rng.uniform(0.2, 0.8, (k, k))
        v = (v + v.T) / 2
        w = rng.random(k) + 0.1
        g = StepGraphon(w / w.sum(), v)
        out = strictify(g, 0.1)
        pair_mass = float(np.outer(g.weights, g.weights).sum())
        assert int_f(out, lambda x: x * x) >= int_f(g, lambda x: x * x) \
            + 0.01 * pair_mass / 2
        assert order_check(g, out).status == "consistent"
        reverse = order_check(out, g)
        assert reverse.refuted
        assert reverse.failed_conditions() == ["range-frequency-flatness"]
        # degrees are untouched by the checker perturbation
        assert degree_frequencies(out).approx_equal(degree_frequencies(g), 1e-9)


# ------------------------------------------------------------------ envelope

def test_envelope_of_constant_is_singleton():
    es = sample_envelope(StepGraphon([1.0], [[0.3]]), 8, 10, 3, seed=0)
    assert len(es) >= 10
    spread = np.abs(es.signatures - es.signatures[0]).max()
    assert spread == 0.0


def test_envelope_density_coordinate_invariant(rng):
    g = random_graphon(rng, k=4, equal_mass=True)
    es = sample_envelope(g, 8, 15, 3, seed=2)
    first = es.signatures[:, 0]
    assert np.abs(first - edge_density(g)).max() < 1e-12


def test_envelope_contains_steppings(rng):
    g = random_graphon(rng, k=4, equal_mass=True)
    es = sample_envelope(g, 8, 5, 3, seed=4)
    from stepgraphon.order import canonicalize
    base = canonicalize(g, 8)
    for d in range(4):
        sig = _signature(stepping(base, PartitionSpec.dyadic(base.weights, d)), 3)
        dmin = (np.abs(es.signatures - sig) @ signature_weights(3).ravel()).min()
        assert dmin <= 1e-9


def test_envelope_of_bipartite_contains_half():
    es = sample_envelope(bipartite_graphon(), 64, 50, 4, seed=7)
    sig = _signature(HALF, 4)
    dmin = (np.abs(es.signatures - sig) @ signature_weights(4).ravel()).min()
    assert dmin < 0.02


def grid_graphon(rng, n, equal_mass):
    """Random graphon whose block masses are multiples of 1/n.

    Equal masses use a block count dividing n; otherwise the n cells are
    shared out by Dirichlet proportions, at least one cell per block.
    """
    if equal_mass:
        k = int(rng.choice([k for k in range(1, n + 1) if n % k == 0]))
        w = np.full(k, 1.0 / k)
    else:
        k = int(rng.integers(1, min(n, 6) + 1))
        w = (rng.multinomial(n - k, rng.dirichlet(np.ones(k))) + 1) / n
    v = rng.random((k, k))
    return StepGraphon(w, (v + v.T) / 2)


@settings(max_examples=60)
@given(n=st.sampled_from([1, 2, 6, 8, 16, 32]), equal_mass=st.booleans(),
       levels=st.sampled_from([0, 1, 2, 3]), data=st.integers(0, 2 ** 32 - 1))
def test_canonicalize_keeps_the_reference_cell_order(n, equal_mass, levels, data):
    # levels > 0 rounds the values to levels + 1 steps, so refinement meets ties
    rng = np.random.default_rng(data)
    g = grid_graphon(rng, n, equal_mass)
    if levels:
        g = StepGraphon(g.weights, np.round(g.values * levels) / levels)
    base = grid_version(g, n)
    reference = grid_version(base, n, canonical_cell_order_reference(base.values))
    canonical = order.canonicalize(g, n)
    assert np.array_equal(canonical.weights, reference.weights)
    assert np.array_equal(canonical.values, reference.values)


@pytest.mark.parametrize("g, n", [
    (bipartite_graphon(), 8), (HALF, 4), (w1_graphon(0.125), 16),
    (core.interlace_version(bipartite_graphon(), 3), 12)],
    ids=["bipartite", "constant", "w1", "chessboard"])
def test_canonical_order_of_structured_grids_is_the_reference_order(g, n):
    base = grid_version(g, n)
    assert np.array_equal(core._canonical_cell_order(base.weights, base.values),
                          canonical_cell_order_reference(base.values))


@settings(max_examples=60)
@given(n=st.sampled_from([1, 2, 6, 8, 32]), count=st.sampled_from([0, 1, 17]),
       depth=st.sampled_from([0, 1, 3, 4]), equal_mass=st.booleans(),
       seed=st.integers(0, 1000), data=st.integers(0, 2 ** 32 - 1))
def test_envelope_equals_per_sample_reference(n, count, depth, equal_mass, seed, data):
    rng = np.random.default_rng(data)
    g = grid_graphon(rng, n, equal_mass)
    es = sample_envelope(g, n, count, depth, seed)
    ref = envelope_reference(g, n, count, depth, seed)
    assert es.signatures.shape == ref.shape
    assert (es.signatures == ref).all()
    permuted = grid_version(g, n, rng.permutation(n))
    assert chi_estimate(permuted, g, n, count, depth, seed) == 0.0


def test_envelope_in_blocks_equals_reference(monkeypatch, rng):
    monkeypatch.setattr(order, "_STACK_FLOATS", 3 * 8 * 8)
    g = grid_graphon(rng, 8, equal_mass=False)
    es = sample_envelope(g, 8, 17, 3, seed=4)
    assert (es.signatures == envelope_reference(g, 8, 17, 3, seed=4)).all()


def test_envelope_builds_no_graphon_per_sample(monkeypatch, rng):
    calls = {"grid_version": 0, "rectangle_signature": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(order, name, counted(name, getattr(order, name)))
    # interlace_version would reach grid_version through core's binding
    monkeypatch.setattr(core, "grid_version", order.grid_version)
    g = random_graphon(rng, k=4, equal_mass=True)
    for depth in (0, 3):
        calls.update(grid_version=0, rectangle_signature=0)
        es = sample_envelope(g, 32, 50, depth, seed=5)
        assert len(es) == 50 + 5 + depth + 1
        assert calls["grid_version"] <= 2
        assert calls["rectangle_signature"] == depth + 1


def test_envelope_size_is_checked_before_anything_is_built(monkeypatch):
    g = bipartite_graphon()
    # 8 cells add 3 interlacing rows: depth 1 with no samples holds 5 signatures of 9
    monkeypatch.setattr(order, "_ENVELOPE_FLOATS", 45)
    assert len(sample_envelope(g, 8, 0, 1)) == 5
    monkeypatch.setattr(order, "_ENVELOPE_FLOATS", 44)
    with pytest.raises(StepGraphonError, match="depth 1 holds 45 "):
        sample_envelope(g, 8, 0, 1)
    monkeypatch.undo()

    def unreachable(*args):
        raise AssertionError("envelope built before its size was checked")

    monkeypatch.setattr(order, "canonicalize", unreachable)
    monkeypatch.setattr(order, "_envelope_perms", unreachable)
    with pytest.raises(StepGraphonError):
        sample_envelope(g, 8, 4, 10)
    with pytest.raises(StepGraphonError):
        chi_estimate(g, g, 8, 4, 40)
    # a 60000003 x 8 table of cell orders, and a 1025-cell base, are over their caps
    with pytest.raises(StepGraphonError, match="holds 480000024 order entries"):
        sample_envelope(g, 8, 60_000_000, 0)
    with pytest.raises(StepGraphonError, match="holds 480000024 order entries"):
        chi_estimate(g, g, 8, 60_000_000, 0)
    with pytest.raises(StepGraphonError, match="on 1025 cells holds 1050625 base values"):
        sample_envelope(g, 1025, 0, 0)
    with pytest.raises(StepGraphonError, match="on 100000 cells"):
        chi_estimate(g, g, 100_000, 0, 0)


# ----------------------------------------------------------------------- chi

def test_chi_equal_inputs():
    g = bipartite_graphon()
    assert chi_estimate(g, g, 8, 10, 3, seed=1) == 0.0


def test_chi_of_rearranged_version_vanishes(rng):
    g = random_graphon(rng, k=4, equal_mass=True)
    u = grid_version(g, 8, rng.permutation(8))
    assert chi_estimate(u, g, 8, 20, 3, seed=3) <= 1e-9


def test_chi_constants_equals_weak_star():
    c0 = StepGraphon([1.0], [[0.0]])
    c1 = StepGraphon([1.0], [[1.0]])
    assert chi_estimate(c0, c1, 4, 5, 3, seed=1) == pytest.approx(
        weak_star_distance(c0, c1, 3), abs=1e-14)


@settings(max_examples=40)
@given(n=st.sampled_from([8, 16]), depth=st.sampled_from([0, 2, 4]),
       seed=st.integers(0, 1000), data=st.integers(0, 2 ** 32 - 1))
def test_chi_of_cell_permuted_pair_is_zero_without_sampling(n, depth, seed, data):
    rng = np.random.default_rng(data)
    g = grid_graphon(rng, n, equal_mass=True)
    permuted = grid_version(g, n, rng.permutation(n))

    def unreachable(*args):
        raise AssertionError("chi sampled an envelope of grid-isomorphic inputs")

    with pytest.MonkeyPatch.context() as mp:
        for name in ("sample_envelope", "_envelope_cloud", "l1_hausdorff"):
            mp.setattr(order, name, unreachable)
        assert chi_estimate(permuted, g, n, 100, depth, seed) == 0.0


@settings(max_examples=30)
@given(n=st.sampled_from([1, 8, 16, 32]), count=st.sampled_from([0, 5, 30]),
       depth=st.sampled_from([0, 1, 3, 4]), equal_mass=st.booleans(),
       seed=st.integers(0, 1000), data=st.integers(0, 2 ** 32 - 1))
def test_chi_of_distinct_pairs_matches_full_coordinate_reference(
        n, count, depth, equal_mass, seed, data):
    # the upper triangle adds the same terms as the full signature in another
    # order; on 300 random pairs the two sums differed by at most 2.3e-15
    rng = np.random.default_rng(data)
    u, w = grid_graphon(rng, n, equal_mass), grid_graphon(rng, n, equal_mass)
    ref = chi_reference(u, w, n, count, depth, seed)
    assert ref > 0.0
    assert chi_estimate(u, w, n, count, depth, seed) == pytest.approx(ref, rel=1e-14, abs=0)


def test_chi_of_identical_inputs_checks_arguments_first(monkeypatch):
    g = bipartite_graphon()
    third = StepGraphon([1 / 3, 2 / 3], [[0.2, 0.7], [0.7, 0.4]])
    with pytest.raises(ResolutionIncompatible):
        chi_estimate(third, third, 8, 4, 2)

    def unreachable(*args):
        raise AssertionError("input canonicalized before the arguments were checked")

    monkeypatch.setattr(order, "canonicalize", unreachable)
    for args, message in (((8, 4, -1), "depth must be >= 0"), ((0, 4, 2), "n must be >= 1"),
                          ((-8, 4, 2), "n must be >= 1"), ((8, -1, 2), "count must be >= 0")):
        with pytest.raises(ValueError, match=message):
            chi_estimate(g, g, *args)
        with pytest.raises(ValueError, match=message):
            sample_envelope(g, *args)


# --------------------------------------------------- weak isomorphism bridge

def test_version_zero_distance_and_equal_measures(rng):
    for _ in range(5):
        g = random_graphon(rng, k=3, equal_mass=True)
        v = grid_version(g, 6, rng.permutation(6))
        val, _ = cut_distance(g, v, budget={"restarts": 1, "max_iters": 3})
        assert val <= 1e-9
        a = range_frequencies(grid_version(g, 6))
        b = range_frequencies(v)
        assert a.atoms.tolist() == b.atoms.tolist()
        assert a.masses.tolist() == b.masses.tolist()
