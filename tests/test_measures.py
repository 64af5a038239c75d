from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepgraphon import (
    Coupling,
    DiscreteMeasure,
    MarginalMismatch,
    StepGraphon,
    StepGraphonError,
    check_flatter,
    compose_couplings,
    degree_frequencies,
    grid_version,
    range_frequencies,
    stepping,
    PartitionSpec,
    ValueOutOfRange,
)
from stepgraphon import measures, metrics
from stepgraphon.core import MATCH_TOL
from stepgraphon.named import bipartite_graphon, w1_graphon

from conftest import (dyadic_measure, flatness_lp_reference, random_graphon, spread_measure,
                      stepped_dirichlet_pair)

DIRAC_HALF = DiscreteMeasure([0.5], [1.0])
ENDS = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])


def random_measure(rng, max_atoms=6):
    n = int(rng.integers(1, max_atoms + 1))
    atoms = np.sort(rng.choice(np.linspace(0, 1, 41), size=n, replace=False))
    masses = rng.random(n) + 0.1
    return DiscreteMeasure(atoms, masses / masses.sum())


def averaged_measure(rng, measure):
    """Barycentric merge of random atom groups; flatter by construction."""
    n = measure.n
    n_groups = int(rng.integers(1, n + 1))
    labels = rng.integers(0, n_groups, size=n)
    atoms, masses = [], []
    for g in range(n_groups):
        sel = labels == g
        if not sel.any():
            continue
        m = measure.masses[sel].sum()
        atoms.append(float(np.dot(measure.atoms[sel], measure.masses[sel]) / m))
        masses.append(float(m))
    return DiscreteMeasure(atoms, masses)


def witness_residual(witness, l1, l2):
    """Max violation over marginals and barycenter constraints."""
    psi = witness.coupling.matrix
    r1 = np.abs(psi.sum(axis=1) - l1.masses).max()
    r2 = np.abs(psi.sum(axis=0) - l2.masses).max()
    r3 = np.abs(psi @ l2.atoms - l1.masses * l1.atoms).max()
    return max(r1, r2, r3)


# ----------------------------------------------------------- pushforwards

def test_range_frequencies_examples():
    const = StepGraphon([1.0], [[0.3]])
    m = range_frequencies(const)
    assert m.atoms.tolist() == [0.3] and m.masses.tolist() == [1.0]
    m = range_frequencies(bipartite_graphon())
    assert m.atoms.tolist() == [0.0, 1.0]
    assert m.masses.tolist() == [0.5, 0.5]


def test_range_frequencies_w1_block_enumeration():
    eps = 1 / 8
    g = w1_graphon(eps)
    m = range_frequencies(g)
    # independent enumeration over the 4x4 block grid
    masses = {}
    for i in range(4):
        for j in range(4):
            v = g.values[i, j]
            masses[v] = masses.get(v, 0.0) + g.weights[i] * g.weights[j]
    assert m.atoms.tolist() == sorted(masses)
    for atom, mass in zip(m.atoms, m.masses):
        assert mass == pytest.approx(masses[atom], abs=1e-12)
    assert m.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_degree_frequencies_examples():
    const = StepGraphon([1.0], [[0.7]])
    m = degree_frequencies(const)
    assert m.atoms.tolist() == [0.7] and m.masses.tolist() == [1.0]
    m = degree_frequencies(bipartite_graphon())
    assert m.atoms.tolist() == [0.5] and m.masses.tolist() == [1.0]
    g = StepGraphon([0.5, 0.5], [[1.0, 0.0], [0.0, 0.0]])
    m = degree_frequencies(g)
    assert m.atoms.tolist() == [0.0, 0.5]
    assert m.masses.tolist() == [0.5, 0.5]


def test_range_frequencies_exact_under_rearrangement(rng):
    g = random_graphon(rng, k=4, equal_mass=True)
    v = grid_version(g, 8, rng.permutation(8))
    a = range_frequencies(grid_version(g, 8))
    b = range_frequencies(v)
    assert a.atoms.tolist() == b.atoms.tolist()
    assert a.masses.tolist() == b.masses.tolist()


@given(st.data())
def test_frequencies_unchanged_by_cell_permutations(data):
    # blocks whose masses are multiples of 1/k, refined to k cells and permuted
    k = data.draw(st.integers(1, 12))
    cuts = data.draw(st.lists(st.integers(1, k - 1), max_size=5, unique=True)) if k > 1 else []
    cells = np.diff([0, *sorted(cuts), k])
    v = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(cells) ** 2,
                                    max_size=len(cells) ** 2))).reshape(len(cells), -1)
    g = StepGraphon(np.array(cells) / k, np.triu(v) + np.triu(v, 1).T)
    perm = data.draw(st.permutations(range(k)))
    base, permuted = grid_version(g, k), grid_version(g, k, perm)
    for freq in (range_frequencies, degree_frequencies):
        a, b = freq(base), freq(permuted)
        assert a.atoms.tolist() == b.atoms.tolist()
        assert a.masses.tolist() == b.masses.tolist()
        np.testing.assert_allclose(a.atoms, freq(g).atoms, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.masses, freq(g).masses, rtol=0, atol=1e-12)


# -------------------------------------------------------------- flatness

def test_flatter_diagonal_case():
    w = check_flatter(DIRAC_HALF, DIRAC_HALF)
    assert w.feasible and w.residual <= 1e-12
    assert np.allclose(w.coupling.matrix, [[1.0]])


def test_flatter_dirac_below_endpoints():
    w = check_flatter(DIRAC_HALF, ENDS)
    assert w.feasible
    # unique solution of the marginal + barycenter constraints
    assert np.allclose(w.coupling.matrix, [[0.5, 0.5]], atol=1e-12)
    assert witness_residual(w, DIRAC_HALF, ENDS) < 1e-9


def test_flatter_endpoints_not_below_dirac():
    w = check_flatter(ENDS, DIRAC_HALF)
    assert not w.feasible


def test_flatter_total_mass_fast_fail():
    w = check_flatter(DiscreteMeasure([0.5], [1.0]), DiscreteMeasure([0.5], [2.0]))
    assert not w.feasible and "total mass" in w.reason


def test_flatter_first_moment_fast_fail():
    w = check_flatter(DiscreteMeasure([0.2], [1.0]), DiscreteMeasure([0.8], [1.0]))
    assert not w.feasible and "moment" in w.reason


def test_flatter_exact_rational_mode():
    w = check_flatter(DIRAC_HALF, ENDS, exact=True)
    assert w.feasible and w.residual == 0.0
    w = check_flatter(ENDS, DIRAC_HALF, exact=True)
    assert not w.feasible
    # exact mode agrees with the float LP on a near-boundary pair; the call
    # functions touch at t = 1/2, which leaves a single coupling
    l1 = DiscreteMeasure([0.25, 0.75], [0.5, 0.5])
    l2 = DiscreteMeasure([0.0, 0.5, 1.0], [0.25, 0.5, 0.25])
    w = check_flatter(l1, l2, exact=True)
    assert w.feasible
    assert w.coupling.matrix.tolist() == [[0.25, 0.25, 0.0], [0.0, 0.25, 0.25]]
    assert check_flatter(l1, l2).feasible
    # with slack at t = 1/2 the first atom's window starts inside an atom of
    # l2, and the witness still meets every constraint
    l1 = DiscreteMeasure([0.375, 0.625], [0.5, 0.5])
    w = check_flatter(l1, l2, exact=True)
    assert w.feasible and witness_residual(w, l1, l2) == 0.0
    # a measure against itself gets the diagonal witness, also at 10 atoms
    l = DiscreteMeasure(np.linspace(0, 1, 10), np.arange(1, 11) / 55)
    w = check_flatter(l, l, exact=True)
    assert w.feasible and w.residual == 0.0
    assert np.array_equal(w.coupling.matrix, np.diag(l.masses))


def test_flatter_constructed_averages_feasible(rng):
    for _ in range(40):
        l2 = random_measure(rng)
        l1 = averaged_measure(rng, l2)
        w = check_flatter(l1, l2)
        assert w.feasible
        assert witness_residual(w, l1, l2) < 1e-9


def test_flatter_barycenter_of_disintegration(rng):
    # every feasible witness averages the second measure back to the atoms
    for _ in range(25):
        l2 = random_measure(rng)
        l1 = averaged_measure(rng, l2)
        w = check_flatter(l1, l2)
        psi = w.coupling.matrix
        for i in range(l1.n):
            if l1.masses[i] > 0:
                bary = psi[i] @ l2.atoms / l1.masses[i]
                assert abs(bary - l1.atoms[i]) < 1e-9


def test_flatter_diagonal_rigidity(rng):
    for _ in range(20):
        l = random_measure(rng)
        w = check_flatter(l, l)
        assert w.feasible
        off = w.coupling.matrix.copy()
        np.fill_diagonal(off, 0.0)
        assert off.sum() <= 1e-9


def test_binary_measures_are_maximal(rng):
    l1 = DiscreteMeasure([0.0, 1.0], [0.4, 0.6])
    for _ in range(40):
        l2 = random_measure(rng)
        w = check_flatter(l1, l2)
        if w.feasible:
            np.testing.assert_allclose(l1.atoms, l2.atoms, rtol=0, atol=1e-9)
            np.testing.assert_allclose(l1.masses, l2.masses, rtol=0, atol=1e-9)
    assert check_flatter(l1, l1).feasible


# ------------------------------------------------------------ composition

def test_compose_couplings_diagonal():
    mid = DiscreteMeasure([0.3, 0.7], [0.5, 0.5])
    diag = Coupling.diagonal(mid.masses)
    out = compose_couplings(diag, diag, mid)
    assert np.allclose(out.matrix, diag.matrix)


def test_compose_couplings_identity_side():
    mid = ENDS
    p1 = Coupling([[0.5, 0.5]], [1.0], mid.masses)
    p2 = Coupling.diagonal(mid.masses)
    out = compose_couplings(p1, p2, mid)
    assert np.allclose(out.matrix, p1.matrix)


def test_compose_couplings_marginal_mismatch():
    mid = ENDS
    p1 = Coupling([[0.5, 0.5]], [1.0], mid.masses)
    bad = Coupling.diagonal([0.4, 0.6])
    with pytest.raises(MarginalMismatch):
        compose_couplings(p1, bad, mid)


def test_compose_transitivity(rng):
    # feasible chains A <= B <= C compose to a feasible witness for A <= C
    for _ in range(50):
        c = random_measure(rng)
        b = averaged_measure(rng, c)
        a = averaged_measure(rng, b)
        wab = check_flatter(a, b)
        wbc = check_flatter(b, c)
        assert wab.feasible and wbc.feasible
        xi = compose_couplings(wab.coupling, wbc.coupling, b)
        psi = xi.matrix
        assert np.abs(psi.sum(axis=1) - a.masses).max() < 1e-8
        assert np.abs(psi.sum(axis=0) - c.masses).max() < 1e-8
        assert np.abs(psi @ c.atoms - a.masses * a.atoms).max() < 1e-8


# ------------------------------------------------------------ convex order

def test_convex_order_follows_feasibility(rng):
    # the exact mode is the complete convex-order test, so it must accept
    # whatever the float LP accepts; the pairs are dyadic because a float
    # average rounds its barycenters and mass sums, and the exact test then
    # rightly refutes the rounded pair
    for _ in range(30):
        l1 = dyadic_measure(rng)
        l2 = spread_measure(rng, l1)
        if check_flatter(l1, l2).feasible:
            assert check_flatter(l1, l2, exact=True).feasible


def test_additivity_of_witnesses(rng):
    # the sum of two feasible witnesses witnesses the summed measures
    for _ in range(20):
        c1 = random_measure(rng)
        a1 = averaged_measure(rng, c1)
        c2 = random_measure(rng)
        a2 = averaged_measure(rng, c2)
        w1 = check_flatter(a1, c1)
        w2 = check_flatter(a2, c2)
        assert w1.feasible and w2.feasible
        asum = DiscreteMeasure(np.concatenate((a1.atoms, a2.atoms)),
                               np.concatenate((a1.masses, a2.masses)))
        csum = DiscreteMeasure(np.concatenate((c1.atoms, c2.atoms)),
                               np.concatenate((c1.masses, c2.masses)))
        w = check_flatter(asum, csum)
        assert w.feasible


@pytest.mark.parametrize("reverse", [False, True], ids=["contraction", "spread"])
def test_huge_totals_keep_the_verdict_of_unit_totals(reverse):
    # totals and first moments near 3e100 match relative to the total, so
    # scaling both measures alike leaves the float verdict as it is at x1
    def scaled(measure):
        return DiscreteMeasure(measure.atoms, measure.masses * 3e100)

    for seed in range(300):
        rng = np.random.default_rng(seed)
        base = dyadic_measure(rng)
        l1, l2 = (base, spread_measure(rng, base))[::-1 if reverse else 1]
        unit, huge = check_flatter(l1, l2), check_flatter(scaled(l1), scaled(l2))
        assert (huge.feasible, huge.reason) == (unit.feasible, unit.reason), seed


# -------------------------------------------------------------- measures

def test_measure_dedup_and_sorting():
    m = DiscreteMeasure([0.5, 0.5 + 1e-14, 0.1], [0.3, 0.3, 0.4])
    assert m.n == 2
    assert m.atoms.tolist() == [0.1, 0.5]
    assert m.masses.tolist() == [0.4, 0.6]


@pytest.mark.parametrize("atoms, masses, index", [
    ([0.5], [-1.0], 0),
    ([0.2, 1.5, -3.0], [0.5, 0.5, 0.5], 1),
    ([0.2, 0.4, 0.6], [0.5, -1.0, float("inf")], 1),
    ([0.2, 0.4], [0.5, float("inf")], 1),
    ([0.2, float("nan")], [0.5, 0.5], 1),
], ids=["negative-mass", "atom-above-one", "negative-mass-after-valid", "infinite-mass",
        "nan-atom"])
def test_measure_rejects_the_first_bad_entry(atoms, masses, index):
    with pytest.raises(ValueOutOfRange) as info:
        DiscreteMeasure(atoms, masses)
    assert info.value.index == (index, index)
    assert f" at ({index}, {index}) outside " in str(info.value)


@pytest.mark.parametrize("atoms, masses", [([0.2, 0.4], [1.0]), ([[0.5]], [[1.0]])],
                         ids=["unequal-lengths", "not-vectors"])
def test_measure_rejects_atoms_and_masses_of_other_shapes(atoms, masses):
    with pytest.raises(StepGraphonError, match="atoms and masses must be equal-length vectors"):
        DiscreteMeasure(atoms, masses)


@given(st.data())
def test_measure_is_bitwise_invariant_under_reordered_pairs(data):
    # pairs are summed in (atom, mass) order, repeated atoms included
    atoms = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.3 + 1e-13, 1.0]),
                               min_size=1, max_size=12))
    masses = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(atoms),
                                max_size=len(atoms)))
    perm = data.draw(st.permutations(range(len(atoms))))
    m = DiscreteMeasure(atoms, masses)
    p = DiscreteMeasure(np.array(atoms)[perm], np.array(masses)[perm])
    assert m.atoms.tobytes() == p.atoms.tobytes()
    assert m.masses.tobytes() == p.masses.tobytes()


def test_stepping_measures_flatten(rng):
    # blockwise averaging flattens both pushforward measures
    for _ in range(10):
        g = random_graphon(rng)
        p = PartitionSpec.dyadic(g.weights, int(rng.integers(0, 3)))
        sg = stepping(g, p)
        assert check_flatter(range_frequencies(sg), range_frequencies(g)).feasible
        assert check_flatter(degree_frequencies(sg), degree_frequencies(g)).feasible


@settings(max_examples=60)
@given(st.integers(4, 12), st.integers(0, 2 ** 32 - 1),
       st.lists(st.integers(1, 15), max_size=4, unique=True))
def test_float_route_accepts_steppings(k, seed, cuts):
    # stepping onto consecutive intervals flattens both frequency measures,
    # and the witness must meet the marginals and barycenters within 1e-9
    ends = [0.0, *sorted(c / 16 for c in cuts), 1.0]
    stepped, g = stepped_dirichlet_pair(np.random.default_rng(seed), k, list(zip(ends, ends[1:])))
    for freq in (range_frequencies, degree_frequencies):
        l1, l2 = freq(stepped), freq(g)
        w = check_flatter(l1, l2)
        assert w.feasible, w.reason
        assert witness_residual(w, l1, l2) <= 1e-9


@pytest.mark.parametrize("tol, held", [(1e-9, 1e-9), (1e-10, 1e-10), (1e-6, 1e-9)])
def test_float_route_is_one_solve_held_to_tol(monkeypatch, tol, held):
    # check_flatter has no tolerance of its own: a direct solve on this
    # thread's HiGHS solver held to tol comes first, and the float route's
    # one solve is held to MATCH_TOL all the same, never to the looser tol
    # left on the solver, so the tightest hold of the two is min(tol, MATCH_TOL)
    calls = []
    solve = measures.linprog

    def capture(*args, **kwargs):
        calls.append(kwargs["primal_feasibility_tolerance"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(measures, "linprog", capture)
    assert measures.linprog(np.zeros(2), np.ones((1, 2)), np.ones(1),
                            primal_feasibility_tolerance=tol) is not None
    g = random_graphon(np.random.default_rng(5), k=6)
    stepped = stepping(g, PartitionSpec.dyadic(g.weights, 1))
    assert check_flatter(range_frequencies(stepped), range_frequencies(g)).feasible
    assert calls == [tol, MATCH_TOL] and min(calls) == held
    highs, _ = metrics._thread_solver(metrics._highs_core())
    assert highs.getOptions().primal_feasibility_tolerance == MATCH_TOL


def split_atom(measure, i, delta):
    """measure with atom i split into x - d and x + d, d = min(delta, x, 1 - x),
    at half its mass each: a spread of at most delta that keeps the mean."""
    x, p = measure.atoms[i], measure.masses[i]
    d = min(delta, x, 1.0 - x)
    return DiscreteMeasure(np.append(np.delete(measure.atoms, i), [x - d, x + d]),
                           np.append(np.delete(measure.masses, i), [p / 2, p / 2]))


def flatness_outcome(check, l1, l2):
    try:
        return check(l1, l2).to_dict()
    except StepGraphonError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.booleans(),
       st.one_of(st.just(0.0), st.floats(-13, -2).map(lambda e: 10.0 ** e)),
       st.sampled_from([1.0, 0.125, 1e100, 1e-100]),
       st.sampled_from([0.0, 4e-10, -4e-10, 1e-12]))
def test_call_function_screen_keeps_the_lp_outcome(seed, max_atoms, reverse, delta, factor, eta):
    # contractions (a measure against a spread of it), spreads (the reverse)
    # and near-boundary perturbations of both: one atom of l1 split by up to
    # delta, masses scaled to totals near 1e+-100, l2's totals moved by eta
    # within MATCH_TOL; the outcome is the LP-only route's, and a refusal made
    # without a solve is one the LP makes too
    rng = np.random.default_rng(seed)
    base = dyadic_measure(rng, max_atoms)
    l1, l2 = (spread_measure(rng, base), base)[::-1 if reverse else 1]
    l1 = split_atom(l1, int(rng.integers(l1.n)), delta)
    m2 = l2.masses * factor
    j = int(rng.integers(l2.n))
    m2[j] += eta if m2[j] > 2 * abs(eta) else 0.0
    l1, l2 = DiscreteMeasure(l1.atoms, l1.masses * factor), DiscreteMeasure(l2.atoms, m2)
    with mock.patch.object(measures, "linprog", wraps=measures.linprog) as solve:
        outcome = flatness_outcome(check_flatter, l1, l2)
    assert outcome == flatness_outcome(lambda a, b: flatness_lp_reference(a, b)[0], l1, l2)
    if solve.call_count == 0 and outcome["reason"] == measures.NO_COUPLING:
        assert flatness_lp_reference(l1, l2)[1] == 2


@pytest.mark.parametrize("s", [1.0, 8e307])
def test_call_function_screen_refutes_near_the_float_maximum(s):
    # the margin is taken in units of the LP's scale, so it stays finite
    # even where (n + m + 4)(T1 + T2) overflows
    with mock.patch.object(measures, "linprog", wraps=measures.linprog) as solve:
        w = check_flatter(DiscreteMeasure([0.0, 1.0], [s / 2, s / 2]), DiscreteMeasure([0.5], [s]))
    assert not w.feasible and w.reason == measures.NO_COUPLING
    assert solve.call_count == 0


@pytest.mark.parametrize("mass", [1e100, 1e-100])
def test_float_route_keeps_the_diagonal_at_extreme_masses(mass):
    # the masses reach the LP scaled to a total near 1, so neither a huge
    # nor a tiny total is mistaken for infeasibility or for zero
    m = DiscreteMeasure([0.25, 0.75], [mass, mass])
    w = check_flatter(m, m)
    assert w.feasible and w.residual == 0.0
    assert w.coupling.matrix.tolist() == [[mass, 0.0], [0.0, mass]]


def test_exact_and_float_routes_agree(rng):
    # dual-route check: the exact convex-order certificate and the float LP
    # must agree on feasibility for dyadic data (exact binary expansions)
    grid = np.linspace(0, 1, 17)  # multiples of 1/16
    agree = 0
    for _ in range(60):
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(1, 5))
        a1 = np.sort(rng.choice(grid, size=n1, replace=False))
        a2 = np.sort(rng.choice(grid, size=n2, replace=False))
        m1 = rng.integers(1, 9, size=n1) / 16
        m2 = rng.integers(1, 9, size=n2) / 16
        # force equal totals and first moments half the time to hit the
        # interesting regime
        l1 = DiscreteMeasure(a1, m1)
        l2 = DiscreteMeasure(a2, m2 * (m1.sum() / m2.sum()))
        f = check_flatter(l1, l2)
        e = check_flatter(l1, l2, exact=True)
        assert f.feasible == e.feasible, (l1.to_dict(), l2.to_dict())
        if e.feasible:
            assert witness_residual(e, l1, l2) <= 1e-12
        agree += 1
    assert agree == 60


def test_exact_route_on_constructed_feasible_pairs(rng):
    # equal-mass pair merges keep the barycenters dyadic, so the rational
    # route certifies the constructed averages exactly
    for _ in range(20):
        atoms = np.sort(rng.choice(np.linspace(0, 1, 17), size=4, replace=False))
        mass = float(rng.integers(1, 5)) / 16
        l2 = DiscreteMeasure(atoms, [mass] * 4)
        l1 = DiscreteMeasure(
            [(atoms[0] + atoms[1]) / 2, (atoms[2] + atoms[3]) / 2],
            [2 * mass, 2 * mass])
        e = check_flatter(l1, l2, exact=True)
        assert e.feasible and e.residual == 0.0


@given(st.data())
def test_exact_route_certifies_dyadic_merges(data):
    # distinct atoms on the 1/32 grid with equal dyadic masses; merging runs
    # of 1, 2 or 4 consecutive atoms keeps every barycenter exact
    atoms = sorted(data.draw(st.lists(st.integers(0, 32), min_size=1, max_size=10,
                                      unique=True)))
    mass = 2.0 ** -data.draw(st.integers(0, 5))
    sizes = []
    while sum(sizes) < len(atoms):
        left = len(atoms) - sum(sizes)
        sizes.append(data.draw(st.sampled_from([s for s in (1, 2, 4) if s <= left])))
    l2 = DiscreteMeasure(np.array(atoms) / 32, [mass] * len(atoms))
    ends = np.cumsum([0] + sizes)
    l1 = DiscreteMeasure([l2.atoms[a:b].mean() for a, b in zip(ends, ends[1:])],
                         [mass * s for s in sizes])
    e = check_flatter(l1, l2, exact=True)
    assert e.feasible and e.residual == 0.0
    assert witness_residual(e, l1, l2) <= 1e-12
    assert check_flatter(l1, l2).feasible
    merged = max(sizes) > 1
    assert check_flatter(l2, l1, exact=True).feasible is not merged
    assert check_flatter(l2, l1).feasible is not merged


def test_exact_route_rejects_rounded_barycenters():
    # a merge whose true barycenter is a third is only approximately
    # representable as a double; the rational route must reject the rounded
    # atom while the float route accepts it within tolerance
    l2 = DiscreteMeasure([0.0, 0.75], [1 / 3, 2 / 3])
    l1 = DiscreteMeasure([0.5], [1.0])
    assert check_flatter(l1, l2).feasible
    assert not check_flatter(l1, l2, exact=True).feasible


def test_flatter_empty_measure_edges():
    empty = DiscreteMeasure([], [])
    assert check_flatter(empty, empty).feasible
    w = check_flatter(empty, DIRAC_HALF)
    assert not w.feasible and "mass" in w.reason


def test_exact_flatness_ignores_tol():
    # the float totals differ by 2**-52, the exact ones not at all
    l1 = DiscreteMeasure([0.5], [1.0 + 2.0 ** -52])
    l2 = DiscreteMeasure([0.25, 0.5, 0.75], [2.0 ** -53, 1.0, 2.0 ** -53])
    assert l1.total_mass() != l2.total_mass()
    w = check_flatter(l1, l2, exact=True)
    assert w.feasible and w.residual == 0.0
    # totals 2**-40 apart match within MATCH_TOL, but not exactly
    off = DiscreteMeasure([0.5], [1.0 + 2.0 ** -40])
    assert check_flatter(off, DIRAC_HALF).feasible
    w = check_flatter(off, DIRAC_HALF, exact=True)
    assert not w.feasible and w.reason == "total mass mismatch (exact)"


def test_exact_flatness_certifies_a_total_past_2_to_the_24():
    # the float witness misses l1's mass by 2**-28, above MATCH_TOL but
    # within MATCH_TOL times the total, so Coupling accepts it
    l1 = DiscreteMeasure([0.5], [2.0 ** 24 + 2.0 ** -28])
    l2 = DiscreteMeasure([0.25, 0.5, 0.75], [2.0 ** -29, 2.0 ** 24, 2.0 ** -29])
    w = check_flatter(l1, l2, exact=True)
    assert w.feasible and w.residual == 0.0


def test_exact_flatness_reasons_carry_the_exact_suffix():
    w = check_flatter(DIRAC_HALF, DiscreteMeasure([0.5], [0.75]), exact=True)
    assert not w.feasible and w.reason == "total mass mismatch (exact)"
    w = check_flatter(DiscreteMeasure([0.2], [1.0]), DiscreteMeasure([0.8], [1.0]), exact=True)
    assert not w.feasible
    assert w.reason == "no coupling satisfies the barycenter constraints (exact)"


def test_measure_and_witness_reprs():
    assert repr(ENDS) == "DiscreteMeasure(n=2, total=1)"
    exact = check_flatter(DIRAC_HALF, ENDS, exact=True)
    assert repr(exact) == "FlatnessWitness(feasible, residual=0)"
    refused = check_flatter(ENDS, DIRAC_HALF)
    assert refused.residual is None and refused.coupling is None
    assert repr(refused) == ("FlatnessWitness(infeasible (no coupling satisfies the "
                             "barycenter constraints), residual=None)")


def test_exact_flatness_on_empty_measures():
    empty = DiscreteMeasure([], [])
    w = check_flatter(empty, empty, exact=True)
    assert w.to_dict() == {"feasible": True, "residual": 0.0, "coupling": None,
                           "reason": "effectively empty measures"}
    tiny = DiscreteMeasure([0.5], [1e-12])
    assert check_flatter(empty, tiny).feasible
    for l1, l2 in ((empty, tiny), (tiny, empty)):
        w = check_flatter(l1, l2, exact=True)
        assert not w.feasible and w.reason == "total mass mismatch (exact)"
