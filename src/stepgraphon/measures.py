"""Pushforward measures of step kernels and the flatness order.

Flatness of L1 relative to L2 is decided as LP feasibility: a coupling with
the two mass vectors as marginals whose conditional averages reproduce L1's
atoms.  For discrete L1 the barycenter condition only needs to hold at atoms,
which makes the constraint system finite.  Such a coupling exists exactly when
L1 precedes L2 in the convex (Choquet) order, so the exact mode needs no LP:
Strassen's theorem (Ann. Math. Statist. 1965) reduces feasibility to finitely
many call-function inequalities, and the shadow construction (Beiglboeck and
Juillet, Ann. Probab. 2016) builds a witness coupling one atom at a time.
The float route refutes by the same call functions, with a margin that no
coupling within the LP's tolerance can exceed, and solves the LP only for
pairs that pass, to get their witness.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from math import fsum, log2
from operator import mul

import numpy as np

from .errors import MarginalMismatch, SolverFailure, StepGraphonError, ValueOutOfRange
from .core import MATCH_TOL, Coupling, _freeze, _mismatch
from .metrics import _marginal_rows, linprog

ATOM_DEDUP_TOL = 1e-12
# HiGHS rejects a primal feasibility tolerance below this and runs at 1e-7.
HIGHS_TOL_FLOOR = 1e-10
NO_COUPLING = "no coupling satisfies the barycenter constraints"


class DiscreteMeasure:
    """Finite measure on [0,1]: strictly increasing atoms with positive masses.

    Atoms outside [0,1] and negative or non-finite masses raise ValueOutOfRange.
    The input pairs are sorted by (atom, mass) and atoms within ATOM_DEDUP_TOL
    of a group's first atom are merged into it, so exactly equal atoms sum in
    ascending-mass order: any reordering of the pairs gives the same bits,
    which makes the frequency measures of rearranged kernels bitwise equal.
    """

    def __init__(self, atoms, masses):
        a = np.asarray(atoms, dtype=float)
        m = np.asarray(masses, dtype=float)
        if a.shape != m.shape or a.ndim != 1:
            raise StepGraphonError("atoms and masses must be equal-length vectors")
        bad = (a < -ATOM_DEDUP_TOL) | (a > 1 + ATOM_DEDUP_TOL) | ~np.isfinite(a)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueOutOfRange(i, i, a[i], 0.0, 1.0)
        bad = (m < 0) | ~np.isfinite(m)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ValueOutOfRange(i, i, m[i], 0.0, float("inf"))
        order = np.lexsort((m, a))
        a, m = a[order], m[order]
        out_a, out_m = [], []
        for x, w in zip(a, m):
            if out_a and x - out_a[-1] <= ATOM_DEDUP_TOL:
                out_m[-1] += w
            else:
                out_a.append(float(np.clip(x, 0.0, 1.0)))
                out_m.append(float(w))
        keep = [i for i, w in enumerate(out_m) if w > 0]
        self.atoms = _freeze(np.array([out_a[i] for i in keep]))
        self.masses = _freeze(np.array([out_m[i] for i in keep]))

    @property
    def n(self):
        return len(self.atoms)

    def total_mass(self):
        return float(self.masses.sum())

    def first_moment(self):
        return float(np.dot(self.atoms, self.masses))

    def approx_equal(self, other, tol=1e-9):
        if self.n != other.n:
            return False
        if self.n == 0:
            return True
        return (np.abs(self.atoms - other.atoms).max() <= tol
                and np.abs(self.masses - other.masses).max() <= tol)

    def to_dict(self):
        return {"atoms": self.atoms.tolist(), "masses": self.masses.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(d["atoms"], d["masses"])

    def __repr__(self):
        return f"DiscreteMeasure(n={self.n}, total={self.total_mass():.6g})"


class FlatnessWitness:
    """Outcome of a flatness check: coupling witness or a refusal reason.

    `residual` is the largest violation of the marginal and barycenter
    equations by the returned coupling.  The last column sum is not among
    them (it is implied by the others); Coupling checks it on construction.
    """

    def __init__(self, feasible, coupling=None, residual=float("inf"), reason=""):
        self.feasible = bool(feasible)
        self.coupling = coupling
        self.residual = float(residual)
        self.reason = reason

    def to_dict(self):
        return {
            "feasible": self.feasible,
            "residual": self.residual,
            "reason": self.reason,
            "coupling": self.coupling.to_dict() if self.coupling else None,
        }

    def __repr__(self):
        tag = "feasible" if self.feasible else f"infeasible ({self.reason})"
        return f"FlatnessWitness({tag}, residual={self.residual:.3g})"


def range_frequencies(W):
    """Distribution of block values weighted by pair mass."""
    a = W.weights
    mass = np.outer(a, a).ravel()
    keep = mass > 0
    return DiscreteMeasure(W.values.ravel()[keep], mass[keep])


def degree_frequencies(W):
    """Distribution of block degrees weighted by block mass.

    Each degree is the correctly rounded sum of its row's products, so it
    does not depend on the order of the cells and rearranged kernels yield
    bitwise-identical measures.
    """
    keep = W.weights > 0
    degs = np.array([fsum(row) for row in W.values[keep] * W.weights])
    return DiscreteMeasure(np.clip(degs, 0.0, 1.0), W.weights[keep])


def _flatness_system(l1, l2):
    """Equality system A psi = b for the coupling variables (row-major).

    The independent marginal rows come first (see _marginal_rows), then row
    n + m - 1 + i takes the barycenter of row i of psi.
    """
    n, m = l1.n, l2.n
    i = np.arange(n)
    bary = np.zeros((n, n, m))
    bary[i, i, :] = l2.atoms
    a = np.vstack((_marginal_rows(n, m), bary.reshape(n, n * m)))
    b = np.concatenate((l1.masses, l2.masses[:-1], l1.masses * l1.atoms))
    return a, b


def check_flatter(l1, l2, tol=1e-9, exact=False):
    """Decide whether l1 is at least as flat as l2, returning a witness.

    Fast-fails on total-mass or first-moment mismatch (both are forced by
    the coupling constraints).  The float route then refutes by Strassen's
    call functions C(t) = sum p (x - t)_+, compared at every atom of l2,
    and solves the feasibility LP only for pairs that pass.  The LP has the
    transport cost |x - y| as objective, which pins the witness to the
    diagonal whenever the measures coincide.  HiGHS is held to a primal
    feasibility tolerance of min(tol, MATCH_TOL), the marginal tolerance
    Coupling then enforces on the witness; a tol below HiGHS's floor
    HIGHS_TOL_FLOOR raises StepGraphonError.  The masses are divided by
    s = 2**round(log2(total mass)) for the solve and the witness is
    multiplied back: the scaling is exact, 1 for totals near 1, and lets
    extreme totals reach the solver near 1.

    The screen refutes only what that LP cannot satisfy.  Let e =
    min(tol, MATCH_TOL) * s and let psi >= 0 meet the 2n + m - 1 equations
    within e, with row sums r_i and barycenters b_i.  The dropped last
    column sum then misses q_m by at most (n + m - 1) e + |T1 - T2|.  For
    t in [0, 1], Jensen's inequality on each row gives
    sum_j c_j (y_j - t)_+ >= sum_i (b_i - r_i t)_+ >= C1(t) - 2 n e, and
    the column sums c_j give sum_j c_j (y_j - t)_+ <= C2(t) + (m - 1) e +
    (n + m - 1) e + |T1 - T2|.  So C1 - C2 <= (3n + 2m - 2) e + |T1 - T2|.
    Each float call sum of k nonnegative terms, each at most its mass, is
    off by at most (k + 1) eps/2 times its total, so (n + m + 4)(T1 + T2) eps
    also covers the difference, the totals and the barycenter right-hand
    sides.  A pair above the sum of both gets the LP's own refusal.

    The exact mode re-decides feasibility over the exact binary expansions
    of the inputs with Strassen's convex-order test and returns the shadow
    coupling as witness (see _check_flatter_exact).  It decides the floats
    as given, so it can refute measures that were computed in floats, such
    as averages or the frequency measures of a stepping, whose true
    relation the rounding broke; the float route is the one for those.
    """
    if not exact and not tol >= HIGHS_TOL_FLOOR:
        raise StepGraphonError(
            f"tol {tol!r} is below HiGHS's primal feasibility floor {HIGHS_TOL_FLOOR!r}; "
            "use exact=True for a tighter decision")
    t1, t2 = l1.total_mass(), l2.total_mass()
    if abs(t1 - t2) > tol:
        return FlatnessWitness(False, reason="total mass mismatch")
    if l1.n == 0 or l2.n == 0:
        # a coupling with one empty marginal forces the other to vanish
        if max(t1, t2) <= tol:
            return FlatnessWitness(True, None, residual=max(t1, t2),
                                   reason="effectively empty measures")
        return FlatnessWitness(False, reason="empty versus nonempty measure")
    if abs(l1.first_moment() - l2.first_moment()) > tol:
        return FlatnessWitness(False, reason="first moment mismatch")
    if exact:
        return _check_flatter_exact(l1, l2)
    scale = 2.0 ** round(log2(t1))
    n, m = l1.n, l2.n
    margin = ((3 * n + 2 * m - 2) * min(tol, MATCH_TOL) * scale + abs(t1 - t2)
              + (n + m + 4) * (t1 + t2) * np.finfo(float).eps)
    if (_calls(l1, l2.atoms) - _calls(l2, l2.atoms)).max() > margin:
        return FlatnessWitness(False, reason=NO_COUPLING)
    a, b = _flatness_system(l1, l2)
    cost = np.abs(np.subtract.outer(l1.atoms, l2.atoms)).ravel()
    res = linprog(cost, A_eq=a, b_eq=b / scale, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": min(tol, MATCH_TOL)})
    if res.status == 2:
        return FlatnessWitness(False, reason=NO_COUPLING)
    if res.status != 0 or res.x is None:
        raise SolverFailure(f"flatness LP ended with status {res.status}: {res.message}")
    x = np.clip(res.x, 0.0, None) * scale
    coupling = Coupling(x.reshape(l1.n, l2.n), l1.masses, l2.masses)
    return FlatnessWitness(True, coupling, residual=float(np.abs(a @ x - b).max()))


def _calls(measure, t):
    """Call function t -> sum p (x - t)_+ of measure at each point of t."""
    return measure.masses @ np.maximum(np.subtract.outer(measure.atoms, t), 0.0)


def _check_flatter_exact(l1, l2):
    """Exact convex-order certificate over the inputs' binary expansions.

    By Strassen's theorem a coupling exists iff the masses and the means
    agree and l1's call function t -> sum p (x - t)_+ stays below l2's.
    Comparing them at l2's atoms suffices: l1's is convex and l2's is linear
    between its atoms.  A feasible pair gets the shadow coupling
    (Beiglboeck and Juillet): each atom of l1 in turn takes its shadow in the
    remaining l2 mass, the quantile window whose barycenter is the atom.
    Where several couplings exist this witness may differ from the vertex a
    simplex would return; where the coupling is unique it is that coupling.
    """
    x, p, y, q = ([Fraction(v) for v in arr]
                  for arr in (l1.atoms, l1.masses, l2.atoms, l2.masses))
    if sum(p) != sum(q):
        return FlatnessWitness(False, reason="total mass mismatch (exact)")

    def call(atoms, masses, t):
        return sum(w * (a - t) for a, w in zip(atoms, masses) if a > t)

    if (sum(map(mul, p, x)) != sum(map(mul, q, y))
            or any(call(x, p, t) > call(y, q, t) for t in y)):
        return FlatnessWitness(False, reason=f"{NO_COUPLING} (exact)")
    rest = list(q)
    rows = [_take_shadow(rest, y, pi, pi * xi) for xi, pi in zip(x, p)]
    if any(rest):
        raise SolverFailure("shadow coupling left mass of l2 unassigned")
    coupling = Coupling(np.array(rows, dtype=float), l1.masses, l2.masses)
    return FlatnessWitness(True, coupling, residual=0.0, reason="exact rational certificate")


def _take_shadow(rest, y, mass, moment):
    """Remove from `rest` (masses on atoms y) the window of `mass` with `moment`.

    The window between cumulative levels s and s + mass has moment
    H(s + mass) - H(s), H the integral of the quantile function of `rest`:
    nondecreasing in s and linear between the breaks where s or s + mass
    meets a level, so the two breaks that bracket `moment` pin s down.
    """
    levels = [Fraction(0), *accumulate(rest)]
    moments = [Fraction(0), *accumulate(map(mul, rest, y))]

    def integral(u):
        k = min(bisect_right(levels, u), len(y)) - 1
        return moments[k] + (u - levels[k]) * y[k]

    top = levels[-1] - mass
    breaks = sorted({s for c in levels for s in (c, c - mass) if 0 <= s <= top})
    values = [integral(s + mass) - integral(s) for s in breaks]
    b = bisect_left(values, moment)
    if b == len(values) or (b == 0 and values[0] != moment):
        raise SolverFailure("no window of the remaining mass has the atom's barycenter")
    s = breaks[b]
    if values[b] != moment:
        s0, v0 = breaks[b - 1], values[b - 1]
        s = s0 + (moment - v0) * (s - s0) / (values[b] - v0)
    row = [max(Fraction(0), min(hi, s + mass) - max(lo, s))
           for lo, hi in zip(levels, levels[1:])]
    rest[:] = [r - v for r, v in zip(rest, row)]
    return row


def compose_couplings(p1, p2, mid):
    """Chain two flatness witnesses through the shared middle measure."""
    q = np.asarray(mid.masses, dtype=float)
    if len(p1.col_marginal) != len(q) or len(p2.row_marginal) != len(q):
        raise MarginalMismatch("middle measure size does not match the couplings")
    if _mismatch(p1.col_marginal, q) or _mismatch(p2.row_marginal, q):
        raise MarginalMismatch("couplings do not share the middle marginal")
    keep = q > 0
    left = p1.matrix[:, keep]
    right = p2.matrix[keep, :] / q[keep, None]
    xi = left @ right
    return Coupling(xi, p1.row_marginal, p2.col_marginal)


def strictly_flatter(l1, l2):
    """Operational strict flatness at default tolerances: feasible witness, distinct measures."""
    return check_flatter(l1, l2).feasible and not l1.approx_equal(l2)


def add_measures(l1, l2):
    """Atom-wise union with summed masses (totals add)."""
    return DiscreteMeasure(
        np.concatenate((l1.atoms, l2.atoms)),
        np.concatenate((l1.masses, l2.masses)),
    )


__all__ = [
    "DiscreteMeasure",
    "FlatnessWitness",
    "range_frequencies",
    "degree_frequencies",
    "check_flatter",
    "compose_couplings",
    "strictly_flatter",
    "add_measures",
]
