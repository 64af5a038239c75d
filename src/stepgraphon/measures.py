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

from .errors import SolverFailure, StepGraphonError, ValueOutOfRange
from .core import MATCH_TOL, Coupling, _freeze, _mismatch, _support
from .metrics import _marginal_rows, linprog

ATOM_DEDUP_TOL = 1e-12
NO_COUPLING = "no coupling satisfies the barycenter constraints"


class DiscreteMeasure:
    """Finite measure on [0,1]: strictly increasing atoms with positive masses.

    Atoms outside [0,1] and negative or non-finite masses raise ValueOutOfRange.
    The input pairs are sorted by (atom, mass) and atoms within ATOM_DEDUP_TOL
    of a group's first atom are merged into it, so exactly equal atoms sum in
    ascending-mass order: any reordering of the pairs gives the same bits,
    which makes the frequency measures of rearranged kernels bitwise equal.
    Masses whose merged sums or total overflow float64 raise StepGraphonError.
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
        for x, w in zip(a.tolist(), m.tolist()):  # float sums overflow to inf without a warning
            if out_a and x - out_a[-1] <= ATOM_DEDUP_TOL:
                out_m[-1] += w
            else:
                out_a.append(min(max(x, 0.0), 1.0))
                out_m.append(w)
        keep = [i for i, w in enumerate(out_m) if w > 0]
        self.atoms = _freeze(np.array([out_a[i] for i in keep]))
        self.masses = _freeze(np.array([out_m[i] for i in keep]))
        with np.errstate(over="ignore"):  # an overflowing total is refused here
            total = self.masses.sum()
        if not np.isfinite(total):
            raise StepGraphonError("masses overflow float64: their total is not finite")

    @property
    def n(self):
        return len(self.atoms)

    def total_mass(self):
        return float(self.masses.sum())

    def first_moment(self):
        return float(np.dot(self.atoms, self.masses))

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
    A refusal has no coupling and no residual: both are None.
    """

    def __init__(self, feasible, coupling=None, residual=None, reason=""):
        self.feasible = bool(feasible)
        self.coupling = coupling
        self.residual = residual
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
        residual = "None" if self.residual is None else f"{self.residual:.3g}"
        return f"FlatnessWitness({tag}, residual={residual})"


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
    S, _ = _support(W)
    degs = np.array([fsum(row) for row in S.values * S.weights])
    return DiscreteMeasure(np.clip(degs, 0.0, 1.0), S.weights)


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


def check_flatter(l1, l2, exact=False):
    """Decide whether l1 is at least as flat as l2, returning a witness.

    The float route fast-fails when the total masses or the first moments
    (both forced by the coupling constraints) differ as core._mismatch
    decides: by more than MATCH_TOL up to a total of 1, relative to the
    total past it.  It then refutes by Strassen's call functions C(t) =
    sum p (x - t)_+, compared at every atom of l2, and solves the
    feasibility LP only for pairs that pass.  The LP has the transport cost
    |x - y| as objective, which pins the witness to the diagonal whenever
    the measures coincide.  HiGHS is held to a primal feasibility tolerance
    of MATCH_TOL, the marginal tolerance Coupling then enforces on the
    witness.  The masses are divided by s = 2**round(log2(total mass)) for
    the solve and the witness is multiplied back: the scaling is exact, 1
    for totals near 1, and lets extreme totals reach the solver near 1.

    The screen refutes only what that LP cannot satisfy.  Let e =
    MATCH_TOL * s and let psi >= 0 meet the 2n + m - 1 equations
    within e, with row sums r_i and barycenters b_i.  The dropped last
    column sum then misses q_m by at most (n + m - 1) e + |T1 - T2|.  For
    t in [0, 1], Jensen's inequality on each row gives
    sum_j c_j (y_j - t)_+ >= sum_i (b_i - r_i t)_+ >= C1(t) - 2 n e, and
    the column sums c_j give sum_j c_j (y_j - t)_+ <= C2(t) + (m - 1) e +
    (n + m - 1) e + |T1 - T2|.  So C1 - C2 <= (3n + 2m - 2) e + |T1 - T2|.
    Each float call sum of k nonnegative terms, each at most its mass, is
    off by at most (k + 1) eps/2 times its total, so (n + m + 4)(T1 + T2) eps
    also covers the difference, the totals and the barycenter right-hand
    sides.  A pair above the sum of both, both taken in units of s (exact,
    and finite at any total), gets the LP's own refusal.

    The exact mode alone decides, with no tolerance, over the exact binary
    expansions of the inputs with Strassen's convex-order test and returns
    the shadow coupling as witness (see _check_flatter_exact).  It decides
    the floats as given, so it can refute measures that were computed in
    floats, such as averages or the frequency measures of a stepping, whose
    true relation the rounding broke; the float route is the one for those.
    """
    if exact:
        return _check_flatter_exact(l1, l2)
    t1, t2 = l1.total_mass(), l2.total_mass()
    if _mismatch(t1, t2):
        return FlatnessWitness(False, reason="total mass mismatch")
    if l1.n == 0 or l2.n == 0:
        # the mass check leaves the other total at most MATCH_TOL
        return FlatnessWitness(True, None, residual=max(t1, t2),
                               reason="effectively empty measures")
    if _mismatch(l1.first_moment(), l2.first_moment()):
        return FlatnessWitness(False, reason="first moment mismatch")
    scale = 2.0 ** min(round(log2(t1)), 1023)  # 2.0 ** 1024 overflows
    n, m = l1.n, l2.n
    margin = ((3 * n + 2 * m - 2) * MATCH_TOL + abs(t1 - t2) / scale
              + (n + m + 4) * (t1 / scale + t2 / scale) * np.finfo(float).eps)
    if ((_calls(l1, l2.atoms) - _calls(l2, l2.atoms)) / scale).max() > margin:
        return FlatnessWitness(False, reason=NO_COUPLING)
    a, b = _flatness_system(l1, l2)
    cost = np.abs(np.subtract.outer(l1.atoms, l2.atoms)).ravel()
    x = linprog(cost, a, b / scale, primal_feasibility_tolerance=MATCH_TOL)
    if x is None:
        return FlatnessWitness(False, reason=NO_COUPLING)
    x = np.clip(x, 0.0, None) * scale
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
    if not p:
        # equal totals and positive masses: both measures are empty
        return FlatnessWitness(True, None, residual=0.0, reason="effectively empty measures")

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
    p1.require_marginals(p1.row_marginal, q)
    p2.require_marginals(q, p2.col_marginal)
    xi = p1.matrix @ (p2.matrix / q[:, None])
    return Coupling(xi, p1.row_marginal, p2.col_marginal)
