"""Minimization of the normalized volume over the weight cone.

Smooth points and simplicial toric cones have closed-form minimizers: the
standard blow-up (1, ..., 1) with value n^n, and the sum of the generators
g_j.  In generator coordinates x = sum t_j g_j the toric value is
(sum t)^n |det W| / prod t_i <w_i, g_i>, which the arithmetic-geometric
mean inequality minimizes at t = (1, ..., 1) (the simplicial case of
Martelli-Sparks-Yau volume minimization).

On a hypersurface { f = 0 } the objective A^n v / prod(x) is
scale-invariant and piecewise smooth, with tie strata where the monomials
of a subset S share the minimum v.  A minimizer is a Clarke stationary
point of log hvol: with multipliers mu in the simplex over its active set
S, ebar = sum_{e in S} mu_e e, A normalized to 1 and s = 1/v,

    x_i = 1 / (n + (s - n) ebar_i),    s <e, x> = 1 for every e in S,

which is |S| unknowns whatever the ambient dimension.  Coordinates that
play identical roles in f (``symmetrize``) get equal weights.  The
vertices of R = {u >= 0 : <e, u> >= 1}, integers over one determinant
(``exact.adjugate``), give the strata worth solving (``_strata``, on
integers too), and one exact pass over them (``_vertex_roots``) decides
klt-ness and solves each full stratum, of m rows for m coordinate
classes, at the one vertex where it is tight.  A stratum of one row, or
of m - 1 rows, is one equation in one unknown, s or a parameter t of the
line that S cuts out.  A linear monomial's row has its root at the
standard blow-up, s = n and u = 1/n (on a class of size 1 every s is a
root: a flat family).  Where the line runs along a class S leaves
untouched it is a ray, and its root is one linear equation (``_ray``);
``_univariate_roots`` clears the others to an integer polynomial, reads
the roots of a linear or quadratic one in closed form, finds those of
degree 3 and up by Sturm sequences, a rational root exactly, and decides
validity exactly, at a rational root on its own integers; a one-row
stratum whose row, not a linear monomial, meets every class c in 0 or at
least size_c is proved rootless and skipped (``_rootless``).  Every
stratum of the A-D-E rows, whose polynomials have degree 2 at most and
which have m <= 3, is of these kinds, so Newton runs on none of them.  It
solves the rest, the strata of 2 to m - 2 rows and those of m - 1 rows
holding a linear monomial or whose polynomial vanishes identically, in
one batch of damped runs, each stratum padded in front to the largest
size (``_newton`` says when a run ends).  A run that stalls in a stratum
where no run converged counts where ``polish.proven_root`` proves a box
around one root from where it stopped.  ``starts_used`` counts every
stratum, and the lowest klt-valid root of all wins; weights are
max-normalized.  A vertex root and a rational root of a one-unknown
stratum are exact, and so are the weight and value there.  At an
irrational root of one, as on the irrational D rows, the weight ratios
and the value are products of powers of affine forms in the unknown; the
root's isolating interval is narrowed once, until each form keeps its
sign and both bounds from its ends round to one double, and the candidate
carries those doubles (``_rounded``).  A Newton root's floats (mu, s) are
rounded to the nearest rationals with denominator at most
(2 _STEP_TOL)^(-1/2) = 22360, and are the root where the stratum's
residual is exactly zero there; otherwise the winning root is polished
by Newton steps in fixed-point integers and enclosed in a box proved to
hold one root (``polish``), and the weight and value are the correctly
rounded doubles there.  The answer depends on the model alone: not on
which start reached the root, nor on numpy's kernels.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import core, polish, poly
from .exact import Scalar, adjugate
from .models import (
    DomainError,
    Hypersurface,
    Model,
    NonKltModelError,
    SmoothPoint,
    ToricCone,
    UnsupportedModelError,
)

_ROOT_TOL = 1e-12
_TIE_TOL = 1e-9
_STEP_TOL = 1e-9
_LOG_S_CAP = 20.0
# the multipliers of an accepted root lie in the simplex, so |mu| <= 1; on
# the Newton paths to the accepted roots of the A-D-E rows and of 230 random
# supports |mu| stayed below 54, about a twentieth of this bound, while runs
# that never converge drift on to 1e7 and beyond
_MU_BOUND = 1e3
# narrowings of an irrational root's isolating interval, each by 2^-32 once every
# factor keeps its sign, before its answer is left to polish
_ROUNDS = 4
_EPS = float(np.finfo(float).eps)


def _scipy_minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on call; nothing in hvol calls it.

    Only the benchmark tracer's ``optimize.solver`` target looks this name
    up; the benchmark change that drops that target deletes it too.
    """
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


@dataclass(frozen=True)
class MinimizationResult:
    """Outcome of one minimization run.

    ``weight`` is max-normalized; ``value`` is the normalized volume there
    (exact when the winning root is a vertex of R, a rational root of a
    stratum in one unknown, such as the standard blow-up on a linear
    monomial, or one where the stratum's residual vanishes exactly at the
    rationals nearest its Newton root; otherwise each float is the
    correctly rounded double of its value at that root, wherever the
    isolating interval of an irrational root or, for a Newton root,
    ``polish.polish_root`` decides it, as on every tested support).  Where
    roots tie within 1e-9 of the least value, as on the flat families of a
    linear monomial, the lexicographically least weight wins.
    ``active_monomials`` lists the support exponents attaining the weighted
    order at the minimizer, exactly at an exact weight.  ``status`` is
    "not-converged" when no stratum has a klt-valid root, exact or from
    Newton; the weight is then (1, ..., 1), which need not minimize.
    ``starts_used`` counts
    the tie strata, solved exactly or by Newton (0 for the closed forms).
    """

    weight: tuple[Scalar, ...]
    value: Scalar
    active_monomials: tuple[tuple[int, ...], ...]
    status: str
    starts_used: int

    @property
    def exact(self) -> bool:
        return isinstance(self.value, Fraction)


def symmetrize(model: Hypersurface) -> tuple[tuple[int, ...], ...]:
    """Partition coordinates into classes playing identical roles in f.

    Two coordinates belong to one class when transposing them maps the
    support onto itself.  Weights can be taken constant on each class: the
    objective is symmetric under such transpositions, so the class-constant
    slice contains a minimizer and the search space shrinks accordingly.
    """
    if not isinstance(model, Hypersurface):
        raise UnsupportedModelError("symmetrize applies to hypersurface models")
    return _columns_partition(model.support, model.ambient_dim)


def minimize_hvol(model: Model, seed: int = 0) -> MinimizationResult:
    """Minimize the normalized volume of monomial valuations on the model.

    The minimizer is deterministic: ``seed`` is accepted for compatibility
    and does not change the answer.  A hypersurface germ that is not klt
    raises NonKltModelError, and one with a reduced exponent of 2^53 or
    more raises DomainError.  ``status`` is "converged" when the answer is
    a closed form or a klt-valid root of a tie stratum, and "not-converged"
    when no stratum has such a root.
    """
    if isinstance(model, (SmoothPoint, ToricCone)):
        return _closed_form(model)
    if not isinstance(model, Hypersurface):
        raise UnsupportedModelError(f"unknown model kind {model!r}")
    problem = _build_problem(model)
    vertices = _vertices(problem.rows)
    roots = _vertex_roots(problem, vertices)
    strata = _strata(problem.rows, vertices)
    exact, rest = _univariate_roots(problem, [sub for sub in strata if len(sub) < len(problem.sizes)])
    roots += exact + _stationary_points(problem, rest)
    weight, value = _finalize(problem, _select_best(problem, roots) if roots else None)
    if isinstance(value, Fraction):  # the rows of the sorted, validated support at the least <e, weight>
        scale = math.lcm(*(w.denominator for w in weight))
        scaled = [w.numerator * (scale // w.denominator) for w in weight]
        pairings = [sum(map(operator.mul, e, scaled)) for e in model.support]
        low = min(pairings)
        active = tuple(e for e, v in zip(model.support, pairings) if v == low)
    else:
        active = core.active_monomials(weight, model.support)
    return MinimizationResult(
        weight=weight,
        value=value,
        active_monomials=active,
        status="converged" if roots else "not-converged",
        starts_used=len(strata),
    )


def _closed_form(model: Model) -> MinimizationResult:
    if isinstance(model, SmoothPoint):
        weight = (Fraction(1),) * model.dim
    else:
        centre = [sum(g[i] for g in model.generators) for i in range(model.rank)]
        top = max(abs(c) for c in centre)
        weight = tuple(Fraction(c, top) for c in centre)
    value = core.normalized_volume(model, weight).normalized_volume
    return MinimizationResult(weight, value, (), "converged", 0)


# ---------------------------------------------------------------------------
# problem construction


@dataclass
class _Problem:
    """The objective on weights u that are constant on each coordinate class."""

    model: Hypersurface
    classes: tuple[tuple[int, ...], ...]
    sizes: np.ndarray  # class sizes
    rows: np.ndarray  # reduced exponents: per monomial, the sum over each class
    owner: np.ndarray  # per coordinate, the index of its class

    def value(self, u: np.ndarray) -> float:
        """The objective at a positive u with A > 0, which every root is."""
        v = float(np.min(self.rows @ u))
        return (float(self.sizes @ u) - v) ** self.model.dim * v / float(np.prod(u**self.sizes))

    def root_value(self, tie: np.ndarray, mu, s) -> float:
        """The objective at a root (tie, mu, s), prod((D_c / size_c)^size_c) / s as A = 1 there."""
        if isinstance(s, Fraction):  # one correctly rounded int / int
            return operator.truediv(*self.exact_parts(tie.astype(int).tolist(), [*mu, s])[-1])
        denom = self.model.dim * self.sizes + (float(s) - self.model.dim) * (np.asarray(mu, dtype=float) @ tie)
        return float(np.prod((denom / self.sizes) ** self.sizes)) / float(s)

    def exact_parts(self, rows: list, exact: list):
        """L, L mu, L s, L^2 D_c and the value as (p, q), for exact = (*mu, s) and the lcm L of its denominators."""
        n, sizes = self.model.dim, [int(c) for c in self.sizes]
        scale = math.lcm(*(x.denominator for x in exact))
        *lmu, ls = (x.numerator * (scale // x.denominator) for x in exact)
        ebar = [sum(x * e[c] for x, e in zip(lmu, rows)) for c in range(len(sizes))]
        denom = [n * size * scale**2 + (ls - n * scale) * b for size, b in zip(sizes, ebar)]
        value = math.prod(map(pow, denom, sizes)) * scale, math.prod(map(pow, sizes, sizes)) * scale ** (2 * n + 2) * ls
        return scale, lmu, ls, denom, value

    def expand(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(u, dtype=float)[self.owner]


def _columns_partition(support, width) -> tuple[tuple[int, ...], ...]:
    """Coordinates i, j are equivalent when swapping them permutes the support.

    The relation is transitive, because (i k) = (i j)(j k)(i j), so
    comparing with one member of each class suffices.
    """
    rows = set(tuple(e) for e in support)
    classes: list[list[int]] = []
    for j in range(width):
        for cls in classes:
            i = cls[0]
            if {e[:i] + (e[j],) + e[i + 1 : j] + (e[i],) + e[j + 1 :] for e in rows} == rows:
                cls.append(j)
                break
        else:
            classes.append([j])
    return tuple(tuple(cls) for cls in classes)


def _build_problem(model: Hypersurface, trivial_classes: bool = False) -> _Problem:
    classes = (
        tuple((i,) for i in range(model.ambient_dim))
        if trivial_classes
        else _columns_partition(model.support, model.ambient_dim)
    )
    sizes = np.array([len(c) for c in classes], dtype=float)
    reduced = sorted({tuple(sum(e[i] for i in cls) for cls in classes) for e in model.support})
    if max(map(max, reduced)) >= 1 << 53:  # past it a float row no longer holds the integer
        raise DomainError("the minimizer needs exponents, summed over interchangeable coordinates, below 2^53")
    owner = np.array([j for i in range(model.ambient_dim) for j, c in enumerate(classes) if i in c])
    return _Problem(model, classes, sizes, np.array(reduced, dtype=float), owner)


# ---------------------------------------------------------------------------
# stratum stationarity solve


def _stationary_points(problem: _Problem, strata: list):
    """The klt-valid roots that Newton finds on the given tie strata.

    ``minimize_hvol`` passes the strata that no exact solve takes: those of
    2 to m - 2 rows, and those of m - 1 rows that hold a linear monomial or
    whose polynomial vanishes identically (``_univariate_roots``).  Newton
    starts at the barycentre and the vertices of each multiplier simplex,
    and a stratum's first root ends its other starts.  A stalled run of a
    stratum with no converged run gives the root that ``polish.proven_root``
    proves from where it stopped, if any.  A root counts if no monomial
    outside S is cheaper and the multipliers are nonnegative, both within
    _TIE_TOL.  Each root is (u, tie, mu, s), with the stratum's rows and
    multipliers unpadded.
    """
    n, sizes = problem.model.dim, problem.sizes
    solvable = sorted(strata, key=len)
    if not solvable:
        return []
    rows = np.vstack([problem.rows, np.zeros(len(sizes))])  # the last row pads
    top, runs = len(solvable[-1]), []
    for label, subset in enumerate(solvable):  # one batch, each stratum padded in front to the largest size
        k = len(subset)
        starts = [[1.0 / k] * k] + np.eye(k).tolist()
        runs += [(label, k, [0.0] * (top - k) + start, rows[[-1] * (top - k) + list(subset)]) for start in starts]
    stratum, size, mu, tie = (np.array(x) for x in zip(*runs))
    mu, s, found, stalled = _newton(tie, sizes, n, mu, size, stratum)
    # a stalled run, at a fixed point or still live at the iteration cap, in a
    # stratum that no run solved counts where polish proves a root from it,
    # and takes that root
    for i in np.flatnonzero(stalled):
        lead = top - size[i]
        if not found[stratum == stratum[i]].any():
            if (root := polish.proven_root(tie[i, lead:], mu[i, lead:], s[i], sizes, n)) is not None:
                mu[i, lead:], s[i], found[i] = root[:-1], root[-1], True
    mu, s, tie, size = mu[found], s[found], tie[found], size[found]
    ebar = np.einsum("bk,bkm->bm", mu, tie)
    u = sizes / (n * sizes + (s - n)[:, None] * ebar)
    keep = mu.min(axis=1) >= -_TIE_TOL
    keep &= s * np.min(u @ problem.rows.T, axis=1) >= 1 - _TIE_TOL
    return [(u[i], tie[i, top - size[i] :], mu[i, top - size[i] :], s[i]) for i in np.flatnonzero(keep)]


def _strata(rows: np.ndarray, vertices: list):
    """Index sets of at most m affinely independent rows tight at one vertex of R.

    The face {w in R : <e, w> = 1 for e in F} of R, for the active set F
    of a minimizer u, holds u / v(u) and, being pointed, a vertex of R.
    By Caratheodory ebar lies in the hull of an affinely independent
    subset of F, and m + 1 independent ties in m variables force u = 0.
    Distinct rows are independent in pairs; more are tested on integers,
    and rows tight at w are then linearly independent too.
    """
    m, ints = rows.shape[1], rows.astype(int).tolist()
    tight = {tuple(i for i, e in enumerate(ints) if sum(map(operator.mul, e, w)) == det) for *_, det, w in vertices}
    subsets = sorted({sub for t in tight for k in range(min(m, len(t))) for sub in itertools.combinations(t, k + 1)})

    def independent(sub):  # ``adjugate`` raises on k difference rows of rank below k
        try:
            return bool(adjugate([[x - y for x, y in zip(ints[i], ints[sub[0]])] for i in sub[1:]]))
        except ZeroDivisionError:
            return False

    return [sub for sub in subsets if len(sub) < 3 or independent(sub)]


def _vertices(rows: np.ndarray):
    """The vertices W / det of R = {u >= 0 : rows @ u >= 1}, a basis of each, det > 0.

    A basis indexes m independent tight constraints, rows before the
    coordinates u_c = 0, and holds a row.  Batches bound the memory.  Each
    feasible basis gives (basis, adj, det, W) with W = adj 1 over its rows.
    """
    count, m = rows.shape
    constraints = np.vstack([rows, np.eye(m)])
    rhs = np.concatenate([np.ones(count), np.zeros(m)])
    bases = (b for b in itertools.combinations(range(count + m), m) if b[0] < count)
    kept = []
    while batch := list(itertools.islice(bases, 1 << 14)):
        batch = np.array(batch)
        batch = batch[np.abs(np.linalg.det(constraints[batch])) > 0.5]  # integer dets
        u = np.linalg.solve(constraints[batch], rhs[batch][..., None])[..., 0]
        kept.append(batch[np.all(u >= -1e-12, axis=1) & np.all(u @ rows.T >= 1 - 1e-9, axis=1)])
    ints, vertices = constraints.astype(int).tolist(), []
    for basis in np.concatenate(kept).tolist():
        adj, det = adjugate([ints[i] for i in basis])
        adj, det = (adj, det) if det > 0 else ([[-x for x in row] for row in adj], -det)
        vertices.append((basis, adj, det, [sum(row[j] for j, i in enumerate(basis) if i < count) for row in adj]))
    return vertices


def _vertex_roots(problem: _Problem, vertices: list):
    """Decide klt-ness at the vertices of R, and solve the full strata there exactly.

    Unless sum(w) > 1 at every vertex w of R, raise NonKltModelError.
    With general coefficients for its support f is Newton non-degenerate
    (Kouchnirenko, Invent. Math. 32, 1976), so a toric resolution from the
    dual fan of its Newton polyhedron is a log resolution of (C^{n+1}, X),
    where the divisor of w has log discrepancy sum(w) - v_w(f).  So the
    pair is plt at 0 iff sum(w) > 1 on R, that is at R's vertices (Howald,
    Trans. AMS 353, 2001, for monomial ideals), and by inversion of
    adjunction X is klt at 0 iff the pair is plt.  The ray of e_c, the
    hyperplane x_c = 0, is not exceptional; it holds a vertex only when x_c
    divides f (X is not normal) or is a monomial (X is smooth, and exempt).
    Non-degeneracy on the compact faces suffices when f holds a pure power
    of every coordinate; otherwise it is assumed on every face, as a vertex
    with zero coordinates tests X along a coordinate subspace.  The slice's
    rows cut R and sum(w) = sizes @ w; as R is convex and the sum
    symmetric, the slice has the same least sum.

    A basis B of m rows is a full stratum, tight at its vertex w alone.  At
    its root A = 1 and v = 1/s put w = u / v on the boundary of R, so
    s = sum(w) - 1, u = w / s, ebar_c = size_c (s / w_c - n) / (s - n) and
    mu = B^-T ebar, with sum(mu) = <ebar, w> = 1; as w in R makes no other
    monomial cheaper, the root is valid iff mu >= 0.  At s = n, D_c = n size_c
    for every ebar, so the barycentre is a root.  On the integers of
    w = W / det, this returns the roots (u, tie, mu, s), exact but for u.
    """
    count, m = problem.rows.shape
    n, sizes, rows = problem.model.dim, [int(c) for c in problem.sizes], problem.rows.astype(int).tolist()
    roots = []
    for basis, adj, det, w in vertices:
        total = sum(map(operator.mul, sizes, w))  # det sum(size w)
        if total <= det and problem.model.multiplicity >= 2:  # a linear monomial makes the germ smooth
            full, total = ", ".join(str(Fraction(w[c], det)) for c in problem.owner), Fraction(total, det)
            raise NonKltModelError(
                f"the germ is not klt: w = ({full}) has <e, w> >= 1 for every monomial e and sum(w) = {total} <= 1"
            )
        s = total - det  # det s
        if basis[-1] >= count or min(w) <= 0 or any(sum(map(operator.mul, e, w)) < det for e in rows):
            continue  # not a full stratum, or w is no vertex of R with u > 0
        if s == n * det:  # only at w = (1, ..., 1), as a tight row with e_c >= 1 on each class gives w <= 1
            mu = [Fraction(1, m)] * m
        else:  # mu_j = sum_c size_c (s - n w_c) adj_cj / (w_c (s - n det)), over the product of w
            product = math.prod(w)
            parts = [size * (s - n * x) * (product // x) for size, x in zip(sizes, w)]
            top = [sum(map(operator.mul, parts, column)) for column in zip(*adj)]
            if min(x * (s - n * det) for x in top) < 0:
                continue
            mu = [Fraction(x, product * (s - n * det)) for x in top]
        roots.append((np.array([x / s for x in w]), problem.rows[basis], mu, Fraction(s, det)))
    return roots


class _System(NamedTuple):
    """A stratum's stationarity system in one unknown x, cleared to f(x) = 0.

    The roots worth reading lie in [lo, hi], where a bound of None is no
    bound.  ``solve`` maps a root x = a / b, b > 0, to (mu, s, u), u in
    floats, or to None where the system has no root, and the root is valid
    where every polynomial of ``conditions()`` is >= 0.  ``parts()`` gives
    u_c, up to one positive factor, for each class c and the value
    prod((D_c / size_c)^size_c) / s, each as (coef, factors) for
    coef prod (c0 + c1 x)^k over the pairs ((c0, c1), k) of factors.
    """

    f: list
    lo: Fraction | None
    hi: Fraction | None
    conditions: Callable[[], list]
    solve: Callable
    holds: Callable  # holds(root, a, b) decides conditions() at a rational root on its own integers
    parts: Callable[[], tuple]


class _Isolated(tuple):
    """A candidate (u, tie, mu, s) at an irrational root, with ``answer`` from ``_rounded`` (None: undecided)."""


def _rootless(e, sizes) -> bool:
    """Whether the stratum of the one row e, not a linear monomial, has no root:
    e_c = 0 or e_c >= size_c on every class c.

    With a_c = e_c / size_c, D_c = size_c D(a_c) for D(a) = n (1 - a) + a s,
    so s <e, u> = sum_c size_c a_c s / D(a_c), over the classes e touches.
    Where every D_c > 0, a s / D(a) - 1 = n (a - 1) / D(a) >= 0 for a >= 1,
    so s <e, u> is at least the total size touched, which is > 1 unless e
    is linear: one class of size 1, with a = 1.
    """
    return all(x == 0 or x >= size for x, size in zip(e, sizes))


def _univariate_roots(problem: _Problem, strata: list):
    """Solve exactly the strata of one row or of m - 1 rows, one equation in one unknown each.

    A stratum of m - 1 rows that are all 0 on one class is a ray, whose root
    is one linear equation (``_ray``).  Otherwise either system (``_one_row``,
    ``_line``) clears to an integer polynomial f, with square-free part g
    (f itself if linear); ``_roots_in`` reads the roots of a linear or
    quadratic g in closed form and isolates those of higher degree by Sturm
    counts.  A rational root of g has a denominator dividing lc(g), so once
    its interval is at most 1 / lc(g) wide, the one multiple of 1 / lc(g)
    there is tested exactly; such a root is exact, with no bound on its
    denominators, and solved and judged valid (mu >= 0, no monomial
    cheaper) on integers.  At an irrational root validity is the sign of
    polynomials, decided exactly (``poly.sign_at``), and the root is read
    once on its narrowed interval: in floats at its midpoint, and as the
    correctly rounded answer that the candidate carries (``_rounded``,
    ``_Isolated``).  The row e of a linear monomial has the root mu = (1),
    s = n: there D_c = n size_c, u_c = 1/n and s <e', u> = deg e' >= 1 for
    every row.  A stratum of one row that ``_rootless`` proves to have no
    root is skipped.  A stratum of m - 1 rows that holds a linear monomial,
    or whose f vanishes identically, is left to Newton.  Returns the roots,
    as ``_stationary_points`` gives them, and the strata left.
    """
    m, roots, rest = len(problem.sizes), [], []
    n, sizes, rows = problem.model.dim, [int(c) for c in problem.sizes], problem.rows.astype(int).tolist()
    for subset in strata:
        tie = problem.rows[list(subset)]
        if len(subset) == 1 and sum(rows[subset[0]]) == 1:
            roots.append((np.full(m, 1 / n), tie, [Fraction(1)], Fraction(n)))
            continue
        if len(subset) not in (1, m - 1) or any(sum(rows[i]) == 1 for i in subset):
            rest.append(subset)
            continue
        if len(subset) == 1 and _rootless(rows[subset[0]], sizes):
            continue
        if len(subset) > 1 and (untouched := [c for c in range(m) if not any(rows[i][c] for i in subset)]):
            if (root := _ray(rows, subset, sizes, n, untouched[0])) is not None:
                roots.append((np.array(root[2]), tie, *root[:2]))
            continue
        system = (_one_row if len(subset) == 1 else _line)(rows, subset, sizes, n)
        if system is None:  # R misses the stratum's line
            continue
        if not (f := poly.trim(system.f)):
            rest.append(subset)
            continue
        if len(g := f if len(f) < 3 else poly.squarefree(f)) < 2:  # a linear f is square-free
            continue
        conditions = None
        for a, b in _roots_in(g, system.lo, system.hi):
            if a != b:  # read in floats near an irrational root where the signs hold
                conditions = conditions or system.conditions()
                if all(poly.sign_at(h, g, a, b) >= 0 for h in conditions):
                    a, b, answer = _rounded(system.parts, g, a, b, problem.owner)
                    mu, s, u = system.solve(*((a + b) / 2).as_integer_ratio())
                    roots.append(root := _Isolated((np.array(u), tie, np.array(mu, dtype=float), float(s))))
                    root.answer = answer
            elif (root := system.solve(*(x := a.as_integer_ratio()))) is not None and system.holds(root, *x):
                roots.append((np.array(root[2]), tie, *root[:2]))
    return roots, rest


def _roots_in(g, lo, hi):
    """The roots of the square-free integer g in [lo, hi], None unbounded: (x, x) if rational, else (a, b].

    A linear g's root is -g_0 / g_1 and a quadratic's come from its discriminant
    (``poly.quadratic_roots``); from degree 3 on, Sturm counts isolate the roots,
    each narrowed to width 1 / lc(g) for the rational root test.
    """
    if len(g) == 2:
        x = Fraction(-g[0], g[1])
        return [(x, x)] if (lo is None or lo <= x) and (hi is None or x <= hi) else []
    if len(g) == 3:
        return poly.quadratic_roots(g, lo, hi)
    bound = poly.root_bound(g)
    lo = -bound if lo is None else max(lo, -bound)
    hi = bound if hi is None else min(hi, bound)
    found = [(lo, lo)] if lo <= hi and not poly.hom(g, *lo.as_integer_ratio()) else []
    for a, b in poly.isolate(g, lo, hi) if lo < hi else ():
        a, b = poly.narrow(g, a, b, Fraction(1, g[-1]))
        root = a if a == b else poly.rational_root(g, a, b)
        found.append((a, b) if root is None else (root, root))
    return found


def _products(factors):
    """For pairs (a_i, l_i) of polynomials: prod_i l_i and sum_i a_i prod_{j != i} l_j."""
    lines = [line for _, line in factors]
    partial = [functools.reduce(poly.mul, lines[:i] + lines[i + 1 :], [1]) for i in range(len(lines))]
    sums = poly.combine((1, poly.mul(a, rest)) for (a, _), rest in zip(factors, partial))
    return functools.reduce(poly.mul, lines, [1]), sums


def _one_row(rows, subset, sizes, n):
    """The system of S = {e}: mu = 1, ebar = e and, with D_c = e_c s + n (size_c - e_c),
    s <e, u> = s sum_c e_c size_c / D_c = 1, a polynomial in s once cleared over the
    classes e touches, of that degree at most.  Every D_c > 0 and s > 0 bound s below.
    No monomial e' is cheaper where s <e', u> - 1 >= 0, cleared alike.
    """
    e = rows[subset[0]]
    denom = [[n * (size - x), x] for size, x in zip(sizes, e)]

    def cleared(other):  # s <other, u> - 1 times the D_c of the classes e or other touches
        product, sums = _products([([x * size], d) for x, y, size, d in zip(other, e, sizes, denom) if x or y])
        return poly.combine([(1, [0, *sums]), (-1, product)])

    def holds(root, a, b):  # a sum_c e'_c size_c / (b D_c) >= 1 for every row e', times prod_c b D_c > 0
        product = math.prod(scaled := [x * a + c * b for c, x in denom])
        parts = [size * (product // x) for size, x in zip(sizes, scaled)]
        return all(a * sum(map(operator.mul, other, parts)) >= product for other in rows)

    def parts():  # u_c = size_c / D_c
        value = Fraction(1, math.prod(map(pow, sizes, sizes))), [*zip(denom, sizes), ([0, 1], -1)]
        return [(size, [(d, -1)]) for size, d in zip(sizes, denom)], value

    lo = max([Fraction(0)] + [Fraction(-d[0], d[1]) for d in denom if d[1]])
    return _System(
        cleared(e), lo, None, lambda: [cleared(other) for other in rows if other is not e],
        lambda a, b: ([Fraction(1)], Fraction(a, b), [size * b / (x * a + c * b) for size, (c, x) in zip(sizes, denom)])
        if a * lo.denominator > lo.numerator * b else None,
        holds,
        parts,
    )


def _ray(rows, subset, sizes, n, j):
    """The root (mu, s, u) of the stratum of m - 1 rows S that are all 0 on class j, or None.

    S cuts out the ray w_K = S_K^-1 1, w_j = t, for the other classes K, and
    one elimination of the square S_K (``adjugate``) gives w_K = W / q with
    q = |det S_K|.  The root condition of ``_line`` for the direction e_j,
    <ebar, e_j> = 0, reads s = n t, and with s = sum_K size w + size_j t - 1
    it is linear: t = (sum_K size_c w_c - 1) / N for N = n - size_j, which is
    sum_K size - 1 >= 1 as S has m - 1 >= 2 rows.  Over N q, w_K = N W,
    w_j = T and s = n T for T = sum_K size W - q.  The root is valid under
    ``_line``'s checks: w > 0, <e, w> >= 1 for every row, and
    mu = S_K^-T ebar_K >= 0, where ebar_c = size_c (s / w_c - n) / (s - n).
    Its last check, s != n, holds for S without a linear monomial: every
    class c of K meets a row e of S, where e_c w_c <= <e, w> = 1, so w_K <= 1
    and t = 1 would need w_K = 1, each row of S then summing to 1.
    """
    others = [c for c in range(len(sizes)) if c != j]
    adj, q = adjugate([[rows[i][c] for c in others] for i in subset])
    adj, q = (adj, q) if q > 0 else ([[-x for x in row] for row in adj], -q)
    w, big = [sum(row) for row in adj], n - sizes[j]  # w_c = W_c / q on K, and N
    t = sum(sizes[c] * x for c, x in zip(others, w)) - q  # T, for the root t = T / (N q)
    if min(w) <= 0 or t <= 0:
        return None
    if any(big * sum(e[c] * x for c, x in zip(others, w)) + e[j] * t < big * q for e in rows):
        return None
    # mu_r = sum_c adj_cr size_c (T - N W_c) / (W_c (T - N q)), over the product of W
    product = math.prod(w)
    parts = [sizes[c] * (t - big * x) * (product // x) for c, x in zip(others, w)]
    top = [sum(map(operator.mul, parts, column)) for column in zip(*adj)]
    if min(x * (t - big * q) for x in top) < 0:
        return None
    u = [big * x / (n * t) for x in w]  # u = w / s
    u.insert(j, 1 / n)
    return [Fraction(x, product * (t - big * q)) for x in top], Fraction(n * t, big * q), u


def _line(rows, subset, sizes, n):
    """The system of m - 1 rows S: a polynomial in t.

    The rows are independent (``_strata``), so B = [S; e_j] is
    invertible for the column j of S's echelon form without a pivot, and one
    elimination (``adjugate``) gives M = q B^-1 for q = +-det(B) > 0.  Then
    <e, w> = 1 on S is the line w = B^-1 (1, ..., 1, t) = (p + t d) / q with
    t = w_j, for p the sum of M's first m - 1 columns and d its last.  At a
    root w = u / v lies on the line in R, and s = sum(size w) - 1; from u,
    ebar_c = size_c (s / w_c - n) / (s - n), and as sum(size) = n + 1,
    <ebar, w> = 1 at every w.  So the root condition, ebar in span S or
    <ebar, d> = 0, reads s sum_c d_c size_c / w_c = n <d, size>, cleared
    over the classes d touches.  Then (mu, 0) = B^-T ebar, so
    mu_k = sum_c M_ck ebar_c / q, where row j of M is q e_m, and
    sum(mu) = <ebar, w> = 1.  R cuts the line where w >= 0 and
    <e, w> >= 1 for every row, so a root there makes no monomial cheaper;
    it needs w > 0, s != n (which holds only at w = (1, ..., 1), where S
    would hold a linear monomial) and mu >= 0.
    """
    k, (ops, q) = len(subset), adjugate([rows[i] for i in subset])
    ops, q = (ops, q) if q > 0 else ([[-x for x in row] for row in ops], -q)
    p, d = [sum(row[:k]) for row in ops], [row[k] for row in ops]
    s0, s1 = sum(map(operator.mul, sizes, p)) - q, sum(map(operator.mul, sizes, d))
    product, sums = _products([([x * size], [a, x]) for a, x, size in zip(p, d, sizes) if x])
    bounds = [*zip(p, d), *((sum(map(operator.mul, e, p)) - q, sum(map(operator.mul, e, d))) for e in rows)]
    if any(c0 < 0 for c0, c1 in bounds if not c1):
        return None

    def conditions():  # mu_k (q (s - n))^2 prod_c q w_c, of the sign of mu_k
        numerators = [[size * (s0 - n * a), size * (s1 - n * x)] for size, a, x in zip(sizes, p, d)]
        out = []
        for r in range(k):
            parts = [([ops[c][r] * a for a in part], [p[c], d[c]]) for c, part in enumerate(numerators)]
            out.append(poly.mul([s0 - n * q, s1], _products(parts)[1]))
        return out

    def solve(a, b):  # at t = a / b, w = x / (q b), s = y / (q b) and u = w / s
        x, y = [c0 * b + c1 * a for c0, c1 in zip(p, d)], s0 * b + s1 * a
        if min(x) <= 0 or y == n * q * b:
            return None
        # mu_r = b sum_c M_cr size_c (y - n x_c) / (x_c (y - n q b)), over the product of x
        product = math.prod(x)
        parts = [b * size * (y - n * c) * (product // c) for size, c in zip(sizes, x)]
        top = [sum(map(operator.mul, parts, column)) for column in list(zip(*ops))[:k]]
        return [Fraction(v, product * (y - n * q * b)) for v in top], Fraction(y, q * b), [c / y for c in x]

    return _System(
        poly.combine([(1, poly.mul([s0, s1], sums)), (-n * s1, product)]),
        max((Fraction(-c0, c1) for c0, c1 in bounds if c1 > 0), default=None),
        min((Fraction(-c0, c1) for c0, c1 in bounds if c1 < 0), default=None),
        conditions, solve,
        lambda root, a, b: min(root[0]) >= 0,
        lambda: (  # u_c = w_c / s, so the value is q (s0 + s1 t)^n / prod((p_c + t d_c)^size_c)
            [(1, [([a, x], 1)]) for a, x in zip(p, d)],
            (q, [([s0, s1], n), *(([a, x], -size) for a, x, size in zip(p, d, sizes))]),
        ),
    )


def _rounded(parts, g, a: Fraction, b: Fraction, owner):
    """Narrow (a, b], which holds one irrational root of the square-free integer g, and
    read the max-normalized weight and the value there as correctly rounded doubles.

    The interval is halved, with no cap, until every affine factor
    c0 + c1 x, c1 != 0, of ``_System.parts`` keeps its sign on [a, b].  The
    factors are positive at a valid root, so each integer power of one is
    monotone on [a, b] and its values at a and b bound it; so they bound
    u_c, u_c / u_top for the class top of the largest lower bound, and the
    value.  float(Fraction) is
    correctly rounded, so where both bounds round to one double, that is the
    answer.  The weight counts only where u_c <= u_top for every class,
    unless u_c and u_top are one product.  Returns the interval and the
    answer, or None for it if _ROUNDS narrowings, each by 2^-32, leave it
    undecided.
    """
    weights, value = parts()
    products = (*weights, value)
    factors = {tuple(f) for _, product in products for f, _ in product if f[1]}
    while any((c0 + c1 * a) * (c0 + c1 * b) <= 0 for c0, c1 in factors):
        a, b = poly.narrow(g, a, b, (b - a) / 2)

    def bounds(coef, factors):  # of coef prod f^k on [a, b]
        lo = hi = Fraction(coef)
        for (c0, c1), k in factors:
            low, high = sorted((c0 + c1 * x) ** k for x in (a, b))
            lo, hi = lo * low, hi * high
        return lo, hi

    for _ in range(_ROUNDS):
        ranges = [bounds(*product) for product in products]
        top = max(range(len(weights)), key=lambda c: ranges[c][0])
        low, high = ranges[top]
        ratios = [(1, 1) if own == weights[top] else (lo / high, hi / low) for own, (lo, hi) in zip(weights, ranges)]
        *weight, value_at = [float(lo) for lo, _ in ratios + ranges[-1:]]
        if [float(hi) for _, hi in ratios + ranges[-1:]] == [*weight, value_at] and max(hi for _, hi in ratios) <= 1:
            return a, b, (tuple(weight[c] for c in owner), value_at)
        a, b = poly.narrow(g, a, b, (b - a) / 2**32)
    return a, b, None


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _newton(tie: np.ndarray, sizes: np.ndarray, n: int, mu: np.ndarray, size: np.ndarray, stratum: np.ndarray):
    """Damped Newton on a batch of stratum systems in (mu, t = log s), from s = n.

    The equations are s <e, u> = 1 for e in the stratum and sum(mu) = 1,
    with u_c = size_c / D_c and D_c = n size_c + (s - n) ebar_c; in the form
    <e, u> = 1/s both sides fade as s grows and every stratum looks solved.
    A step takes its first halving with every D_c > 0, |log s| <= _LOG_S_CAP
    and a finite residual: the first halving within the cap is tried for
    every run at once, and only the runs it fails try the smaller ones, all
    in a second pass.

    All strata share the batch: a run of size k = size[i] holds its stratum
    in the last k rows of tie and slots of mu, after zeros, with padded
    residual and step entries 0.  The padded columns of the sum(mu) row are
    0 too, so each Jacobian is its run's (k + 1) x (k + 1) system bordered
    by zeros, and one SVD of the held batch gives every pseudo-inverse by
    pinv's own arithmetic, with lstsq's cutoff (k + 1) eps max(sigma) per
    run.  Only live runs are held.  Each run ends in one of five ways:

    * it converges: residual at most _ROOT_TOL and step at most _STEP_TOL;
    * another run of its stratum (the same label in ``stratum``) converges:
      the stratum's runs all end in that iteration, as every start that
      converges reaches the one root of its stratum on the tested supports
      (tests/test_optimize.py::TestOneRootPerStratum);
    * it runs off in s: it is within one unit of the cap and its undamped
      step would carry |log s| past it.  Where the residual fades like 1/s
      (a pure power), Newton steps t by 1, as -g/g' = 1 for g = c e^-t, so
      such a run climbs to that last unit and would then only be halved
      toward the cap.  A step past the cap from further in is halved as
      before: far from a root Newton overshoots, and on some supports such
      runs still reach the winning root;
    * its multipliers leave |mu| <= _MU_BOUND;
    * its accepted step leaves (mu, t) bitwise unchanged: a fixed point of
      this deterministic iteration, where it would stay unconverged.  An
      exactly zero Newton step ends here, in the iteration that finds it:
      its full step is acceptable, as the point itself already was.

    A run whose step no halving down to 1e-12 makes acceptable stops too.
    The batch stops when no run is live, or after 60 iterations.  Returns
    the last (mu, s) of every run, which runs converged, and which stalled:
    ended at a fixed point or were still live after 60 iterations.
    """
    runs, top = mu.shape
    out_mu, out_s = np.empty_like(mu), np.empty(runs)
    found, stalled = np.zeros(runs, dtype=bool), np.zeros(runs, dtype=bool)

    def evaluate(mu, t, tie, padded):
        s = np.exp(t)
        ebar = np.einsum("bk,bkm->bm", mu, tie)
        denom = n * sizes + (s - n)[:, None] * ebar
        u = sizes / denom
        g = s[:, None] * np.einsum("bkm,bm->bk", tie, u) - 1
        g = np.concatenate((g, mu.sum(axis=1, keepdims=True) - 1), axis=1)
        g[:, :top][padded] = 0
        return [mu, t, g, denom, u, s, ebar]

    def acceptable(trial, halvings):
        t, g, denom = trial[1:4]
        return (halvings >= 1e-12) & (np.abs(t) <= _LOG_S_CAP) & (denom > 0).all(axis=1) & np.isfinite(g).all(axis=1)

    index, padded = np.arange(runs), np.arange(top) < (top - size)[:, None]
    mu, t, g, denom, u, s, ebar = evaluate(mu, np.full(runs, math.log(n)), tie, padded)
    for _ in range(60):
        if not len(index):
            break
        tw = tie * (u / denom)[:, None, :]
        jac = np.zeros((len(index), top + 1, top + 1))
        jac[:, :top, :top] = -(s * (s - n))[:, None, None] * tw @ tie.transpose(0, 2, 1)
        jac[:, :top, top] = s[:, None] * np.einsum("bkm,bm->bk", tie, u)
        jac[:, :top, top] -= (s * s)[:, None] * np.einsum("bkm,bm->bk", tw, ebar)
        jac[:, top, :top] = ~padded
        left, sv, right = np.linalg.svd(jac, full_matrices=False)
        sv = np.where(sv > (size + 1)[:, None] * _EPS * sv.max(axis=1, keepdims=True), 1 / sv, 0)
        inverse = right.transpose(0, 2, 1) @ (sv[..., None] * left.transpose(0, 2, 1))
        step = -(inverse @ g[..., None])[..., 0]
        step[:, :top][padded] = 0
        # a small residual alone is not a root: on a pure power the
        # residual also fades while s runs off to infinity, with unit steps
        done = (np.abs(g).max(axis=1) <= _ROOT_TOL) & (np.abs(step).max(axis=1) <= _STEP_TOL)
        found[index[done]] = True
        solved = np.isin(stratum, stratum[done])
        runoff = (np.abs(t) > _LOG_S_CAP - 1) & (np.abs(t + step[:, top]) > _LOG_S_CAP)
        go_on = ~(solved | runoff | (np.abs(mu).max(axis=1) > _MU_BOUND))
        # the first halving that keeps |log s| within the cap, tried for every run
        room = (_LOG_S_CAP - np.sign(step[:, top]) * t) / np.abs(step[:, top])
        lam = 0.5 ** np.maximum(0, np.ceil(-np.log2(room)))
        trial = evaluate(mu + lam[:, None] * step[:, :top], t + lam * step[:, top], tie, padded)
        ok = acceptable(trial, lam)
        if (miss := np.flatnonzero(go_on & ~ok)).size:
            # the runs it fails evaluate every further halving down to 1e-12
            # in one pass and take their first acceptable one; a run with none
            # stops.  As lam <= 1 and 2^-40 < 1e-12, 40 more halvings hold them
            halvings = (lam[miss, None] * 0.5 ** np.arange(1, 41)).ravel()
            rows = np.repeat(miss, 40)
            trial_mu, trial_t = mu[rows] + halvings[:, None] * step[rows, :top], t[rows] + halvings * step[rows, top]
            more = evaluate(trial_mu, trial_t, tie[rows], padded[rows])
            better = acceptable(more, halvings).reshape(-1, 40)
            moved = better.any(axis=1)
            first = 40 * np.flatnonzero(moved) + better[moved].argmax(axis=1)
            for held, new in zip(trial, more):
                held[miss[moved]] = new[first]
            ok[miss[moved]] = True
        # accepted values are finite and never -0.0, so == compares bits
        still = go_on & ok & (trial[1] == t) & (trial[0] == mu).all(axis=1)
        stalled[index[still]] = True
        keep = go_on & ok & ~still
        if not keep.all():  # the runs that end keep their last (mu, s)
            out_mu[index[~keep]], out_s[index[~keep]] = mu[~keep], s[~keep]
            index, size, stratum, tie, padded, *trial = (a[keep] for a in (index, size, stratum, tie, padded, *trial))
        mu, t, g, denom, u, s, ebar = trial
    out_mu[index], out_s[index], stalled[index] = mu, s, True
    return out_mu, out_s, found, stalled


def _select_best(problem: _Problem, candidates: list) -> tuple:
    """Lowest value wins; within relative 1e-9 of it, the least full weight.

    Minimizers need not be unique (one monomial can stay active along a
    whole ray), so near-ties go to the lexicographically smallest
    max-normalized weight, which lands on the most degenerate stratum.
    Each value is read off its root (``_Problem.root_value``), exactly at an exact root.
    """
    values = [problem.root_value(*root) for _, *root in candidates]
    window = min(values) + 1e-9 * max(1.0, abs(min(values)))
    ties = [(tuple(problem.expand(u) / np.max(u)), i) for i, (u, *_) in enumerate(candidates)]
    return candidates[min(tie for tie in ties if values[tie[1]] <= window)[1]]


# ---------------------------------------------------------------------------
# exact answers


def _finalize(problem: _Problem, best):
    """The weight of the winning candidate (u, tie, mu, s), max-normalized, and its value.

    With no candidate (``best`` None, as on x^3749 + y^34 + z^298140 + w^16
    + yw) the weight is (1, ..., 1), where A > 0 as (1, ..., 1) / multiplicity
    lies in R.  An ``_Isolated`` candidate carries the correctly rounded
    doubles that the interval isolating its irrational root decided; no
    rationals near it can zero the residual, so it skips the step below.
    Past those narrowings, or at a Newton root, a float root (tie, mu, s) is
    rounded to the nearest rationals with denominator at most
    (2 _STEP_TOL)^(-1/2), which lie 2 _STEP_TOL apart or more; an exact
    root, from a vertex of R or a rational root of a one-unknown stratum,
    is taken as it is.  Where the stratum's residual is exactly zero there,
    with every D_c > 0, the weight u / max(u) and the value
    prod((D_c / size_c)^size_c) / s (A = 1 and v = 1/s at a root) are
    exact; otherwise ``polish.polish_root`` gives the correctly rounded
    doubles at the root or, undecided, the float answer stands.
    """
    model = problem.model
    if best is None:
        weight = (Fraction(1),) * model.ambient_dim
        return weight, core.normalized_volume(model, weight).normalized_volume
    if getattr(best, "answer", None):  # an _Isolated candidate that _rounded decided
        return best.answer
    u, tie, mu, s = best
    sizes, bound = [int(c) for c in problem.sizes], int((2 * _STEP_TOL) ** -0.5)
    exact = [*mu, s] if isinstance(s, Fraction) else [Fraction(float(v)).limit_denominator(bound) for v in (*mu, s)]
    # a root exactly where sum(mu) = 1, every D_c > 0 and s <e, u> = 1 on the stratum, u_c = size_c / D_c
    scale, lmu, ls, denom, value = problem.exact_parts(rows := tie.astype(int).tolist(), exact)
    product = math.prod(denom)
    cleared = (ls * scale * sum(x * size * product // d for x, size, d in zip(e, sizes, denom)) for e in rows)
    if sum(lmu) == scale and min(denom) > 0 and all(x == product for x in cleared):
        top = max(exact_u := [Fraction(size, d) for size, d in zip(sizes, denom)])
        return tuple(exact_u[c] / top for c in problem.owner), Fraction(*value)
    float_answer = tuple(problem.expand(u / np.max(u)).tolist()), problem.value(u)
    return polish.polish_root(tie, mu, s, problem.sizes, problem.owner, model.dim) or float_answer
