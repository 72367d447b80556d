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
play identical roles in f (``symmetrize``) get equal weights.  The strata
worth solving are read off the vertices of R = {u >= 0 : <e, u> >= 1};
each is solved by damped Newton, the lowest klt-valid root wins and is
snapped to exact rationals when the exact value confirms it.  Weights are
max-normalized, and the answer depends on the model alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

# perfbench/tracer.py looks this binding up by name under ``--trace 1``;
# nothing here calls it, and the import can go once the tracer drops it
from scipy.optimize import minimize as _scipy_minimize  # noqa: F401

from . import core
from .exact import Scalar, inverse_fraction
from .models import (
    DomainError,
    Hypersurface,
    Model,
    NonKltModelError,
    SmoothPoint,
    ToricCone,
    UnsupportedModelError,
    check_weight,
)

_SNAP_DENOMINATORS = (
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 18, 20, 24, 30, 32, 36,
    40, 45, 48, 60, 64, 72, 81, 90, 96, 108, 120, 128,
)
_VALUE_MATCH_RTOL = 1e-9
_BOUNDARY_FRACTION = 0.01
_ROOT_TOL = 1e-12
_TIE_TOL = 1e-9
_STEP_TOL = 1e-9
_LOG_S_CAP = 20.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MinimizationResult:
    """Outcome of one minimization run.

    ``weight`` is max-normalized; ``value`` is the normalized volume there
    (exact when the weight snapped to rationals).  ``active_monomials``
    lists the support exponents attaining the weighted order at the
    minimizer.  ``starts_used`` counts the tie strata solved (0 for the
    smooth and toric closed forms).  ``first_order_residual`` is the
    largest relative Clarke gradient component x_i * d/dx_i log hvol at
    the reported weight, with the multipliers of the winning stratum (0.0
    for the closed forms); when no stratum has a klt-valid stationary
    point, the barycentre of the active monomials stands in for them.
    """

    weight: tuple[Scalar, ...]
    value: Scalar
    active_monomials: tuple[tuple[int, ...], ...]
    status: str
    starts_used: int
    first_order_residual: float

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


def evaluate_branch(model: Hypersurface, weight: Sequence[Scalar], active) -> Scalar:
    """Value of the smooth branch that pretends ``active`` attains v_x(f).

    Equals the normalized volume when ``active`` really is minimal at x.
    Otherwise the returned number has no comparison guarantee against the
    true value; callers should treat it as advisory.
    """
    if not isinstance(model, Hypersurface):
        raise UnsupportedModelError("evaluate_branch applies to hypersurface models")
    x = check_weight(model, weight)
    active = tuple(int(e) for e in active)
    if active not in model.support:
        raise DomainError(f"{active} is not a monomial of the support")
    v = sum(xi * ei for xi, ei in zip(x, active))
    return (sum(x) - v) ** model.dim * v / math.prod(x)


def minimize_hvol(
    model: Model,
    starts: int = 12,
    seed: int = 0,
    tolerance: float = 1e-7,
) -> MinimizationResult:
    """Minimize the normalized volume of monomial valuations on the model.

    The minimizer is deterministic: ``starts`` (which must be >= 1) and
    ``seed`` are accepted for compatibility and do not change the answer.
    ``status`` is "converged" when the first-order residual is at most
    ``tolerance``, "boundary-suspect" when the weight sits next to the
    A = 0 edge, and "max-iter" otherwise.
    """
    if starts < 1:
        raise DomainError("starts must be >= 1")
    if isinstance(model, (SmoothPoint, ToricCone)):
        return _closed_form(model)
    if not isinstance(model, Hypersurface):
        raise UnsupportedModelError(f"unknown model kind {model!r}")
    if all(min(e) >= 1 for e in model.support):
        raise NonKltModelError(
            "every monomial of f is divisible by every coordinate; "
            "the log discrepancy is non-positive on the whole weight cone"
        )
    problem = _build_problem(model)
    roots, solved = _stationary_points(problem)
    if not roots and len(problem.classes) < model.ambient_dim:
        # the symmetric slice can miss the klt-valid region entirely (log
        # canonical boundary models); retry without symmetry reduction
        problem = _build_problem(model, trivial_classes=True)
        roots, more = _stationary_points(problem)
        solved += more
    if roots:
        u, ebar = _select_best(problem, roots)
        weight, value = _finalize(model, problem.expand(u), problem.value(u))
    else:
        # here the problem has one class per coordinate, after the retry if needed
        weight, ebar = _boundary_weight(model), None
        value = core.normalized_volume(model, weight).normalized_volume
    residual = _clarke_residual(problem, weight, ebar)
    return MinimizationResult(
        weight=weight,
        value=value,
        # exact weights resolve ties exactly; the tolerance only matters on
        # the float path
        active_monomials=core.active_monomials(weight, model.support, rel_tol=1e-9),
        status=_status(model, weight, residual, tolerance),
        starts_used=solved,
        first_order_residual=residual,
    )


def _closed_form(model: Model) -> MinimizationResult:
    if isinstance(model, SmoothPoint):
        weight = (Fraction(1),) * model.dim
    else:
        centre = [sum(g[i] for g in model.generators) for i in range(model.rank)]
        top = max(abs(c) for c in centre)
        weight = tuple(Fraction(c, top) for c in centre)
    value = core.normalized_volume(model, weight).normalized_volume
    return MinimizationResult(weight, value, (), "converged", 0, 0.0)


# ---------------------------------------------------------------------------
# problem construction


@dataclass
class _Problem:
    """The objective on weights u that are constant on each coordinate class."""

    model: Hypersurface
    classes: tuple[tuple[int, ...], ...]
    sizes: np.ndarray  # class sizes
    rows: np.ndarray  # reduced exponents: per monomial, the sum over each class

    def value(self, u: np.ndarray) -> float:
        """The objective at a positive u with A > 0, which every root is."""
        v = float(np.min(self.rows @ u))
        return (float(self.sizes @ u) - v) ** self.model.dim * v / float(np.prod(u**self.sizes))

    def expand(self, u: np.ndarray) -> np.ndarray:
        owner = [j for i in range(self.model.ambient_dim) for j, c in enumerate(self.classes) if i in c]
        return np.asarray(u, dtype=float)[owner]


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
    return _Problem(model, classes, sizes, np.array(reduced, dtype=float))


# ---------------------------------------------------------------------------
# stratum stationarity solve


def _stationary_points(problem: _Problem):
    """The klt-valid roots (u, ebar) of every tie stratum, and the number of strata.

    Newton starts at the barycentre and the vertices of each multiplier
    simplex.  A root counts if no monomial outside S is cheaper and, for
    |S| >= 2, the multipliers are nonnegative.
    """
    strata = _strata(problem.rows, len(problem.classes))
    n, sizes = problem.model.dim, problem.sizes
    roots = []
    for k in sorted({len(subset) for subset in strata}):
        starts = np.vstack([np.full((1, k), 1.0 / k)] + ([np.eye(k)] if k > 1 else []))
        ties = np.array([problem.rows[list(subset)] for subset in strata if len(subset) == k])
        tie = np.repeat(ties, len(starts), axis=0)
        mu, s, found = _newton(tie, sizes, n, np.tile(starts, (len(ties), 1)))
        mu, s, tie = mu[found], s[found], tie[found]
        ebar = np.einsum("bk,bkm->bm", mu, tie)
        u = sizes / (n * sizes + (s - n)[:, None] * ebar)
        keep = (mu.min(axis=1) >= -_TIE_TOL) | (k == 1)
        keep &= s * np.min(u @ problem.rows.T, axis=1) >= 1 - _TIE_TOL
        roots += zip(u[keep], ebar[keep])
    return roots, len(strata)


def _strata(rows: np.ndarray, m: int):
    """Index sets of at most m affinely independent rows tight at one vertex of R.

    The face {w in R : <e, w> = 1 for e in F} of R, for the active set F
    of a minimizer u, holds u / v(u) and, being pointed, a vertex of R.
    By Caratheodory ebar lies in the hull of an affinely independent
    subset of F, and m + 1 independent ties in m variables force u = 0.
    """
    tight = {tuple(np.flatnonzero(np.abs(rows @ w - 1) <= 1e-9)) for w in _vertices(rows)[0]}
    subsets = {sub for t in tight for k in range(min(m, len(t))) for sub in itertools.combinations(t, k + 1)}
    return [
        sub for sub in sorted(subsets)
        if len(sub) == 1 or np.linalg.matrix_rank(rows[list(sub[1:])] - rows[sub[0]]) == len(sub) - 1
    ]


def _vertices(rows: np.ndarray):
    """The vertices of R = {u >= 0 : rows @ u >= 1} and a basis of each.

    A basis indexes m independent tight constraints, rows before the
    coordinates u_c = 0, and holds a row.  Batches bound the memory.
    """
    count, m = rows.shape
    constraints = np.vstack([rows, np.eye(m)])
    rhs = np.concatenate([np.ones(count), np.zeros(m)])
    bases = (b for b in itertools.combinations(range(count + m), m) if b[0] < count)
    vertices, kept = [], []
    while batch := list(itertools.islice(bases, 1 << 14)):
        batch = np.array(batch)
        batch = batch[np.abs(np.linalg.det(constraints[batch])) > 0.5]  # integer dets
        u = np.linalg.solve(constraints[batch], rhs[batch][..., None])[..., 0]
        feasible = np.all(u >= -1e-12, axis=1) & np.all(u @ rows.T >= 1 - 1e-9, axis=1)
        vertices.append(u[feasible])
        kept.append(batch[feasible])
    return np.concatenate(vertices), np.concatenate(kept)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _newton(tie: np.ndarray, sizes: np.ndarray, n: int, mu: np.ndarray):
    """Damped Newton on a batch of stratum systems in (mu, t = log s), from s = n.

    The equations are s <e, u> = 1 for e in the stratum and sum(mu) = 1,
    with u_c = size_c / D_c and D_c = n size_c + (s - n) ebar_c; in the form
    <e, u> = 1/s both sides fade as s grows and every stratum looks solved.
    Steps are halved until every D_c > 0 and |log s| <= _LOG_S_CAP.
    Returns the last (mu, s) of every run and which runs converged.
    """
    runs, k = mu.shape

    def evaluate(rows, mu, t):
        s = np.exp(t)
        ebar = np.einsum("bk,bkm->bm", mu, tie[rows])
        denom = n * sizes + (s - n)[:, None] * ebar
        u = sizes / denom
        g = np.column_stack([s[:, None] * np.einsum("bkm,bm->bk", tie[rows], u) - 1, mu.sum(axis=1) - 1])
        return g, denom, u, s, ebar

    t = np.full(runs, math.log(n))
    g, denom, u, s, ebar = state = evaluate(slice(None), mu, t)
    live, found = np.arange(runs), np.zeros(runs, dtype=bool)
    for _ in range(60):
        if not len(live):
            break
        tl, sl, tw = tie[live], s[live], tie[live] * (u / denom)[live, None, :]
        jac = np.zeros((len(live), k + 1, k + 1))
        jac[:, :k, :k] = -(sl * (sl - n))[:, None, None] * tw @ tl.transpose(0, 2, 1)
        jac[:, :k, k] = sl[:, None] * np.einsum("bkm,bm->bk", tl, u[live])
        jac[:, :k, k] -= (sl * sl)[:, None] * np.einsum("bkm,bm->bk", tw, ebar[live])
        jac[:, k, :k] = 1.0
        step = -(np.linalg.pinv(jac, rcond=(k + 1) * _EPS) @ g[live, :, None])[..., 0]  # lstsq's cutoff
        # a small residual alone is not a root: on a pure power the
        # residual also fades while s runs off to infinity, with unit steps
        done = (np.max(np.abs(g[live]), axis=1) <= _ROOT_TOL) & (np.max(np.abs(step), axis=1) <= _STEP_TOL)
        found[live[done]] = True
        live, step = live[~done], step[~done]
        # the first halving that keeps |log s| within the cap, found at once
        room = (_LOG_S_CAP - np.sign(step[:, k]) * t[live]) / np.abs(step[:, k])
        lam = 0.5 ** np.maximum(0, np.ceil(-np.log2(room)))
        moved = np.zeros(len(live), dtype=bool)
        while np.any(pending := ~moved & (lam >= 1e-12)):
            rows = live[pending]
            trial_mu = mu[rows] + lam[pending, None] * step[pending, :k]
            trial_t = t[rows] + lam[pending] * step[pending, k]
            trial = evaluate(rows, trial_mu, trial_t)
            ok = (np.abs(trial_t) <= _LOG_S_CAP) & np.all(trial[1] > 0, axis=1)
            ok &= np.all(np.isfinite(trial[0]), axis=1)
            mu[rows[ok]], t[rows[ok]] = trial_mu[ok], trial_t[ok]
            for held, new in zip(state, trial):
                held[rows[ok]] = new[ok]
            moved[np.flatnonzero(pending)[ok]] = True
            lam[~moved] /= 2
        live = live[moved]
    return mu, s, found


def _select_best(problem: _Problem, candidates: list) -> tuple:
    """Lowest value wins; within relative 1e-9 of it, the least full weight.

    Minimizers need not be unique (one monomial can stay active along a
    whole ray), so near-ties go to the lexicographically smallest
    max-normalized weight, which lands on the most degenerate stratum.
    """
    values = [problem.value(u) for u, _ in candidates]
    window = min(values) + 1e-9 * max(1.0, abs(min(values)))
    ties = [(tuple(problem.expand(u) / np.max(u)), i) for i, (u, _) in enumerate(candidates)]
    return candidates[min(tie for tie in ties if values[tie[1]] <= window)[1]]


def _boundary_weight(model: Hypersurface) -> tuple[Scalar, ...]:
    """An exact klt-valid weight next to the A = 0 edge.

    With v = 1, A <= 0 on the points of R with coordinate sum <= 1, so the
    edge is nearest at the vertex w of R of least sum.  Some monomial misses
    a coordinate c, so p = 1 + K e_c (K the largest degree) has A(p) > 0.
    With both sums scaled to 1, A is convex on [w, p] and crosses 0 once,
    at t0; a thousandth of the way on, 0 < A <= A(p) / 1000.  If A(w) > 0
    there is no edge and p is returned.
    """
    sup, width = model.support, model.ambient_dim
    vertices, bases = _vertices(np.array(sup, dtype=float))
    basis = bases[np.argmin(vertices.sum(axis=1))]
    inverse = inverse_fraction(
        [sup[i] if i < len(sup) else [int(i - len(sup) == c) for c in range(width)] for i in basis]
    )
    w = [sum(row[j] for j, i in enumerate(basis) if i < len(sup)) for row in inverse]
    c = next(i for e in sup for i in range(width) if e[i] == 0)
    p = [Fraction(1 + max(map(sum, sup)) * (i == c)) for i in range(width)]
    w, p = ([x / sum(y) for x in y] for y in (w, p))
    alpha, beta = ([1 - sum(a * b for a, b in zip(e, y)) for e in sup] for y in (w, p))
    t0 = min(a / (a - b) for a, b in zip(alpha, beta) if b > 0) if max(alpha) <= 0 else 1
    t = t0 + (1 - t0) / 1000
    x = [(1 - t) * a + t * b for a, b in zip(w, p)]
    return tuple(xi / max(x) for xi in x)


# ---------------------------------------------------------------------------
# exact snapping and diagnostics


def _finalize(model: Hypersurface, full: np.ndarray, float_value: float):
    full = full / np.max(full)
    float_weight = tuple(float(v) for v in full)
    accept = float_value * (1 + _VALUE_MATCH_RTOL) + 1e-15
    for den in _SNAP_DENOMINATORS:
        cand = tuple(Fraction(v).limit_denominator(den) for v in float_weight)
        try:
            cand = check_weight(model, cand)
            value = core.normalized_volume(model, cand).normalized_volume
        except DomainError:  # a coordinate snapped to 0, or A <= 0 there
            continue
        if float(value) <= accept:
            # the largest coordinate is 1.0 and snaps to 1, so the snapped
            # weight is max-normalized already
            return cand, value
    return float_weight, float_value


def _clarke_residual(problem: _Problem, weight, ebar) -> float:
    """Largest |x_i * d/dx_i log hvol| with the Clarke multiplier ebar.

    The gradient of log(A^n v / prod x) is n (1 - ebar_i) / A + ebar_i / v
    - 1 / x_i, with ebar_i = ebar_c / size_c on class c; scaling by x_i
    makes it homogeneous of degree zero, like the objective.
    """
    u = np.array([float(weight[cls[0]]) for cls in problem.classes])
    pairs = problem.rows @ u
    v = float(np.min(pairs))
    if ebar is None:  # no stationary point: the barycentre of the active rows
        ebar = problem.rows[pairs <= v * (1 + 1e-9)].mean(axis=0)
    a = float(problem.sizes @ u) - v
    grad = problem.model.dim * (problem.sizes - ebar) / a + ebar / v
    return float(np.max(np.abs(u * grad / problem.sizes - 1)))


def _status(model: Hypersurface, weight, residual: float, tolerance: float) -> str:
    total = sum(float(v) for v in weight)
    v = float(core.weighted_order([float(w) for w in weight], model.support))
    if total - v < _BOUNDARY_FRACTION * total:
        return "boundary-suspect"
    if residual <= tolerance:
        return "converged"
    return "max-iter"
