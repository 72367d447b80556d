"""Optimizer behavior: exact recoveries, diagnostics, determinism, edge cases."""

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import operator
from decimal import Decimal, localcontext
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hvol import (
    DomainError,
    Hypersurface,
    NonKltModelError,
    NonKltWeightError,
    SmoothPoint,
    ToricCone,
    UnsupportedModelError,
    a_singularity,
    d_singularity,
    e_singularity,
    log_discrepancy,
    minimize_hvol,
    normalized_volume,
    orthant_cone,
    symmetrize,
)
from hvol import cli, core, optimize, polish, poly
from hvol.tables import alpha_star


class TestSymmetrize:
    def test_a_family_two_classes(self):
        model = a_singularity(4, 3)
        assert symmetrize(model) == ((0, 1, 2, 3), (4,))

    def test_d_family_three_classes(self):
        model = d_singularity(3, 4)
        assert symmetrize(model) == ((0, 1, 2), (3,), (4,))

    def test_generic_support_singletons(self):
        model = Hypersurface(((2, 0, 0), (0, 3, 0), (0, 0, 4)))
        assert symmetrize(model) == ((0,), (1,), (2,))

    def test_non_hypersurface_rejected(self):
        with pytest.raises(UnsupportedModelError):
            symmetrize(SmoothPoint(3))


class TestMinimizeSmooth:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_standard_blowup_minimizes(self, n):
        result = minimize_hvol(SmoothPoint(n), seed=0)
        assert result.weight == (F(1),) * n
        assert result.value == n**n
        assert result.status == "converged"
        assert result.exact


class TestMinimizeHypersurface:
    def test_a43_table_entry(self):
        result = minimize_hvol(a_singularity(4, 4), seed=0)
        assert result.weight == (F(1), F(1), F(1), F(1), F(2, 3))
        assert result.value == F(4096, 27)
        assert result.status == "converged"

    def test_e7_surface_entry(self):
        result = minimize_hvol(e_singularity(7, 2), seed=0)
        assert result.weight == (F(1), F(1), F(4, 9), F(2, 3))
        assert result.value == F(250, 27)
        # at the minimizer all four monomials tie
        assert len(result.active_monomials) == 4

    @pytest.mark.parametrize(
        "model, weight",
        [
            (a_singularity(3, 1), (F(1, 2), F(1, 2), F(1, 2), F(1))),
            *(("seeded " + str(i), (F(1), F(1, 2), F(1, 2), F(1, 2))) for i in (8, 13, 22, 38, 47)),
        ],
        ids=["A n=3 k=1", *("seeded " + str(i) for i in (8, 13, 22, 38, 47))],
    )
    def test_flat_family_reports_most_tied_point(self, model, weight):
        # A n=3 k=1: any last coordinate in (0, 2] minimizes; the reported
        # weight is the lexicographically smallest normalized one, where
        # the quadratic monomials tie with the linear one.  On the seeded
        # flat families the linear monomial's own root (1, 1, 1, 1) ties with
        # a two-row root (1, 1/2, 1/2, 1/2) at the value 27, which must win;
        # a Newton root on the linear monomial, (0.9999999999999998, 1, 1, 1),
        # won by its last bit
        if isinstance(model, str):
            model = _golden_model(_golden_row(model))
        result = minimize_hvol(model, seed=0)
        assert result.weight == weight
        assert result.value == 27

    def test_least_weight_among_the_least_finalized_values(self):
        # the second route for _select_best, on every 20th of the 1216 flat
        # families made by adding a linear monomial on each coordinate in turn
        # to seeded_supports(300, seed=13): every candidate root finalized
        # alone, the answer is the least finalized value and, among the
        # candidates of that value, the lexicographically least weight
        for support in linear_augmented_supports(seeded_supports(300, seed=13))[::20]:
            model = Hypersurface(support, allow_smooth_germ=True)
            problem = optimize._build_problem(model)
            vertices = optimize._vertices(problem.rows)
            strata = optimize._strata(problem.rows, vertices)
            smaller = {sub: v for sub, v in strata.items() if len(sub) < len(problem.sizes)}
            exact, rest = optimize._univariate_roots(problem, smaller)
            roots = optimize._vertex_roots(problem, vertices) + exact + optimize._stationary_points(problem, rest)
            answers = [optimize._finalize(problem, root) for root in roots]
            least = min(value for _, value in answers)
            result = minimize_hvol(model)
            assert repr((result.weight, result.value)) == repr(min(a for a in answers if a[1] == least)), support

    def test_irrational_d_entry(self):
        n = 2
        result = minimize_hvol(d_singularity(n, 5), seed=0)
        a = alpha_star(n)
        expected = (n - a) ** (n + 1) / (a * (1 - a))
        assert result.status == "converged"
        assert not result.exact
        assert abs(float(result.value) - expected) <= 1e-9 * expected
        assert abs(float(result.weight[n]) - a) <= 1e-6
        assert abs(float(result.weight[n + 1]) - (2 - 2 * a)) <= 1e-6

    def test_max_normalization(self):
        for model in (a_singularity(2, 4), e_singularity(8, 2)):
            result = minimize_hvol(model, seed=3)
            assert max(float(w) for w in result.weight) == 1.0

    def test_value_consistent_with_report(self):
        result = minimize_hvol(e_singularity(6, 2), seed=0)
        report = normalized_volume(e_singularity(6, 2), result.weight)
        assert result.value == report.normalized_volume

    def test_determinism(self):
        a = minimize_hvol(d_singularity(2, 4), seed=123)
        b = minimize_hvol(d_singularity(2, 4), seed=123)
        assert a == b

    def test_log_canonical_cone_rejected(self):
        # the cubic cone in 3-space is log canonical, not klt: the vertex
        # (1/3, 1/3, 1/3) of R has coordinate sum exactly 1
        cubic = Hypersurface(((3, 0, 0), (0, 3, 0), (0, 0, 3)))
        with pytest.raises(NonKltModelError, match=r"w = \(1/3, 1/3, 1/3\) .* sum\(w\) = 1 <= 1"):
            minimize_hvol(cubic, seed=0)

    def test_infeasible_model_rejected(self):
        # every monomial divisible by every coordinate: A <= 0 throughout
        model = Hypersurface(((2, 2), (1, 3)))
        with pytest.raises(NonKltModelError):
            minimize_hvol(model, seed=0)

    def test_huge_exponent_rejected(self):
        # past 2^53 a float row no longer holds the exponent
        with pytest.raises(DomainError, match=r"below 2\^53"):
            minimize_hvol(Hypersurface(((2, 0, 0), (0, 2, 0), (0, 0, 10**400))))
        with pytest.raises(DomainError, match=r"below 2\^53"):
            minimize_hvol(a_singularity(2, 2**53))  # z^(2^53)
        # x^(2^52) y^(2^52) sums to 2^53 on the class {x, y}
        with pytest.raises(DomainError, match=r"below 2\^53"):
            minimize_hvol(Hypersurface(((2**52, 2**52, 0), (2, 0, 0), (0, 2, 0), (0, 0, 3))))
        # the largest exponent the float rows hold: its full stratum {x^2 + y^2, z^k} is solved exactly
        assert minimize_hvol(a_singularity(2, 2**53 - 1)).value == F(4, 2**53 - 1)


class TestMinimizeToric:
    def test_orthant_is_smooth(self):
        result = minimize_hvol(orthant_cone(2), seed=0)
        assert result.value == 4
        assert result.weight == (F(1), F(1))

    def test_quadric_cone(self):
        # the quadric surface cone: minimum 2(n-1)^n = 2 at the barycenter
        cone = ToricCone(((0, 1), (2, -1)), (F(1), F(1)))
        result = minimize_hvol(cone, seed=0)
        assert result.status == "converged"
        assert abs(float(result.value) - 2.0) <= 1e-7


RANK3_CONE = ToricCone(((1, 0, 0), (0, 1, 0), (1, 1, 3)), (F(1), F(1), F(-1, 3)))


class TestDeterminism:
    @pytest.mark.parametrize(
        "model", [d_singularity(2, 4), e_singularity(7, 2), RANK3_CONE], ids=["D24", "E7n2", "rank3"]
    )
    def test_seed_and_starts_change_nothing(self, model):
        results = [minimize_hvol(model, seed=seed) for seed in (0, 1, 123)]
        assert all(r == results[0] for r in results)


class TestClosedForms:
    def test_rank3_cone_sum_of_generators(self):
        result = minimize_hvol(RANK3_CONE)
        assert result.weight == (F(2, 3), F(2, 3), F(1))
        assert result.value == 9
        assert result.exact
        assert result.status == "converged"

    def test_quadric_cone_exact(self):
        result = minimize_hvol(ToricCone(((0, 1), (2, -1)), (F(1), F(1))))
        assert result.weight == (F(1), F(0))
        assert result.value == 2
        assert result.exact


ADE_UP_TO_AMBIENT_4 = {
    **{f"A n={n} k={k}": a_singularity(n, k) for n in (2, 3) for k in range(1, 7)},
    **{f"D n={n} k={k}": d_singularity(n, k) for n in (1, 2) for k in range(3, 7)},
    **{f"E{i} n={n}": e_singularity(i, n) for i in (6, 7, 8) for n in (1, 2)},
}


def _strata(problem):
    return optimize._strata(problem.rows, optimize._vertices(problem.rows))


def _system(rows, subset, sizes, n, vertex):
    """The one-unknown system of a stratum of one row or of m - 1 rows."""
    if len(subset) == 1:
        return optimize._one_row(rows, subset, sizes, n)
    return optimize._line(rows, subset, sizes, n, vertex)


GOLDEN = json.loads((Path(__file__).parent / "data" / "minimizer_golden.json").read_text())
GOLDEN_ROWS = GOLDEN["minimizers"] + GOLDEN["seeded"]["minimizers"]


def _golden_model(row):
    return Hypersurface(tuple(tuple(e) for e in row["support"]), allow_smooth_germ=row["allow_smooth_germ"])


# the klt golden rows outside the A-D-E families with a coordinate class of
# two or more, where the symmetric slice is smaller than the cone
SYMMETRIC_GOLDEN = {
    row["label"]: _golden_model(row)
    for row in GOLDEN_ROWS
    if row["label"][0] not in "ADE" and "error" not in row and any(len(c) > 1 for c in symmetrize(_golden_model(row)))
}


class TestUnreducedSolve:
    @pytest.mark.parametrize(
        "model",
        [*ADE_UP_TO_AMBIENT_4.values(), *SYMMETRIC_GOLDEN.values()],
        ids=[*ADE_UP_TO_AMBIENT_4, *SYMMETRIC_GOLDEN],
    )
    def test_unreduced_value_matches_reduced(self, model):
        # without symmetry reduction the solve runs in every coordinate, so
        # a minimizer off the class-constant slice would show up here
        values = []
        for trivial in (False, True):
            problem = optimize._build_problem(model, trivial_classes=trivial)
            roots = optimize._stationary_points(problem, _strata(problem))
            values.append(problem.value(optimize._select_best(problem, roots)[0]))
        reduced, unreduced = values
        assert abs(unreduced - reduced) <= 1e-9 * reduced

    def test_symmetric_golden_rows(self):
        assert len(SYMMETRIC_GOLDEN) == 14


FROZEN = [
    (
        ((0, 0, 0, 3), (0, 0, 5, 0), (0, 6, 0, 0), (2, 2, 0, 0), (5, 0, 0, 0)),
        (F(3, 4), F(3, 4), F(3, 5), F(1)),
        F(2, 225),
    ),
    (
        ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 7)),
        (F(1), F(1), F(2, 3), F(1, 3)),
        F(9),
    ),
    (
        ((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 5, 0), (0, 0, 0, 7)),
        (F(1), F(2, 3), F(2, 5), F(2, 7)),
        F(50653, 44100),
    ),
    (
        ((2, 0, 0), (0, 2, 1), (1, 0, 3), (0, 0, 5)),
        (F(1), F(4, 5), F(2, 5)),
        F(1, 4),
    ),
    (
        ((2, 0, 0, 0), (0, 2, 0, 1), (0, 0, 3, 0), (0, 1, 0, 4), (0, 0, 1, 3)),
        (F(1), F(7, 9), F(2, 3), F(4, 9)),
        F(128, 21),
    ),
]


class TestFrozenSupports:
    @pytest.mark.parametrize("support, weight, value", FROZEN)
    def test_exact_minimizer(self, support, weight, value):
        result = minimize_hvol(Hypersurface(support))
        assert result.weight == weight
        assert result.value == value
        assert result.status == "converged"

    @pytest.mark.parametrize("support, weight, value", FROZEN)
    def test_minimum_below_random_weights(self, support, weight, value):
        model = Hypersurface(support)
        minimum = minimize_hvol(model).value
        rng = np.random.default_rng(20261017)
        checked = 0
        while checked < 200:
            x = tuple(F(int(p), int(q)) for p, q in rng.integers(1, 13, size=(model.ambient_dim, 2)))
            try:
                hvol = normalized_volume(model, x).normalized_volume
            except NonKltWeightError:
                continue
            assert minimum <= hvol
            checked += 1


# x^3749 + y^34 + z^298140 + w^16 + yw: four classes, and no stratum has a root that the solve reaches
NO_ROOT_SUPPORT = ((3749, 0, 0, 0), (0, 34, 0, 0), (0, 0, 298140, 0), (0, 0, 0, 16), (0, 1, 0, 1))

BRIESKORN_PHAM = [
    exponents for d in (3, 4) for exponents in itertools.combinations_with_replacement(range(2, 8), d)
]


class TestKltCheck:
    """minimize_hvol decides klt-ness from the vertices of R = {w >= 0 : <e, w> >= 1}."""

    def test_brieskorn_pham(self):
        # sum x_i^{a_i} is klt iff sum 1/a_i > 1 (the lct of a Brieskorn-Pham
        # polynomial), which is the coordinate sum of R's only vertex
        # (1/a_1, ..., 1/a_d); every order of the exponents is one model up
        # to renaming coordinates, so each sorted tuple stands for it
        rejected = 0
        for exponents in BRIESKORN_PHAM:
            d = len(exponents)
            model = Hypersurface(tuple(tuple(a * (i == j) for j in range(d)) for i, a in enumerate(exponents)))
            total = sum(F(1, a) for a in exponents)
            if total <= 1:
                with pytest.raises(NonKltModelError, match=rf"sum\(w\) = {total} <= 1"):
                    minimize_hvol(model)
                rejected += 1
            else:
                assert minimize_hvol(model).status == "converged", exponents
        assert (len(BRIESKORN_PHAM), rejected) == (182, 108)

    @pytest.mark.parametrize(
        "support",
        [
            ((3, 0, 0), (0, 3, 0), (0, 0, 3)),
            # fewer monomials than variables: x4 is free, and the germ is
            # the cubic cone times a line
            ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0)),
        ],
        ids=["cubic-cone", "cubic-cone-times-line"],
    )
    def test_cubic_cones_rejected(self, support):
        with pytest.raises(NonKltModelError, match=r"sum\(w\) = 1 <= 1"):
            minimize_hvol(Hypersurface(support))

    def test_smooth_germ_exempt(self):
        # x (1 + y^2 + z^3) is smooth; its vertex e_x has sum 1 and is no
        # exceptional divisor, so a linear monomial skips the check
        model = Hypersurface(((1, 0, 0), (1, 2, 0), (1, 0, 3)), allow_smooth_germ=True)
        result = minimize_hvol(model)
        assert result.status == "converged"
        assert result.value == 4

    def test_reducible_twin_rejected(self):
        # without the linear monomial x divides f, and e_x is a vertex again
        model = Hypersurface(((1, 2, 0), (1, 0, 3)))
        with pytest.raises(NonKltModelError, match=r"sum\(w\) = \d+/\d+ <= 1"):
            minimize_hvol(model)

    def test_no_root_on_a_klt_model(self, monkeypatch):
        # with no exact vertex or one-unknown root and no converged Newton run
        # the answer is (1, ..., 1), klt-valid as (1, ..., 1) / multiplicity lies in R
        newton, vertex_roots, univariate_roots = optimize._newton, optimize._vertex_roots, optimize._univariate_roots

        def no_root(*args):
            mu, s, found, stalled = newton(*args)
            return mu, s, found & False, stalled & False

        monkeypatch.setattr(optimize, "_newton", no_root)
        monkeypatch.setattr(optimize, "_vertex_roots", lambda *args: vertex_roots(*args)[:0])
        monkeypatch.setattr(optimize, "_univariate_roots", lambda *args: ([], univariate_roots(*args)[1]))
        model = e_singularity(7, 2)
        result = minimize_hvol(model)
        assert result.status == "not-converged"
        assert result.weight == (F(1),) * 4
        assert log_discrepancy(model, result.weight) > 0

    def test_no_root_unpatched(self):
        # x^3749 + y^34 + z^298140 + w^16 + yw: no full stratum has a valid
        # root, the strata of one and three rows have none either, and Newton
        # reaches none on the two-row strata, so the answer is (1, 1, 1, 1)
        # with value 16; the CLI side is
        # tests/test_cli.py::TestMinimize::test_non_convergence_exit_4
        result = minimize_hvol(Hypersurface(NO_ROOT_SUPPORT))
        assert result.status == "not-converged"
        assert (result.weight, result.value) == ((F(1),) * 4, 16)


KLT_GOLDEN_ROWS = [row for row in GOLDEN_ROWS if "error" not in row]


@functools.cache
def _full_strata_both_routes(label):
    """Per full stratum of a golden row: its exact vertex root (mu, s), and its Newton roots.

    The golden rows hold the 65 A-D-E rows.  Newton runs on every full
    stratum, as it did before the vertices solved them, with the same
    validity filter as on the smaller strata.
    """
    row = next(row for row in KLT_GOLDEN_ROWS if row["label"] == label)
    problem = optimize._build_problem(_golden_model(row))
    vertices = optimize._vertices(problem.rows)
    exact = optimize._vertex_roots(problem, vertices)
    full = [sub for sub in optimize._strata(problem.rows, vertices) if len(sub) == len(problem.sizes)]
    key = lambda tie: tuple(map(tuple, tie.astype(int).tolist()))  # noqa: E731
    newton = {}
    for _, tie, mu, s in optimize._stationary_points(problem, full):
        newton.setdefault(key(tie), []).append((mu, s))
    return {key(tie): (mu, s) for _, tie, mu, s in exact}, newton


class TestVertexRoots:
    """A full stratum, of m rows for m coordinate classes, has its root at the
    one vertex of R where it is tight, solved in Fractions; Newton on the same
    stratum is the second route."""

    @pytest.mark.parametrize("row", KLT_GOLDEN_ROWS, ids=lambda row: row["label"])
    def test_newton_agrees_with_the_vertex_root(self, row):
        exact, newton = _full_strata_both_routes(row["label"])
        # a valid root on one side only would show as a stratum missing on the other
        assert set(newton) == set(exact)
        for stratum, roots in newton.items():
            mu, s = exact[stratum]
            assert sum(mu) == 1 and min(mu) >= 0 and s > 0
            for float_mu, float_s in roots:
                assert abs(math.log(float_s) - math.log(s)) <= 1e-9, stratum
                assert np.max(np.abs(float_mu - np.array(mu, dtype=float))) <= 1e-9, stratum

    def test_valid_root_count(self):
        # 139 full strata on the 130 klt rows; 72 have a valid root, 30 of them on the A-D-E rows
        counts = [len(_full_strata_both_routes(row["label"])[0]) for row in KLT_GOLDEN_ROWS]
        assert (len(counts), sum(counts)) == (130, 72)

    def test_only_smaller_strata_reach_newton(self, monkeypatch):
        # on every klt golden row Newton sees only strata of fewer than m
        # rows, while starts_used counts them all
        newton, sizes = optimize._newton, []

        def recorded(tie, sizes_, n, mu, size, stratum):
            sizes.append((len(sizes_), max(size)))
            return newton(tie, sizes_, n, mu, size, stratum)

        monkeypatch.setattr(optimize, "_newton", recorded)
        for row in KLT_GOLDEN_ROWS:
            minimize_hvol(_golden_model(row))
        assert sizes and all(top < m for m, top in sizes)

    def test_free_multipliers_are_solved_exactly(self):
        # the plane x + y + z: its one class has the vertex w = 1 with s = 2 = n,
        # where every multiplier solves the stratum, so the barycentre is its
        # exact root, at the smooth surface's minimum 4 at (1, 1, 1)
        model = Hypersurface(((1, 0, 0), (0, 1, 0), (0, 0, 1)), allow_smooth_germ=True)
        problem = optimize._build_problem(model)
        [(u, tie, mu, s)] = optimize._vertex_roots(problem, optimize._vertices(problem.rows))
        assert (u.tolist(), tie.tolist(), mu, s) == ([0.5], [[1.0]], [1], 2)
        result = minimize_hvol(model)
        assert (result.weight, result.value, result.status) == ((1, 1, 1), 4, "converged")

    @pytest.mark.parametrize("k", [1826, 20000, 27397080, 2**30, 2**53 - 1])
    def test_a_family_surfaces(self, k):
        # x^2 + y^2 + z^k: the full stratum {x^2 + y^2, z^k} of the two classes
        # gives the weight (1, 1, 2/k) and the value 4/k; Newton missed it or
        # printed floats
        result = minimize_hvol(a_singularity(2, k))
        assert result.status == "converged"
        assert result.weight == (1, 1, F(2, k))
        assert result.exact and result.value == F(4, k)

    @pytest.mark.parametrize("k", [76, 100, 30000, 2**30])
    def test_d_family_surfaces(self, k):
        # x^2 + y^2 z + z^k: the full stratum {x^2, y^2 z, z^k} gives the
        # weight (1, (k - 1)/k, 2/k) and the value 1/(k - 1)
        model = d_singularity(1, k)
        result = minimize_hvol(model)
        assert result.status == "converged"
        assert result.weight == (1, F(k - 1, k), F(2, k))
        assert result.exact and result.value == F(1, k - 1)
        assert result.value == core.normalized_volume(model, result.weight).normalized_volume


@functools.cache
def _univariate_both_routes(label):
    """Per stratum of a golden row that ``_univariate_roots`` solves exactly,
    of one row or of m - 1 rows without a linear monomial: its exact roots
    (mu, s), and the valid roots that Newton converges to on the same strata."""
    row = next(row for row in KLT_GOLDEN_ROWS if row["label"] == label)
    problem = optimize._build_problem(_golden_model(row))
    m = len(problem.sizes)
    strata = {sub: v for sub, v in _strata(problem).items() if len(sub) in (1, m - 1) and len(sub) < m}
    exact, rest = optimize._univariate_roots(problem, strata)
    key = lambda tie: tuple(map(tuple, tie.astype(int).tolist()))  # noqa: E731
    routes, newton = ({}, {}), optimize._stationary_points(problem, [sub for sub in strata if sub not in rest])
    for side, roots in zip(routes, (exact, newton)):
        for _, tie, mu, s in roots:
            side.setdefault(key(tie), []).append((np.array(mu, dtype=float), math.log(s), mu, s))
    return problem, len(strata) - len(rest), routes


def _same_root(a, b):
    return abs(a[1] - b[1]) <= 1e-9 and np.max(np.abs(a[0] - b[0])) <= 1e-9


def _bisect(g, a, b, width):
    """Sturm-only narrowing, the reference for a quadratic's closed form: halve
    (a, b], which holds one root of the square-free g, by the sign of g until
    b - a <= width; a root met exactly gives (root, root)."""
    if not (side := poly.hom(g, *b.as_integer_ratio())):
        return b, b
    while b - a > width:
        mid = (a + b) / 2
        if not (value := poly.hom(g, *mid.as_integer_ratio())):
            return mid, mid
        a, b = (a, mid) if (value > 0) == (side > 0) else (mid, b)
    return a, b


# x^3 + y^5 + xy + z^N with N = 62284456, which took the no-root path before
# its strata of one row and of m - 1 = 2 rows were solved exactly
FORMER_NO_ROOT_SUPPORT = ((3, 0, 0), (0, 5, 0), (1, 1, 0), (0, 0, 62284456))


def large_exponent_supports(count, seed=5):
    """Random supports with large exponents, the kind that took the no-root path.

    In 3-4 variables: a pure power of each variable with exponent
    round(10^U(0.3, 9)), plus 1-3 monomials x_i^a x_j^b in two distinct
    variables with a, b in 1..3 (numpy ``default_rng(seed)``).  About a
    quarter of them are klt.
    """
    rng, supports = np.random.default_rng(seed), []
    for _ in range(count):
        d = int(rng.integers(3, 5))
        support = [tuple(round(10 ** rng.uniform(0.3, 9)) * (j == i) for j in range(d)) for i in range(d)]
        for _ in range(int(rng.integers(1, 4))):
            i, j = (int(x) for x in rng.choice(d, size=2, replace=False))
            a, b = (int(x) for x in rng.integers(1, 4, size=2))
            support.append(tuple(a * (k == i) + b * (k == j) for k in range(d)))
        supports.append(tuple(dict.fromkeys(support)))  # a monomial drawn twice counts once
    return supports


class TestUnivariateStrata:
    """A stratum of one row, or of m - 1 rows for m coordinate classes, is one
    equation in one unknown, solved exactly; Newton on the same stratum is
    the second route."""

    @pytest.mark.parametrize("row", KLT_GOLDEN_ROWS, ids=lambda row: row["label"])
    def test_newton_agrees_with_the_exact_roots(self, row):
        _, _, (exact, newton) = _univariate_both_routes(row["label"])
        # a valid root on one side only would show as a stratum missing on the other
        assert set(newton) == set(exact)
        for stratum, roots in exact.items():
            for root in roots:
                assert any(_same_root(root, other) for other in newton[stratum]), stratum
            for root in newton[stratum]:
                assert any(_same_root(root, other) for other in roots), stratum

    def test_root_counts_and_exact_residuals(self):
        # 697 one-unknown strata on the 130 klt rows hold 75 valid roots, 65 of
        # them rational, 16 of those at s = n on a linear monomial; the
        # stratum's residual is exactly 0 at each rational root
        counts = [0, 0, 0]
        for row in KLT_GOLDEN_ROWS:
            problem, solved, (exact, _) = _univariate_both_routes(row["label"])
            sizes = [int(c) for c in problem.sizes]
            counts[0] += solved
            for stratum, roots in exact.items():
                for *_, mu, s in roots:
                    counts[1] += 1
                    if isinstance(s, F):
                        counts[2] += 1
                        g, _, denom, _ = polish._residual([list(e) for e in stratum], sizes, problem.model.dim, mu, s)
                        assert not any(g) and min(denom) > 0, stratum
        assert counts == [697, 75, 65]

    def test_newton_runs_on_no_ade_row(self, monkeypatch):
        # no A-D-E row reaches Newton: the five A rows with k = 1, whose z is
        # linear, took it for their one-row stratum {z}, which is now solved at
        # s = n; E7 n=1's {y^3 z, x^2} runs no longer wander
        ade = [row for row in GOLDEN["minimizers"] if row["label"][0] in "ADE"]
        newton, current, reached = optimize._newton, [None], set()

        def recorded(*args):
            reached.add(current[0])
            return newton(*args)

        monkeypatch.setattr(optimize, "_newton", recorded)
        for row in ade:
            current[0] = row["label"]
            minimize_hvol(_golden_model(row))
        assert (len(ade), reached) == (65, set())

    def test_no_one_row_stratum_reaches_newton(self):
        # a one-row stratum is solved at s = n (a linear monomial), proved
        # rootless or solved as one polynomial, so no Newton run on the golden
        # rows, the 400 seeded supports or the first 1000 draws holds one;
        # Newton still runs on strata of two rows and more there
        sizes = {size for *_, runs in _finalized() for size in runs}
        assert min(sizes) == 2

    @pytest.mark.parametrize(
        "support, weight, value, former",
        [
            (
                ((306696263, 0, 0), (0, 43, 0), (0, 0, 129800), (0, 3, 3), (1, 1, 0)),
                (1, 1, F(1, 64900)),
                F(1, 32450),
                3.081664098613251e-05,
            ),
            (
                ((29834, 0, 0, 0), (0, 15135, 0, 0), (0, 0, 179, 0), (0, 0, 0, 5), (0, 0, 1, 1), (1, 0, 0, 2)),
                (F(1, 14917), F(2, 15135), 1, 1),
                F(90936804705209, 50971548795752025),
                0.0017840698753259718,
            ),
            (
                ((2804, 0, 0, 0), (0, 374986746, 0, 0), (0, 0, 1114488, 0), (0, 0, 0, 139814), (2, 0, 0, 1), (0, 0, 1, 1)),
                (F(1, 2802), F(1, 5604), F(1, 1401), 1),
                F(6309, 1868),
                3.377408993576017,
            ),
        ],
        ids=["xy", "zw-and-xw2", "x2w-and-zw"],
    )
    def test_float_answers_read_exactly(self, support, weight, value, former):
        # answers that came as polished doubles of a Newton root, whose
        # rationals have denominators past 22360, now read exactly at a
        # rational root of a one-unknown stratum: the same double, and the
        # closed form at the weight gives the same value
        model = Hypersurface(support)
        result = minimize_hvol(model)
        assert (result.status, result.weight, result.value) == ("converged", weight, value)
        assert value == core.normalized_volume(model, weight).normalized_volume
        assert float(value) == former

    def test_one_elimination_per_vertex_basis(self, monkeypatch):
        # the 65 A-D-E rows make 90 eliminations, one per feasible basis that
        # _vertices returns: _strata reads the strata off those bases, and
        # _line and _ray read each of the 105 line strata, 25 lines and 80
        # rays, off the adjugate of a basis that holds it (230 eliminations
        # before: 35 independence tests in _strata, and one per line stratum)
        ade = [row for row in GOLDEN["minimizers"] if row["label"][0] in "ADE"]
        adjugate, calls = optimize.adjugate, [0]
        counts = {name: [] for name in ("_vertices", "_strata", "_line", "_ray")}

        def counted(rows):
            calls[0] += 1
            return adjugate(rows)

        def recorder(name):
            solver = getattr(optimize, name)

            def recorded(*args):
                before = calls[0]
                out = solver(*args)
                counts[name].append(calls[0] - before)
                return out

            return recorded

        monkeypatch.setattr(optimize, "adjugate", counted)
        for name in counts:
            monkeypatch.setattr(optimize, name, recorder(name))
        for row in ade:
            minimize_hvol(_golden_model(row))
        made = {name: sum(calls) for name, calls in counts.items()}
        assert (len(ade), calls[0], made) == (65, 90, {"_vertices": 90, "_strata": 0, "_line": 0, "_ray": 0})
        assert (len(counts["_line"]), len(counts["_ray"])) == (25, 80)

    def test_linear_root_read_off(self):
        # the root -g_0 / g_1 of a linear square-free g, against Sturm isolation,
        # bisection to width 1 / lc(g) and the rational root test, on seeded g
        # and intervals, with roots exactly at lo and at hi and open bounds
        def sturm(g, lo, hi):
            bound = poly.root_bound(g)
            lo = -bound if lo is None else max(lo, -bound)
            hi = bound if hi is None else min(hi, bound)
            found = [(lo, lo)] if lo <= hi and not poly.hom(g, *lo.as_integer_ratio()) else []
            for a, b in poly.isolate(g, lo, hi) if lo < hi else ():
                a, b = _bisect(g, a, b, F(1, abs(g[-1])))
                root = a if a == b else poly.rational_root(g, a, b)
                found.append((a, b) if root is None else (root, root))
            return found

        def bounds(case, root, other, shift, rng):
            return [
                (root, root + shift),
                (root - shift, root),
                (min(root, other) - shift, max(root, other) + F(int(rng.integers(-20, 20)), int(rng.integers(1, 20)))),
                (None, root + shift * int(rng.integers(-1, 2))),
                (root - shift * int(rng.integers(-1, 2)), None),
            ][case]

        rng, kinds = np.random.default_rng(11), set()
        for trial in range(600):
            g = poly.gcd([int(rng.integers(-300, 301)), int(rng.integers(1, 60))], [])
            root, shift = F(-g[0], g[1]), F(int(rng.integers(0, 20)), int(rng.integers(1, 20)))
            lo, hi = bounds(trial % 5, root, root, shift, rng)
            found = optimize._roots_in(g, lo, hi)
            assert found == sturm(g, lo, hi), (g, lo, hi)
            kinds.add((trial % 5, bool(found)))
        assert kinds == {(k, hit) for k in range(5) for hit in (False, True)} - {(0, False), (1, False)}

        # a square-free quadratic of either sign, its roots a rational pair or
        # conjugate irrationals, read off its discriminant: the same rational
        # roots as the Sturm route, and for an irrational one an interval in
        # [lo, hi] at most 1 / |2 lc(g)| wide sharing the root of Sturm's
        kinds = set()
        for trial, g in enumerate(_seeded_quadratics(rng, 1000)):
            # the bounds sit at a rational root, or at an end of the interval
            # that isolates an irrational one
            (root, _), (other, _) = sturm(g, None, None)[:: 1 if trial % 4 < 2 else -1]
            shift = F(int(rng.integers(0, 20)), int(rng.integers(1, 20)))
            lo, hi = bounds(trial // 2 % 5, root, other, shift, rng)
            found, reference = optimize._roots_in(g, lo, hi), sturm(g, lo, hi)
            assert len(found) == len(reference), (g, lo, hi)
            for (a, b), (c, d) in zip(found, reference):
                if c == d:
                    assert (a, b) == (c, d), (g, lo, hi)
                    continue
                assert a < b <= a + F(1, 2 * abs(g[-1])) and (lo is None or lo <= a) and (hi is None or b <= hi)
                left, right = max(a, c), min(b, d)
                assert left < right and poly.hom(g, *left.as_integer_ratio()) * poly.hom(g, *right.as_integer_ratio()) < 0
            kinds.add((trial // 2 % 5, trial % 2, len(found)))
        # every bound case of both kinds of pair meets 0, 1 and 2 roots, but a
        # rational root at lo or at hi is always met, and hi at the lower end
        # of an irrational root's interval leaves that root out
        everything = {(case, rational, count) for case in range(5) for rational in (0, 1) for count in range(3)}
        assert kinds == everything - {(0, 1, 0), (1, 1, 0), (1, 0, 2)}

    def test_former_no_root_support(self):
        # the stratum {xy, z^N} gives the weight (1, 1, 2/N) and the value 4/N
        model = Hypersurface(FORMER_NO_ROOT_SUPPORT)
        result = minimize_hvol(model)
        assert result.status == "converged"
        assert (result.weight, result.value) == ((1, 1, F(2, 62284456)), F(1, 15571114))
        assert result.active_monomials == ((0, 0, 62284456), (1, 1, 0))
        assert result.value == core.normalized_volume(model, result.weight).normalized_volume

    @pytest.mark.parametrize(
        "support, weight, value",
        [
            (
                ((17587572, 0, 0, 0), (0, 100292, 0, 0), (0, 0, 120495555, 0), (0, 0, 0, 2568427), (0, 1, 2, 0),
                 (0, 0, 1, 1), (3, 0, 2, 0)),
                (9.970885015753998e-06, 1.9941770031507997e-05, 1.0, 1.0),
                0.00026921389542535796,
            ),
            (
                ((294610007, 0, 0, 0), (0, 2297112, 0, 0), (0, 0, 177, 0), (0, 0, 0, 6), (0, 0, 1, 1), (2, 0, 0, 2)),
                (4.3532923079066236e-07, 8.706584615813247e-07, 1.0, 1.0),
                1.1753889231347884e-05,
            ),
        ],
        ids=["newton-took-it", "exact-would-take-it"],
    )
    def test_negative_multiplier_rejected_exactly(self, support, weight, value):
        # each support has an irrational root of a three-row stratum with one
        # multiplier about -1e-10 (first) or -2e-13 (second), within the
        # tolerance that a Newton root gets, and a slightly lower root of {zw}
        # and a pure power with positive multipliers.  The exact sign test
        # rejects the three-row root, so the lower root wins.  On the first
        # support Newton had reached the three-row root, and the answer was
        # its polished value 0.0002692138954521228, higher by 1e-10 relative
        result = minimize_hvol(Hypersurface(support))
        assert (result.status, result.weight, result.value) == ("converged", weight, value)
        assert len(result.active_monomials) == 2

    def test_no_root_count_on_a_fixed_draw(self):
        # of 400 draws, 92 are klt; 1 of those takes the no-root path (8
        # before the strata of one row and of m - 1 rows were solved exactly)
        klt = no_root = 0
        for support in large_exponent_supports(400):
            try:
                result = minimize_hvol(Hypersurface(support))
            except NonKltModelError:
                continue
            klt += 1
            no_root += result.status == "not-converged"
        assert (klt, no_root) == (92, 1)


def _sturm_sign_at(h, f, a, b):
    """``poly.sign_at`` by Sturm sequences alone, with no reduction of h modulo f
    and no closed form for a quadratic h: the second route for it."""
    h = poly.trim(h)
    if a != b and h:
        if poly.sturm_count(poly.gcd(f, h), a, b):
            return 0
        chain = poly._sturm_chain(poly.gcd(poly.quotient(h, poly.gcd(h, poly.derivative(h))), []))
        while poly._sign_changes(chain, a) != poly._sign_changes(chain, b):
            a, b = poly.narrow(f, a, b, (b - a) / 2)
    value = poly.hom(h, *b.as_integer_ratio())
    return (value > 0) - (value < 0)


def _seeded_quadratics(rng, count):
    """Integer quadratics with two distinct real roots and either sign of lc,
    every other one (odd places) a rational pair."""
    out = []
    while len(out) < count:
        if len(out) % 2:
            x, y = (F(*rng.integers((-40, 1), (41, 13)).tolist()) for _ in range(2))
            g = poly.mul([-x.numerator, x.denominator], [-y.numerator, y.denominator])
        else:
            g = rng.integers((-60, -60, 1), (61, 61, 30)).tolist()
        disc = g[1] ** 2 - 4 * g[0] * g[2]
        if disc > 0 and (math.isqrt(disc) ** 2 == disc) == bool(len(out) % 2):
            out.append(g if rng.integers(2) else [-c for c in g])
    return out


class TestClosedFormStrata:
    """A quadratic stratum polynomial is solved from its discriminant, and a line
    stratum that leaves a class untouched is one ray; Sturm sequences, bisection,
    100-digit decimals and ``_line`` are the second routes."""

    def test_quadratic_narrow_and_squarefree(self):
        # at each root of 300 seeded quadratics, in the interval Sturm isolates
        # and in a bisected part of it, narrow to widths from twice the interval
        # down to 2^-200 of it gives a part of (a, b], no wider than asked, on
        # which g changes sign, and the rational root itself where there is
        # one; squarefree of a quadratic, square-free or a square, is the gcd
        # route's
        rng, counts = np.random.default_rng(23), [0, 0]
        for g in _seeded_quadratics(rng, 300):
            bound = poly.root_bound(g)
            for whole in poly.isolate(g, -bound, bound):
                for a, b in {whole, _bisect(g, *whole, (whole[1] - whole[0]) / 1000)}:
                    for k in () if a == b else (-1, 0, 1, 2, 7, 31, 60, 200):
                        width = (b - a) * F(int(rng.integers(1, 100)), 99) / F(2) ** k
                        low, high = poly.narrow(g, a, b, width)
                        if low == high:
                            assert a < low <= b and not poly.hom(g, *low.as_integer_ratio()), (g, a, b)
                        else:
                            assert a <= low < high <= b and high - low <= width, (g, a, b, width)
                            assert poly.hom(g, *low.as_integer_ratio()) * poly.hom(g, *high.as_integer_ratio()) < 0
                        counts[low == high] += 1
            square = poly.mul(*[[int(rng.integers(-9, 10)), int(rng.integers(1, 9))]] * 2)
            for f in (g, [3 * c for c in g], square, [-2 * c for c in square]):
                assert poly.squarefree(f) == poly.gcd(poly.quotient(f, poly.gcd(f, poly.derivative(f))), []), f
        assert counts == [4800, 4624]

    def test_sign_at_quadratic_roots(self):
        # the sign of h at each root of 200 seeded quadratics, on its Sturm
        # interval and on a narrower one, for random h of degree 0 to 5, h = 0,
        # multiples of g with and without a linear remainder, and linear h
        # whose root sits at a, at b, on either side of the root inside (a, b]
        # and outside: against h at the root in 100-digit decimals, or exactly
        # at a rational root; 5797 cases, 1006 of them zeros
        rng, counts = np.random.default_rng(29), {-1: 0, 0: 0, 1: 0}
        with localcontext() as ctx:
            ctx.prec = 100
            for g in _seeded_quadratics(rng, 200):
                (c, b, a), bound = g, poly.root_bound(g)
                disc = Decimal(b * b - 4 * a * c).sqrt()
                for lo, hi in poly.isolate(g, -bound, bound):
                    near = poly.narrow(g, lo, hi, (hi - lo) / 2**40)
                    exact = near[0] if near[0] == near[1] else None
                    root = next(
                        x for x in ((-b + sign * disc) / (2 * a) for sign in (-1, 1))
                        if Decimal(lo.numerator) / lo.denominator < x <= Decimal(hi.numerator) / hi.denominator
                    )
                    tests = [rng.integers(-50, 51, size=int(rng.integers(1, 7))).tolist() for _ in range(6)]
                    tests += [[], poly.mul(g, rng.integers(-9, 10, size=3).tolist())]
                    tests += [poly.combine([(int(rng.integers(1, 9)), g), (1, [int(rng.integers(-9, 10)), 1])])]
                    for z in {lo, hi, *near, lo - 1, hi + 1}:
                        tests.append([-z.numerator, z.denominator])
                    for h in tests:
                        if exact is not None:
                            value = poly.value(h, exact)
                        else:
                            value = poly.value([Decimal(x) for x in h], root) if h else Decimal(0)
                            value = 0 if abs(value) < Decimal(10) ** -60 else value
                        expected = (value > 0) - (value < 0)
                        for ends in {(lo, hi), near}:
                            assert poly.sign_at(h, g, *ends) == expected, (g, h, ends)
                        counts[expected] += 1
        assert counts == {-1: 2397, 0: 1006, 1: 2394}

    def test_sign_at_matches_sturm_beyond_quadratics(self):
        # at each real root, in or out of range, of a one-unknown stratum
        # polynomial of degree 3 or more on the 400 seeded supports, on the
        # interval Sturm isolates it in, the sign of every condition is the
        # Sturm-only sign's: 140 roots, and 162 signs -1, 122 zeros and 257 +1
        counts = [0, 0, 0, 0]
        for support in seeded_supports(400):
            problem = optimize._build_problem(Hypersurface(support))
            m, n, sizes = len(problem.sizes), problem.model.dim, problem.sizes.astype(int).tolist()
            rows = problem.rows.astype(int).tolist()
            for subset, vertex in _strata(problem).items():
                if len(subset) not in (1, m - 1) or len(subset) == m or any(sum(rows[i]) == 1 for i in subset):
                    continue
                system = _system(rows, subset, sizes, n, vertex)
                if system is None or len(f := poly.trim(system.f)) < 4 or len(g := poly.squarefree(f)) < 4:
                    continue
                bound = poly.root_bound(g)
                for a, b in poly.isolate(g, -bound, bound):
                    counts[0] += 1
                    for h in system.conditions():
                        assert poly.sign_at(h, g, a, b) == (sign := _sturm_sign_at(h, g, a, b)), (support, subset)
                        counts[2 + sign] += 1
        assert counts == [140, 162, 122, 257]

    def test_ray_matches_line(self):
        # every line stratum that leaves a class untouched, on the golden rows
        # under both classings, the 400 seeded supports and the first 1000
        # draws, klt or not: the ray's root is the valid root that _line finds
        # through _roots_in, solve and holds, the same mu and s as Fractions and
        # the same float u, and it has none where that route has none: 74 roots
        # on 8988 such strata.  On all 11641 line strata there, the M and
        # q > 0 that both read off the adjugate of a vertex basis give
        # M / q = adj / det for an explicit adjugate of [S; e_j], with j the
        # last class where the line's direction d is not 0
        golden = [_golden_model(row) for row in GOLDEN_ROWS]
        cases = [(model, trivial) for model in golden for trivial in (False, True)]
        cases += [(Hypersurface(s), False) for s in seeded_supports(400) + large_exponent_supports(1000)]
        counts = [0, 0, 0]
        for model, trivial in cases:
            problem = optimize._build_problem(model, trivial_classes=trivial)
            n, sizes, rows = model.dim, problem.sizes.astype(int).tolist(), problem.rows.astype(int).tolist()
            m = len(sizes)
            for subset, vertex in _strata(problem).items():
                if len(subset) != m - 1:
                    continue
                # M = q B^-1 and adj(B) = det(B) B^-1 for B = [S; e_j], with q > 0
                ops, q, j = optimize._line_inverse(subset, vertex)
                adj, det = optimize.adjugate([rows[i] for i in subset] + [[int(c == j) for c in range(m)]])
                assert q > 0 and all(x * det == y * q for a, b in zip(ops, adj) for x, y in zip(a, b))
                assert max(c for c in range(m) if ops[c][-1]) == j
                counts[2] += 1
                if m < 3 or any(sum(rows[i]) == 1 for i in subset):
                    continue
                if all(any(rows[i][c] for i in subset) for c in range(m)):
                    continue
                line, system = None, optimize._line(rows, subset, sizes, n, vertex)
                for a, _ in optimize._roots_in(poly.trim(system.f), system.lo, system.hi) if system else ():
                    root = system.solve(*(x := a.as_integer_ratio()))
                    if root is not None and system.holds(root, *x):
                        line = root
                ray = optimize._ray(rows, subset, sizes, n, vertex)
                assert repr(ray) == repr(line), (model.support, subset)
                counts[0] += 1
                counts[1] += ray is not None
        assert counts == [8988, 74, 11641]

    def test_no_sturm_on_the_ade_rows(self, monkeypatch):
        # every stratum polynomial of the 65 A-D-E rows has degree 2 at most, so
        # none builds a Sturm chain or isolates roots (the former path built 52
        # chains and isolated 20 times), and each answer keeps its golden bytes
        calls = []
        for name in ("_sturm_chain", "isolate"):
            monkeypatch.setattr(poly, name, lambda *args, name=name: calls.append(name))
        for row in ADE_GOLDEN_ROWS:
            result = minimize_hvol(_golden_model(row))
            assert ([_scalar_string(w) for w in result.weight], _scalar_string(result.value)) == (
                row["weight"],
                row["value"],
            )
        assert (len(ADE_GOLDEN_ROWS), calls) == (65, [])


def seeded_supports(count, seed=7):
    """Random small supports in 3-5 variables (numpy ``default_rng(seed)``).

    Each variable x_i gets a pure power x_i^a with a in 2..7, then 1-3
    monomials with exponents in 0..2 are drawn, and each of total degree 2
    or more is added; a monomial drawn twice counts once.  About three
    quarters of them are klt.
    """
    rng, supports = np.random.default_rng(seed), []
    for _ in range(count):
        d = int(rng.integers(3, 6))
        support = [tuple(int(rng.integers(2, 8)) * (j == i) for j in range(d)) for i in range(d)]
        for _ in range(int(rng.integers(1, 4))):
            e = tuple(int(x) for x in rng.integers(0, 3, size=d))
            if sum(e) >= 2:
                support.append(e)
        supports.append(tuple(dict.fromkeys(support)))
    return supports


def linear_augmented_supports(supports):
    """Each support with one linear monomial x_i added, for each coordinate i in turn."""
    return [
        tuple(dict.fromkeys(support + (tuple(int(j == i) for j in range(len(support[0]))),)))
        for support in supports
        for i in range(len(support[0]))
    ]


def _float_rank_strata(rows, vertices):
    """The strata as ``_strata`` chose them before its test was exact: one
    stacked float ``np.linalg.matrix_rank`` of the difference rows per size."""
    m, ints = rows.shape[1], rows.astype(int).tolist()
    tight = {tuple(i for i, e in enumerate(ints) if sum(map(operator.mul, e, w)) == det) for *_, det, w in vertices}
    subsets = sorted({sub for t in tight for k in range(min(m, len(t))) for sub in itertools.combinations(t, k + 1)})
    rank = {}
    for size in {len(sub) for sub in subsets} - {1}:
        group = np.array([sub for sub in subsets if len(sub) == size])
        rank.update(zip(map(tuple, group.tolist()), np.linalg.matrix_rank(rows[group[:, 1:]] - rows[group[:, :1]])))
    return [sub for sub in subsets if rank.get(sub, 0) == len(sub) - 1], len(subsets)


class TestExactStrata:
    """The strata are the subsets of the rows of R's vertex bases, affinely
    independent tight rows; a float rank of the tight sets' subsets is the
    second route."""

    def test_same_strata_as_the_float_rank(self):
        # the 142 golden rows, the 400 seeded supports (m up to 5) and 4000
        # draws, klt or not: the subsets of the bases' rows are the 97674
        # strata that the float rank keeps, and it rejects 46 affinely
        # dependent subsets of the tight sets (20 of them on the golden rows
        # and the draws)
        models = [_golden_model(row) for row in GOLDEN_ROWS]
        models += [Hypersurface(s) for s in seeded_supports(400) + large_exponent_supports(4000)]
        counts = [0, 0]
        for model in models:
            problem = optimize._build_problem(model)
            vertices = optimize._vertices(problem.rows)
            strata = list(optimize._strata(problem.rows, vertices))
            floats, subsets = _float_rank_strata(problem.rows, vertices)
            assert strata == floats, model.support
            counts[0] += len(strata)
            counts[1] += subsets - len(strata)
        assert (len(models), counts) == (4542, [97674, 46])

    def test_dependent_rows_are_no_stratum(self):
        # x^2 + y^2 + xy + z^2, one class per coordinate: all four rows are
        # tight at w = (1/2, 1/2, 1/2), and xy is the midpoint of x^2 and y^2,
        # so that triple is no stratum, while every other subset of at most
        # three rows is one; _line never sees dependent rows.  The triple is
        # singular, so no basis of _vertices holds it
        problem = optimize._build_problem(Hypersurface(((2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 2))), True)
        x2, xy, y2 = (problem.rows.astype(int).tolist().index(e) for e in ([2, 0, 0], [1, 1, 0], [0, 2, 0]))
        vertices = optimize._vertices(problem.rows)
        strata = optimize._strata(problem.rows, vertices)
        subsets = {sub for k in (1, 2, 3) for sub in itertools.combinations(range(4), k)}
        assert set(strata) == subsets - {tuple(sorted((x2, xy, y2)))}
        assert not any({x2, xy, y2} <= set(basis) for basis, *_ in vertices)
        with pytest.raises(ZeroDivisionError):
            optimize.adjugate([[2, 0, 0], [1, 1, 0], [0, 2, 0]])  # xy = (x^2 + y^2) / 2


def _rational_roots(problem):
    """Each rational root (system, g, root, a) of the strata that
    ``_univariate_roots`` solves, where the system has a root."""
    m, n, sizes = len(problem.sizes), problem.model.dim, [int(c) for c in problem.sizes]
    rows = problem.rows.astype(int).tolist()
    for subset, vertex in _strata(problem).items():
        if len(subset) not in (1, m - 1) or len(subset) == m or any(sum(rows[i]) == 1 for i in subset):
            continue
        system = _system(rows, subset, sizes, n, vertex)
        if system is None or not (f := poly.trim(system.f)) or len(g := poly.squarefree(f)) < 2:
            continue
        for a, b in optimize._roots_in(g, system.lo, system.hi):
            if a == b and (root := system.solve(*a.as_integer_ratio())) is not None:
                yield system, g, root, a


class TestExactRoots:
    """A rational root is judged, and an exact candidate valued, on its own integers."""

    def test_holds_agrees_with_the_signs(self):
        # at every rational root of the 130 klt golden rows, the 400 seeded
        # supports and the first 400 draws, klt or not, the integer decision
        # holds(root, a, b) is the exact sign test on conditions() it replaces,
        # on 276 valid and 382 invalid roots
        models = [_golden_model(row) for row in KLT_GOLDEN_ROWS]
        models += [Hypersurface(s) for s in seeded_supports(400) + large_exponent_supports(400)]
        counts = {True: 0, False: 0}
        for model in models:
            for system, g, root, a in _rational_roots(optimize._build_problem(model)):
                signs = all(poly.sign_at(h, g, a, a) >= 0 for h in system.conditions())
                assert system.holds(root, *a.as_integer_ratio()) is signs, model.support
                counts[signs] += 1
        assert counts == {True: 276, False: 382}

    def test_exact_candidates_valued_exactly(self):
        # a vertex root and a rational root are ranked by their exact value,
        # rounded once: the value of core.normalized_volume at the exact weight
        # size_c / D_c; the float formula misses it in the last bits on about
        # half of the 137 exact candidates of the klt golden rows (69 on
        # numpy's default kernels, 70 on its baseline ones)
        counts = [0, 0]
        for row in KLT_GOLDEN_ROWS:
            model = _golden_model(row)
            problem = optimize._build_problem(model)
            vertices = optimize._vertices(problem.rows)
            strata = optimize._strata(problem.rows, vertices)
            strata = {sub: v for sub, v in strata.items() if len(sub) < len(problem.sizes)}
            roots = optimize._vertex_roots(problem, vertices) + optimize._univariate_roots(problem, strata)[0]
            for _, tie, mu, s in roots:
                if not isinstance(s, F):
                    continue
                ebar = [sum(x * e for x, e in zip(mu, column)) for column in zip(*tie.astype(int).tolist())]
                sizes = problem.sizes.astype(int).tolist()
                u = [size / (model.dim * size + (s - model.dim) * b) for size, b in zip(sizes, ebar)]
                value = core.normalized_volume(model, tuple(u[c] for c in problem.owner)).normalized_volume
                assert problem.root_value(tie, mu, s) == float(value), row["label"]
                denom = model.dim * problem.sizes + (float(s) - model.dim) * (np.asarray(mu, dtype=float) @ tie)
                counts[0] += 1
                counts[1] += float(np.prod((denom / problem.sizes) ** problem.sizes)) / float(s) != float(value)
        assert counts[0] == 137 and 50 <= counts[1] <= 90


def _scalar_string(value):
    """Exact values as "p/q", floats by repr, so a float row must match bit for bit."""
    return str(value) if isinstance(value, F) else repr(float(value))


class TestGolden:
    """Answers frozen before each Newton run could end on its own, and on
    seeded random supports before the rounding became one candidate (see
    the notes in the file)."""

    @pytest.mark.parametrize("row", GOLDEN_ROWS, ids=lambda row: row["label"])
    def test_minimizer_answer(self, row):
        if "error" in row:  # a germ that is not klt
            with pytest.raises(NonKltModelError) as info:
                minimize_hvol(_golden_model(row))
            assert str(info.value) == row["error"]
            assert str(info.value).endswith(f"sum(w) = {row['vertex_sum']} <= 1")
            return
        model = _golden_model(row)
        result = minimize_hvol(model)
        assert [_scalar_string(w) for w in result.weight] == row["weight"]
        assert _scalar_string(result.value) == row["value"]
        if result.exact:  # the closed form at the weight is a second route to the value
            assert result.value == core.normalized_volume(model, result.weight).normalized_volume
        assert result.status == row["status"]
        assert result.starts_used == row["starts_used"]
        assert [list(e) for e in result.active_monomials] == row["active_monomials"]

    @pytest.mark.parametrize("family", sorted(GOLDEN["tables"]))
    def test_table_csv_bytes(self, family, capsys):
        assert cli.main(["table", "--family", family, "--format", "csv"]) == 0
        assert capsys.readouterr().out == GOLDEN["tables"][family]


class TestFinalize:
    @pytest.mark.parametrize(
        "model, exact",
        [(e_singularity(7, 2), True), (a_singularity(4, 3), True), (d_singularity(2, 4), False)],
        ids=["E7 n=2", "A n=4 k=3", "D n=2 k=4"],
    )
    def test_no_closed_form_call_at_a_root(self, model, exact, monkeypatch):
        # an answer at a stratum root, exact or polished, makes no
        # normalized_volume call while _finalize runs
        calls, inside = [], [False]
        evaluate, finalize = core.normalized_volume, optimize._finalize

        def counted_evaluate(*args):
            if inside[0]:
                calls.append(args)
            return evaluate(*args)

        def counted_finalize(*args):
            inside[0] = True
            try:
                return finalize(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(core, "normalized_volume", counted_evaluate)
        monkeypatch.setattr(optimize, "_finalize", counted_finalize)
        assert minimize_hvol(model).exact == exact
        assert not calls

    @pytest.mark.parametrize("k", [129, 257])
    def test_denominator_past_128(self, k):
        # the root of A n=2 k: weight (1, 1, 2/k) and value 4/k
        result = minimize_hvol(a_singularity(2, k))
        assert result.weight == (1, 1, F(2, k))
        assert result.exact and result.value == F(4, k)


def _winning_root(model):
    """The problem and the winning (u, tie, mu, s) of a Newton batch over every stratum."""
    problem = optimize._build_problem(model)
    roots = optimize._stationary_points(problem, _strata(problem))
    return problem, optimize._select_best(problem, roots)


def _decimal_hvol(model, weight):
    """A^n v / prod(x) at a Decimal weight, in the current Decimal context."""
    v = min(sum(w * e for w, e in zip(weight, row)) for row in model.support)
    value = (sum(weight) - v) ** model.dim * v
    for w in weight:
        value /= w
    return value


def _golden_row(label):
    return next(row for row in GOLDEN_ROWS if row["label"] == label)


class TestPolish:
    """A float answer is the correctly rounded double of its stratum root."""

    @pytest.mark.parametrize("n, k", [(n, k) for n in (2, 3) for k in (4, 5, 6)])
    def test_d_rows_closed_forms(self, n, k):
        # the weight (1, ..., 1, a, 2 - 2a) with (n - 1) a^2 + n a - n = 0: for
        # n = 2, a = sqrt(3) - 1, 2 - 2a = 4 - 2 sqrt(3) and the value 6 sqrt(3)
        with localcontext() as context:
            context.prec = 50
            a = (Decimal(n * n + 4 * n * (n - 1)).sqrt() - n) / (2 * (n - 1))
            weight = [Decimal(1)] * n + [a, 2 - 2 * a]
            value = _decimal_hvol(d_singularity(n, k), weight)
            if n == 2:
                root3 = Decimal(3).sqrt()
                assert abs(a - (root3 - 1)) < Decimal("1e-45")
                assert abs(value - 6 * root3) < Decimal("1e-45")
        result = minimize_hvol(d_singularity(n, k))
        assert result.weight == tuple(float(w) for w in weight)
        assert result.value == float(value)

    def test_seeded_41(self):
        # x^2 + y^2 + z^3 w + w^6: z = (sqrt(7) - 1) / 3 and w = 3 - sqrt(7)
        model = _golden_model(_golden_row("seeded 41"))
        with localcontext() as context:
            context.prec = 50
            root7 = Decimal(7).sqrt()
            weight = [Decimal(1), Decimal(1), (root7 - 1) / 3, 3 - root7]
            value = _decimal_hvol(model, weight)
        result = minimize_hvol(model)
        assert result.weight == tuple(float(w) for w in weight)
        assert result.value == float(value)
        assert (repr(result.weight[2]), repr(result.weight[3])) == ("0.5485837703548635", "0.3542486889354094")

    @pytest.mark.parametrize(
        "label", ["D n=2 k=4", "D n=3 k=4", "seeded 34", "seeded 41", "E7 n=2", "A n=4 k=3", "seeded 7"]
    )
    def test_same_bytes_from_every_start(self, label):
        # the float root of each start of the winning stratum alone, and roots
        # a few ulp away, print the same answer: the same rationals where the
        # residual vanishes exactly there, else the same polished doubles
        model = _golden_model(_golden_row(label))
        expected = minimize_hvol(model)
        problem, (u, tie, _, _) = _winning_root(model)
        k = len(tie)
        floats = []
        for start in [[1.0 / k] * k] + (np.eye(k).tolist() if k > 1 else []):
            mu, s, found, _ = _newton_runs(problem, [tie], [start])
            if found[0]:
                floats.append((mu[0], s[0]))
        # some starts reach the root with different last bits
        assert len({(*mu, s) for mu, s in floats}) >= 2
        mu, s = floats[0]
        for ulps in (-3, 1, 4):
            floats.append((mu + ulps * np.spacing(mu), s - ulps * np.spacing(s)))
        for mu, s in floats:
            if expected.exact:
                answer = optimize._finalize(problem, (u, tie, mu, s))
            else:
                answer = polish.polish_root(tie, mu, s, problem.sizes, problem.owner, problem.model.dim)
            assert repr(answer) == repr((expected.weight, expected.value))

    def test_candidates_ranked_by_the_value_at_the_root(self):
        # draw 386 of large_exponent_supports wins on {zw, y^2297112}, where
        # s is about 6.5e-7 and u_z = u_w about 7.7e5.  At the root polish
        # proves, the objective at u loses its digits as A = sum(size u) - v
        # cancels; prod((D_c / size_c)^size_c) / s keeps the relative error
        # of the D_c, within 1e-9 of the polished value
        model = Hypersurface(
            ((294610007, 0, 0, 0), (0, 2297112, 0, 0), (0, 0, 177, 0), (0, 0, 0, 6), (0, 0, 1, 1), (2, 0, 0, 2))
        )
        problem = optimize._build_problem(model)
        tie = np.array([[0, 0, 1, 1], [0, 2297112, 0, 0]], dtype=float)
        *mu, s = polish.proven_root(tie, [0.9999997823, 2.176647e-07], 6.52993846e-07, problem.sizes, model.dim)
        _, value = polish.polish_root(tie, mu, s, problem.sizes, problem.owner, model.dim)
        assert value == 1.1753889231347884e-05
        u = problem.sizes / (model.dim * problem.sizes + (s - model.dim) * (np.array(mu) @ tie))
        assert abs(problem.root_value(tie, mu, s) / value - 1) < 1e-9
        assert abs(problem.value(u) / value - 1) > 1e-6

    def test_undecided_polish_keeps_the_float_root(self, monkeypatch):
        # where the enclosure test cannot decide the doubles, the float root's
        # weight and value stand, a few ulp from the polished ones.  Seeded
        # support 47, in 5 classes, wins on a Newton root (value about
        # 19.2506), which still reaches polish
        model = Hypersurface(seeded_supports(400)[47])
        polished, calls = minimize_hvol(model), []
        monkeypatch.setattr(polish, "polish_root", lambda *args: calls.append(args))  # None: undecided
        result = minimize_hvol(model)
        assert len(calls) == 1 and abs(polished.value - 19.2506) < 1e-4
        assert result.status == "converged" and not result.exact
        assert result.active_monomials == polished.active_monomials
        assert np.allclose(result.weight, polished.weight, rtol=1e-14, atol=0)
        assert abs(result.value - polished.value) <= 1e-14 * polished.value

    def test_stalled_run_counts_where_polish_proves_its_root(self, monkeypatch):
        # on {yz, x^191229} of this support the Newton run from mu = (1, 0)
        # ends its 60 iterations next to the root with a residual of about
        # 2e-11, short of the 1e-12 tolerance, and no other stratum has a
        # valid root.  Polish proves the root from where the run stalled, and
        # the answer is its polished doubles, as when the run converged in a
        # batch padded 3 wide; without the proof it was the no-root (1, 1, 1, 1)
        model = Hypersurface(STALLED_SUPPORT)
        proven, proof = [], polish.proven_root

        def recorded(*args):
            proven.append(proof(*args))
            return proven[-1]

        monkeypatch.setattr(polish, "proven_root", recorded)
        result = minimize_hvol(model)
        assert (result.status, result.weight, result.value) == (
            "converged",
            (1.0458664742272355e-05, 1.0, 1.0, 5.229332371136177e-06),
            0.0001411919740206768,
        )
        assert result.active_monomials == ((0, 1, 1, 0), (191229, 0, 0, 0))
        assert STALLED_ROOT in proven

    def test_proven_root(self):
        # from points up to 1e-6 relative off the root of {yz, x^191229} the
        # proof gives the same floats; from 1e-3 off, and from the run of that
        # stratum that ran off to log s = 19.6, it proves no root
        problem = optimize._build_problem(Hypersurface(STALLED_SUPPORT))
        tie, sizes, n = [(0, 1, 1, 0), (191229, 0, 0, 0)], problem.sizes, problem.model.dim
        (a, b, s) = STALLED_ROOT
        for eps in (0, 1e-12, -1e-10, 1e-8, 1e-6):
            assert polish.proven_root(tie, [a * (1 + eps), b * (1 - eps)], s * (1 + eps), sizes, n) == STALLED_ROOT
        assert polish.proven_root(tie, [a * 1.001, b * 0.999], s * 1.001, sizes, n) is None
        assert polish.proven_root(tie, [0.066, 0.934], math.exp(19.58), sizes, n) is None


@functools.cache
def _finalized():
    """Per klt model of the golden rows, the 400 seeded supports and the first
    1000 draws: the model, its answer, the arguments that ``_finalize`` took
    and the stratum size of every run that ``_newton`` took."""
    models = [_golden_model(row) for row in KLT_GOLDEN_ROWS]
    models += [Hypersurface(s) for s in seeded_supports(400) + large_exponent_supports(1000)]
    answers = []
    with (
        mock.patch.object(optimize, "_finalize", wraps=optimize._finalize) as finalize,
        mock.patch.object(optimize, "_newton", wraps=optimize._newton) as newton,
    ):
        for model in models:
            calls = finalize.call_count, newton.call_count
            try:
                result = minimize_hvol(model)
            except NonKltModelError:  # raised before _newton and _finalize run
                continue
            assert finalize.call_count == calls[0] + 1
            runs = [size for call in newton.call_args_list[calls[1] :] for size in call.args[4].tolist()]
            answers.append((model, result, finalize.call_args.args, runs))
    return answers


class TestPinnedBytes:
    def test_repr_of_every_finalized_answer(self):
        # repr(minimize_hvol(model)) of every model of _finalized(), pinned by
        # the first 16 hex digits of its sha256 in tests/data/minimizer_repr.json:
        # a change of the minimizer's path that keeps its answers keeps these
        pinned = json.loads((Path(__file__).parent / "data" / "minimizer_repr.json").read_text())["repr_sha256"]
        digests = [hashlib.sha256(repr(result).encode()).hexdigest()[:16] for _, result, *_ in _finalized()]
        assert (len(digests), [i for i, (a, b) in enumerate(zip(digests, pinned)) if a != b]) == (len(pinned), [])


FLOAT_GOLDEN_ROWS = [row for row in KLT_GOLDEN_ROWS if "." in row["value"]]
ADE_GOLDEN_ROWS = [row for row in GOLDEN["minimizers"] if row["label"][0] in "ADE" and " n=" in row["label"]]


class TestIsolatedRounding:
    """An irrational root of a one-unknown stratum is rounded on the interval that
    isolates it; polish at the same root is the second route."""

    def test_polish_agrees_at_every_isolated_winner(self):
        # 23 irrational winners: the 10 float golden rows, 3 of the seeded
        # supports and 10 of the draws; each carries the interval answer,
        # which minimize_hvol returns, and polish at its float root gives
        # the same bytes
        labels = []
        for model, result, (problem, best), _ in _finalized():
            if not isinstance(best, optimize._Isolated):
                continue
            assert repr(best.answer) == repr((result.weight, result.value)), model.support
            _, tie, mu, s = best
            polished = polish.polish_root(tie, mu, s, problem.sizes, problem.owner, problem.model.dim)
            assert repr(polished) == repr(best.answer), model.support
            labels.append(model.support)
        assert all(_golden_model(row).support in labels for row in FLOAT_GOLDEN_ROWS)
        assert (len(FLOAT_GOLDEN_ROWS), len(labels)) == (10, 23)

    def test_no_polish_on_the_reference_and_float_golden_rows(self, monkeypatch):
        # the 65 A-D-E rows and the 10 float golden rows, 4 of them outside
        # A-D-E, take no polish_root call
        calls = []
        monkeypatch.setattr(polish, "polish_root", lambda *args: calls.append(args))
        rows = ADE_GOLDEN_ROWS + [row for row in FLOAT_GOLDEN_ROWS if row not in ADE_GOLDEN_ROWS]
        for row in rows:
            result = minimize_hvol(_golden_model(row))
            assert ([_scalar_string(w) for w in result.weight], _scalar_string(result.value)) == (
                row["weight"],
                row["value"],
            )
        assert (len(rows), calls) == (69, [])

    def test_past_the_cap_the_former_path_gives_the_same_bytes(self, monkeypatch):
        # an isolated winner left undecided takes the path from before
        # interval rounding, the snap to small rationals and then polish, from
        # its floats at the interval's midpoint: the same bytes.  With no
        # narrowing allowed, _rounded leaves every interval of those models
        # undecided
        calls, polish_root, rounded, answers = [], polish.polish_root, optimize._rounded, []
        monkeypatch.setattr(polish, "polish_root", lambda *args: calls.append(args) or polish_root(*args))
        isolated = [entry[:3] for entry in _finalized() if isinstance(entry[2][1], optimize._Isolated)]
        for _, result, (problem, best) in isolated:
            assert repr(optimize._finalize(problem, tuple(best))) == repr((result.weight, result.value))
        assert len(calls) == len(isolated) == 23

        def recorded(*args):
            answers.append((out := rounded(*args))[2])
            return out

        monkeypatch.setattr(optimize, "_ROUNDS", 0)
        monkeypatch.setattr(optimize, "_rounded", recorded)
        for model, _, _ in isolated:
            minimize_hvol(model)
        assert len(answers) >= len(isolated) and not any(answers)


class TestActiveMonomials:
    def test_exact_pairing_matches_core(self):
        # an exact answer's active monomials are read off the weight's integer
        # numerators over their lcm; core.active_monomials, which validates its
        # input and pairs on Fractions (on floats within its tolerance), gives
        # the same rows on every answer, exact or float
        counts = {True: 0, False: 0}
        for model, result, *_ in _finalized():
            assert result.active_monomials == core.active_monomials(result.weight, model.support), model.support
            counts[result.exact] += 1
        assert counts == {True: 607, False: 55}


# draw 1388 of large_exponent_supports, and the (mu, s) of its winning root
STALLED_SUPPORT = ((191229, 0, 0, 0), (0, 3680, 0, 0), (0, 0, 240, 0), (0, 0, 0, 29838697), (3, 0, 2, 0), (0, 1, 1, 0))
STALLED_ROOT = [0.9999973853269779, 2.6146730220652257e-06, 7.843998556704266e-06]


class TestOneRootPerStratum:
    """Every start of a stratum that converges reaches one root, so the first
    root of a stratum may stop its other starts."""

    @pytest.mark.parametrize("row", [row for row in GOLDEN_ROWS if "error" not in row], ids=lambda row: row["label"])
    def test_starts_alone_agree(self, row):
        # every start of every stratum of at least two rows in one batch, each
        # run alone in its own stratum, so that none stops another
        problem = optimize._build_problem(_golden_model(row))
        ties, starts = [], []
        for subset in _strata(problem):
            k = len(subset)
            if k > 1:
                ties += [problem.rows[list(subset)].tolist()] * (k + 1)
                starts += [[1.0 / k] * k] + np.eye(k).tolist()
        if not ties:
            return
        mu, s, found, _ = _newton_runs(problem, ties, starts, stratum=np.arange(len(ties)))
        roots = {}
        for i in np.flatnonzero(found):
            root = np.append(mu[i][len(mu[i]) - len(starts[i]) :], math.log(s[i]))
            first = roots.setdefault(str(ties[i]), root)
            assert np.max(np.abs(root - first)) <= 1e-9, (ties[i], first, root)


def _newton_runs(problem, ties, starts, stratum=None):
    """Runs of any stratum sizes in one batch, padded in front to the largest size.

    Unless ``stratum`` labels them, runs on equal rows share a stratum, as
    the starts of one stratum do in ``_stationary_points``.
    """
    top, size = max(map(len, ties)), np.array([len(tie) for tie in ties])
    tie = np.array([np.pad(np.array(t, dtype=float), ((top - len(t), 0), (0, 0))) for t in ties])
    mu = np.array([np.pad(np.array(start, dtype=float), (top - len(start), 0)) for start in starts])
    if stratum is None:
        labels = {}
        stratum = np.array([labels.setdefault(np.array(t, dtype=float).tobytes(), len(labels)) for t in ties])
    return optimize._newton(tie, problem.sizes, problem.model.dim, mu, size, stratum)


class TestNewtonStops:
    """Each run ends as it would alone and unpadded, to a root within 1e-9,
    unless another start of its stratum converges first: then it stops in
    that iteration."""

    def _assert_runs_alone_agree(self, problem, ties, starts, batch):
        # a run converges in the batch exactly when it converges alone, and
        # to a root within 1e-9 of its run alone, unless it was stopped: then
        # it is unconverged in the batch, and alone it converges to the root
        # of the sibling that stopped it.  Returns the number stopped
        stopped = 0
        for i, (tie, start) in enumerate(zip(ties, starts)):
            mu, s, found, _ = _newton_runs(problem, [tie], [start])
            padding = len(batch[0][i]) - len(start)
            assert not batch[0][i][:padding].any()
            j = i
            if found[0] and not batch[2][i]:
                j = next(j for j, other in enumerate(ties) if batch[2][j] and np.array_equal(other, tie))
                stopped += 1
            assert batch[2][j] == found[0]
            if found[0]:
                assert abs(math.log(s[0]) - math.log(batch[1][j])) <= 1e-9
                assert np.max(np.abs(mu[0] - batch[0][j][padding:])) <= 1e-9
        return stopped

    def test_root_run_off_and_zero_step(self):
        # D n=3 k=4 has classes of sizes (3, 1, 1) and n = 4: the squares'
        # row (2, 0, 0) has a root at s = 1, the pure power (0, 0, 4) has
        # none and its residual fades like 1/s, and a row (3, 0, 0), as
        # x1 x2 x3 would give, has residual 2 and a Newton step of exactly
        # 0 at s = n
        problem = optimize._build_problem(d_singularity(3, 4))
        ties, starts = [[(2, 0, 0)], [(0, 0, 4)], [(3, 0, 0)]], [[1.0]] * 3
        batch = mu, s, found, _ = _newton_runs(problem, ties, starts)
        assert found.tolist() == [True, False, False]
        assert abs(s[0] - 1) <= 1e-12
        # the run-off ends within the last unit below the cap, not walked up to it
        assert optimize._LOG_S_CAP - 1 < math.log(s[1]) < optimize._LOG_S_CAP - 1e-3
        assert s[2] == problem.model.dim
        self._assert_runs_alone_agree(problem, ties, starts, batch)

    def test_multiplier_bound(self):
        # D n=2 k=5: from the vertex (0, 1) the first step on the stratum
        # {z^5, y^2 z} sends the multipliers past the bound, while the
        # stratum {z^5, squares} has a root from the barycentre
        problem = optimize._build_problem(d_singularity(2, 5))
        ties = [[(0, 0, 5), (2, 0, 0)], [(0, 0, 5), (0, 2, 1)]]
        starts = [[0.5, 0.5], [0.0, 1.0]]
        batch = mu, s, found, _ = _newton_runs(problem, ties, starts)
        assert found.tolist() == [True, False]
        assert np.max(np.abs(mu[1])) > optimize._MU_BOUND
        self._assert_runs_alone_agree(problem, ties, starts, batch)

    def test_damped_steps(self):
        # D n=2 k=5 on the stratum {z^5, squares}: from the barycentre and
        # from both vertices some steps must be halved to keep every D_c > 0
        # (one to four a run), and every run alone reaches the root at s = 3/10.
        # In one batch the barycentre and the vertex (0, 1) converge in the
        # same iteration, which stops the run from (1, 0)
        problem = optimize._build_problem(d_singularity(2, 5))
        ties, starts = [[(0, 0, 5), (2, 0, 0)]] * 3, [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]
        batch = mu, s, found, _ = _newton_runs(problem, ties, starts)
        assert found.tolist() == [True, False, True]
        assert np.all(np.abs(s[found] - 0.3) <= 1e-12)
        assert self._assert_runs_alone_agree(problem, ties, starts, batch) == 1

    def test_first_halving_then_the_rest(self, monkeypatch):
        # D n=2 k=5: from either vertex the stratum {z^5, squares} needs steps
        # shorter than the first halving within the cap, while {y^2 z, squares}
        # takes that first halving at every step from the barycentre.  Each
        # evaluation's row count is recorded: the first pass holds at most one
        # row per run, the second 40 per run its first halving failed
        problem = optimize._build_problem(d_singularity(2, 5))
        ties = [[(0, 0, 5), (2, 0, 0)]] * 2 + [[(0, 2, 1), (2, 0, 0)]]
        starts = [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]
        exp = np.exp

        def evaluations(ties, starts):
            rows = []

            def counted(t):
                rows.append(len(t))
                return exp(t)

            monkeypatch.setattr(np, "exp", counted)
            try:
                return _newton_runs(problem, ties, starts), rows
            finally:
                monkeypatch.setattr(np, "exp", exp)

        alone = [evaluations([tie], [start])[1] for tie, start in zip(ties, starts)]
        assert [max(rows) >= 40 for rows in alone] == [True, True, False]
        batch, rows = evaluations(ties, starts)
        # the vertex (0, 1) converges first on {z^5, squares} and stops the run from (1, 0)
        assert batch[2].tolist() == [False, True, True]
        # the second pass runs in an iteration whose first pass held every run,
        # so the barycentre run took its first halving beside it
        second = next(i for i, count in enumerate(rows) if count >= 40)
        assert rows[second - 1] == len(ties)
        assert self._assert_runs_alone_agree(problem, ties, starts, batch) == 1

    @pytest.mark.parametrize("model", [d_singularity(3, 4), e_singularity(6, 2)], ids=["D n=3 k=4", "E6 n=2"])
    def test_padded_batch_of_every_stratum(self, model):
        # every stratum of the problem from every start, sizes 1, 2 and 3 in
        # one batch: each run agrees with the run alone and unpadded, except
        # the 7 of 16 runs stopped when another start of their stratum converged
        problem = optimize._build_problem(model)
        strata = sorted(_strata(problem), key=len)
        ties, starts = [], []
        for subset in strata:
            k = len(subset)
            for start in [[1.0 / k] * k] + (np.eye(k).tolist() if k > 1 else []):
                ties.append(problem.rows[list(subset)].tolist())
                starts.append(start)
        assert sorted({len(tie) for tie in ties}) == [1, 2, 3]
        batch = _newton_runs(problem, ties, starts)
        assert batch[2].any() and not batch[2].all()
        assert (self._assert_runs_alone_agree(problem, ties, starts, batch), len(ties)) == (7, 16)

    def test_fixed_point_stops_early(self, monkeypatch):
        # D n=1 k=3 on the stratum {y^2 z, x^2}: from the barycentre and both
        # vertices the runs drift toward s = 0 and come to rest with residual
        # about 1e-8, where each accepted step leaves (mu, t) unchanged
        problem = optimize._build_problem(d_singularity(1, 3))
        ties, starts = [[(0, 2, 1), (2, 0, 0)]] * 3, [[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]
        calls, svd = [], np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0])
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        mu, s, found, stalled = _newton_runs(problem, ties, starts)
        assert not found.any() and stalled.all()
        assert 0 < len(calls) < 60
        assert np.all(np.log(s) < -10)
        monkeypatch.setattr(np.linalg, "svd", svd)
        row = next(row for row in GOLDEN["minimizers"] if row["label"] == "D n=1 k=3")
        result = minimize_hvol(d_singularity(1, 3))
        assert [_scalar_string(w) for w in result.weight] == row["weight"]
        assert _scalar_string(result.value) == row["value"]


class TestRootlessStrata:
    """One-monomial strata are proved rootless or solved exactly, so none reaches Newton."""

    def test_dropped_rows_have_no_root(self):
        # a row e with e_c = 0 or e_c >= size_c on every class, other than a
        # linear monomial, has no root: with a_c = e_c / size_c and
        # D = n (1 - a) + a s > 0, s <e, u> = sum_c size_c a_c s / D_c, and
        # a s / D - 1 = n (a - 1) / D >= 0, so it is at least the total size
        # touched, >= 1, with equality throughout only for a linear monomial.
        # _univariate_roots skips such a stratum unsolved (_rootless), so the
        # second route is the polynomial solve it would have run: _one_row,
        # _roots_in, then holds at a rational root or the signs at an
        # irrational one.  On the golden rows (all 65 A-D-E reference rows, the
        # frozen and seeded supports) under both classings, the 400 seeded
        # supports and the first 1000 draws, klt or not, it runs on the 3481
        # distinct rows of the 7996 dropped strata and finds 81 roots, none
        # valid, and Newton finds none either
        golden = [_golden_model(row) for row in GOLDEN_ROWS]
        cases = [(model, trivial) for model in golden for trivial in (False, True)]
        cases += [(Hypersurface(s), False) for s in seeded_supports(400) + large_exponent_supports(1000)]
        checked, dropped, newton, found = set(), 0, {}, 0
        for model, trivial in cases:
            problem = optimize._build_problem(model, trivial_classes=trivial)
            n, sizes, rows = model.dim, problem.sizes.astype(int).tolist(), problem.rows.astype(int).tolist()
            for subset in _strata(problem):
                row = rows[subset[0]]
                if len(subset) > 1 or len(subset) == len(sizes) or sum(row) == 1 or not optimize._rootless(row, sizes):
                    continue
                assert optimize._univariate_roots(problem, {subset: None}) == ([], []), model.support
                dropped += 1
                if (key := (tuple(row), tuple(sizes), n)) in checked:
                    continue
                checked.add(key)
                system = optimize._one_row(rows, subset, sizes, n)
                g = poly.squarefree(poly.trim(system.f))
                for a, b in optimize._roots_in(g, system.lo, system.hi) if len(g) > 1 else ():
                    found += 1
                    if a == b:
                        root = system.solve(*a.as_integer_ratio())
                        assert root is None or not system.holds(root, *a.as_integer_ratio()), key
                    else:
                        assert any(poly.sign_at(h, g, a, b) < 0 for h in system.conditions()), key
                newton.setdefault(key[1:], (problem, []))[1].append(row)
        for problem, rows in newton.values():  # one batch per class sizes and n, each run alone in its stratum
            assert not _newton_runs(problem, [[row] for row in rows], [[1.0]] * len(rows))[2].any()
        assert (dropped, len(checked), found) == (7996, 3481, 81)

    def test_rootless_rows_never_build_a_system(self, monkeypatch):
        # on the 65 A-D-E reference rows, 109 one-row strata without a linear
        # monomial are rootless, and none of them reaches _one_row, which
        # builds the systems of the 41 others
        built, one_row = [], optimize._one_row

        def recorded(rows, subset, sizes, n):
            built.append(optimize._rootless(rows[subset[0]], sizes))
            return one_row(rows, subset, sizes, n)

        monkeypatch.setattr(optimize, "_one_row", recorded)
        skipped = 0
        for row in ADE_GOLDEN_ROWS:
            model = _golden_model(row)
            problem = optimize._build_problem(model)
            sizes, rows = problem.sizes.astype(int).tolist(), problem.rows.astype(int).tolist()
            singles = [sub for sub in _strata(problem) if len(sub) == 1 < len(sizes) and sum(rows[sub[0]]) > 1]
            skipped += sum(optimize._rootless(rows[sub[0]], sizes) for sub in singles)
            minimize_hvol(model)
        assert (skipped, len(built), any(built)) == (109, 41, False)

    def test_rootless_rows(self):
        # classes of sizes (3, 1, 1) as in D n=3 k=4, each row alone: the
        # squares' row (2, 0, 0) has its root at s = 1; z^4, y^2 z and x1 x2 x3
        # have every e_c >= size_c and no root; a linear monomial (a flat
        # family, s <e, u> = 1 at every s) has its root at s = n = 4
        problem = optimize._build_problem(d_singularity(3, 4))
        found = {}
        for row in [(2, 0, 0), (0, 0, 1), (0, 0, 4), (0, 2, 1), (3, 0, 0)]:
            alone = dataclasses.replace(problem, rows=np.array([row], dtype=float))
            roots, rest = optimize._univariate_roots(alone, {(0,): None})
            found[row] = "newton" if rest else [s for *_, s in roots]
        assert found == {(2, 0, 0): [1], (0, 0, 1): [4], (0, 0, 4): [], (0, 2, 1): [], (3, 0, 0): []}

    def test_rootless_strata_skip_newton(self, monkeypatch):
        # on D n=3 k=4 the one-monomial strata are z^4 and y^2 z, which have
        # no root, and the squares' row (2, 0, 0), which has one; all three
        # are solved exactly, so no singleton reaches Newton, while
        # starts_used still counts every stratum
        model = d_singularity(3, 4)
        problem = optimize._build_problem(model)
        strata = _strata(problem)
        singles = {tuple(problem.rows[subset[0]]) for subset in strata if len(subset) == 1}
        assert singles == {(0, 0, 4), (0, 2, 1), (2, 0, 0)}
        seen, newton = set(), optimize._newton

        def recorded(tie, sizes, n, mu, size, stratum):
            # each run's stratum without its leading padded rows
            seen.update(tuple(map(tuple, rows[len(rows) - k :].tolist())) for rows, k in zip(tie, size))
            return newton(tie, sizes, n, mu, size, stratum)

        monkeypatch.setattr(optimize, "_newton", recorded)
        result = minimize_hvol(model)
        assert not any(len(stratum) == 1 for stratum in seen)
        assert result.starts_used == len(strata)
