"""Optimizer behavior: exact recoveries, diagnostics, determinism, edge cases."""

import math
from fractions import Fraction as F

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
    evaluate_branch,
    log_discrepancy,
    minimize_hvol,
    normalized_volume,
    orthant_cone,
    symmetrize,
)
from hvol import optimize
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


class TestEvaluateBranch:
    def test_active_branch_equals_hvol(self):
        model = a_singularity(2, 3)
        x = (F(1), F(1), F(2, 3))
        value = evaluate_branch(model, x, (2, 0, 0))
        assert value == F(4, 3)
        assert value == normalized_volume(model, x).normalized_volume

    def test_quadric_uniform_weight(self):
        for n in (2, 3, 4):
            model = a_singularity(n, 2)
            value = evaluate_branch(model, (F(1),) * (n + 1), (2,) + (0,) * n)
            assert value == 2 * (n - 1) ** n

    def test_inactive_branch_is_advisory(self):
        model = a_singularity(2, 3)
        x = (F(1), F(1), F(2))  # cube monomial has weight 6, not minimal
        branch = evaluate_branch(model, x, (0, 0, 3))
        true = normalized_volume(model, x).normalized_volume
        assert branch != true  # no comparison guarantee either way

    def test_membership_checked(self):
        with pytest.raises(DomainError):
            evaluate_branch(a_singularity(2, 3), (F(1), F(1), F(1)), (1, 1, 1))


class TestMinimizeSmooth:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_standard_blowup_minimizes(self, n):
        result = minimize_hvol(SmoothPoint(n), seed=0)
        assert result.weight == (F(1),) * n
        assert result.value == n**n
        assert result.status == "converged"
        assert result.exact

    def test_first_order_residual_small(self):
        result = minimize_hvol(SmoothPoint(3), seed=0)
        assert result.first_order_residual <= 1e-7


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

    def test_flat_family_reports_most_tied_point(self):
        # k = 1: any last coordinate in (0, 2] minimizes; the reported
        # weight is the lexicographically smallest normalized one, where
        # the quadratic monomials tie with the linear one
        result = minimize_hvol(a_singularity(3, 1), seed=0)
        assert result.weight == (F(1, 2), F(1, 2), F(1, 2), F(1))
        assert result.value == 27

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
        a = minimize_hvol(d_singularity(2, 4), starts=9, seed=123)
        b = minimize_hvol(d_singularity(2, 4), starts=9, seed=123)
        assert a == b

    def test_boundary_suspect_on_log_canonical_cone(self):
        # the cubic cone in 3-space is log canonical, not klt: the extended
        # formula has infimum 0 along the valid region's edge
        cubic = Hypersurface(((3, 0, 0), (0, 3, 0), (0, 0, 3)))
        result = minimize_hvol(cubic, seed=0)
        assert result.status == "boundary-suspect"
        assert float(result.value) < 1.0

    def test_infeasible_model_rejected(self):
        # every monomial divisible by every coordinate: A <= 0 throughout
        model = Hypersurface(((2, 2), (1, 3)))
        with pytest.raises(NonKltModelError):
            minimize_hvol(model, seed=0)

    def test_starts_validation(self):
        with pytest.raises(DomainError):
            minimize_hvol(SmoothPoint(2), starts=0)


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
        results = [
            minimize_hvol(model, starts=starts, seed=seed)
            for seed in (0, 1, 123)
            for starts in (1, 12)
        ]
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


class TestUnreducedSolve:
    @pytest.mark.parametrize("model", ADE_UP_TO_AMBIENT_4.values(), ids=ADE_UP_TO_AMBIENT_4.keys())
    def test_unreduced_value_matches_reduced(self, model):
        # without symmetry reduction the solve runs in every coordinate, so
        # a minimizer off the class-constant slice would show up here
        values = []
        for trivial in (False, True):
            problem = optimize._build_problem(model, trivial_classes=trivial)
            roots, _ = optimize._stationary_points(problem)
            values.append(problem.value(optimize._select_best(problem, roots)[0]))
        reduced, unreduced = values
        assert abs(unreduced - reduced) <= 1e-9 * reduced


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


class TestBoundaryWeight:
    @pytest.mark.parametrize(
        "support",
        [
            ((3, 0, 0), (0, 3, 0), (0, 0, 3)),
            # fewer monomials than variables: no tie ray is determined by
            # the monomials alone, and A = x4 > 0 on the whole open cone
            ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0)),
        ],
        ids=["cubic-cone", "cubic-cone-times-line"],
    )
    def test_weight_is_exact_and_klt_valid(self, support):
        model = Hypersurface(support)
        result = minimize_hvol(model)
        assert result.status == "boundary-suspect"
        assert all(isinstance(w, F) and w > 0 for w in result.weight)
        a = log_discrepancy(model, result.weight)
        assert 0 < a < F(1, 100) * sum(result.weight)
        assert result.value == normalized_volume(model, result.weight).normalized_volume
        assert math.isfinite(result.first_order_residual)
