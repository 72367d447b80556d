"""Closed-form invariants: pinned values, derived oracles, and properties."""

import itertools
import math
from fractions import Fraction as F

import pytest

from hvol import (
    DomainError,
    Hypersurface,
    InvalidModelError,
    NonKltWeightError,
    SmoothPoint,
    ToricCone,
    UnsupportedModelError,
    a_singularity,
    active_monomials,
    d_singularity,
    e_singularity,
    ideal_value,
    log_discrepancy,
    normalized_volume,
    orthant_cone,
    skewness,
    volume,
    weighted_order,
)
from hvol.fujita import projective_space_cone
from hvol.lattice import colength, default_radii, estimate_volume
from hvol.models import check_weight

A23_SUPPORT = a_singularity(2, 3).support  # squares plus a cube


class TestWeightedOrder:
    def test_a_type_cube(self):
        assert weighted_order((F(1), F(1), F(2, 3)), A23_SUPPORT) == 2

    def test_uniform_weights_give_min_total_degree(self):
        support = ((3, 1, 0), (2, 2, 2), (0, 0, 5))
        assert weighted_order((F(1), F(1), F(1)), support) == 4

    def test_d_type_triple_tie(self):
        # direct enumeration of the three dot products
        model = d_singularity(1, 3)
        x = (F(1), F(2, 3), F(2, 3))
        values = [sum(xi * ei for xi, ei in zip(x, e)) for e in model.support]
        assert min(values) == 2
        assert weighted_order(x, model.support) == 2
        assert values.count(2) == 3

    def test_active_monomials(self):
        x = (F(1), F(1), F(2, 3))
        assert active_monomials(x, A23_SUPPORT) == ((0, 0, 3), (0, 2, 0), (2, 0, 0))
        assert active_monomials((F(1), F(2), F(2)), A23_SUPPORT) == ((2, 0, 0),)

    def test_empty_support_rejected(self):
        with pytest.raises(InvalidModelError):
            weighted_order((F(1),), ())

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(DomainError):
            weighted_order((F(0), F(1), F(1)), A23_SUPPORT)

    @pytest.mark.parametrize("evaluate", [weighted_order, active_monomials])
    def test_infinite_weight_rejected(self, evaluate):
        with pytest.raises(DomainError, match="finite"):
            evaluate((1.0, math.inf, 1.0), a_singularity(2, 2).support)


class TestLogDiscrepancy:
    def test_smooth_sum(self):
        assert log_discrepancy(SmoothPoint(3), (F(1), F(1), F(1))) == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_quadric_uniform(self, n):
        model = a_singularity(n, 2)
        assert log_discrepancy(model, (F(1),) * (n + 1)) == n - 1

    def test_toric_pairing(self):
        cone = ToricCone(((1, 0), (0, 1)), (F(1), F(1)))
        assert log_discrepancy(cone, (F(2), F(3))) == 5

    def test_non_klt_weight(self):
        quartic = Hypersurface(((4, 0, 0), (0, 4, 0), (0, 0, 4)))
        with pytest.raises(NonKltWeightError):
            log_discrepancy(quartic, (F(1), F(1), F(1)))


class TestVolume:
    def test_smooth_reciprocal_product(self):
        assert volume(SmoothPoint(3), (F(1), F(2), F(3))) == F(1, 6)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quadric_uniform(self, n):
        assert volume(a_singularity(n, 2), (F(1),) * (n + 1)) == 2

    def test_e7_spot_value(self):
        model = e_singularity(7, 2)
        x = (F(1), F(1), F(4, 9), F(2, 3))
        assert weighted_order(x, model.support) == 2
        prod = F(1) * F(1) * F(4, 9) * F(2, 3)
        assert prod == F(8, 27)
        assert volume(model, x) == F(27, 4)

    def test_leading_term_consistency(self):
        # vol * prod(x) == weighted order, exactly
        model = e_singularity(6, 3)
        for x in [(F(1), F(1), F(1), F(2, 3), F(5, 9)), (F(2), F(3), F(1), F(1), F(7, 5))]:
            prod = F(1)
            for v in x:
                prod *= v
            assert volume(model, x) * prod == weighted_order(x, model.support)


class TestNormalizedVolume:
    def test_smooth_has_n_to_n(self):
        report = normalized_volume(SmoothPoint(3), (F(1), F(1), F(1)))
        assert report.normalized_volume == 27
        assert report.skewness == 1
        assert report.ideal_value == 1

    def test_quadric_threefold(self):
        report = normalized_volume(a_singularity(3, 2), (F(1),) * 4)
        assert report.normalized_volume == 16  # 2 (n-1)^n with n = 3

    def test_surface_a2(self):
        report = normalized_volume(a_singularity(2, 3), (F(1), F(1), F(2, 3)))
        assert report.normalized_volume == F(4, 3)

    def test_intrinsic_dimension_exponent(self):
        # the exponent is dim X, one less than the ambient dimension
        model = a_singularity(3, 2)
        x = (F(1), F(2), F(3), F(4))
        report = normalized_volume(model, x)
        a, vol = report.log_discrepancy, report.volume
        assert report.normalized_volume == a**3 * vol
        assert report.normalized_volume != a**4 * vol

    def test_skewness_unavailable_off_smooth(self):
        assert normalized_volume(a_singularity(2, 2), (F(1),) * 3).skewness is None
        assert normalized_volume(orthant_cone(2), (F(1), F(1))).skewness is None

    def test_report_invariants(self):
        report = normalized_volume(SmoothPoint(4), (F(1), F(3, 2), F(2), F(5)))
        assert report.ideal_value == 1
        assert report.skewness >= report.ideal_value


class TestScaleInvariance:
    @pytest.mark.parametrize(
        "model",
        [SmoothPoint(3), a_singularity(3, 3), e_singularity(7, 2), orthant_cone(2)],
        ids=["smooth", "a-family", "e7", "toric"],
    )
    def test_exact_scale_invariance(self, model):
        import random

        rnd = random.Random(7)
        for _ in range(50):
            x = tuple(F(rnd.randint(1, 40), rnd.randint(1, 12)) for _ in range(model.ambient_dim))
            lam = F(rnd.randint(1, 30), rnd.randint(1, 10))
            base = normalized_volume(model, x)
            scaled = normalized_volume(model, tuple(lam * v for v in x))
            assert scaled.normalized_volume == base.normalized_volume
            assert scaled.log_discrepancy == lam * base.log_discrepancy
            assert scaled.volume == base.volume / lam**model.dim


class TestSmoothInequalities:
    def test_dfem_bound_and_equality_case(self):
        import random

        rnd = random.Random(3)
        n = 4
        for _ in range(200):
            x = tuple(F(rnd.randint(1, 60), rnd.randint(1, 20)) for _ in range(n))
            hvol = normalized_volume(SmoothPoint(n), x).normalized_volume
            assert hvol >= n**n
            if len(set(x)) > 1:
                assert hvol > n**n

    def test_monomial_identity_sorted(self):
        import random

        rnd = random.Random(11)
        for n in (2, 3, 4, 5):
            for _ in range(100):
                x = sorted(F(rnd.randint(1, 60), rnd.randint(1, 20)) for _ in range(n))
                vol = volume(SmoothPoint(n), tuple(x))
                lhs = x[-1] ** (n - 1) * vol * x[0]
                product = F(1)
                for xi in x[1:-1]:
                    product *= x[-1] / xi
                assert lhs == product
                assert product >= 1


class TestToric:
    def test_gorenstein_guard(self):
        with pytest.raises(InvalidModelError):
            ToricCone(((1, 0), (1, 2)), (F(1), F(1)))

    def test_quadric_cone_matches_hypersurface(self):
        # rank-2 cone with dual rays (1,0) and (1,2); the same germ as the
        # quadric surface z^2 = u w at matched monomial weights.  The
        # monomial match needs the product form of the conic: the dual-cone
        # characters u, z, w pair with x = (a, b) to a, a+b, a+2b.
        cone = ToricCone(((0, 1), (2, -1)), (F(1), F(1)))
        assert set(cone.dual_rays()) == {(1, 0), (1, 2)}
        quadric = Hypersurface(((2, 0, 0), (0, 1, 1)))  # z^2 = u w
        for a, b in [(F(1), F(1)), (F(2), F(1)), (F(3), F(5)), (F(5, 2), F(1, 3))]:
            x_cone = (a, b)
            x_hyp = (a + b, a, a + 2 * b)  # weights of z, u, w
            rc = normalized_volume(cone, x_cone)
            rh = normalized_volume(quadric, x_hyp)
            assert rc.volume == rh.volume
            assert rc.log_discrepancy == rh.log_discrepancy
            assert rc.normalized_volume == rh.normalized_volume

    def test_interior_check(self):
        cone = ToricCone(((0, 1), (2, -1)), (F(1), F(1)))
        with pytest.raises(DomainError):
            check_weight(cone, (F(-1), F(1)))

    def test_orthant_matches_smooth(self):
        cone = orthant_cone(3)
        x = (F(1), F(2), F(3))
        assert volume(cone, x) == volume(SmoothPoint(3), x)
        assert log_discrepancy(cone, x) == log_discrepancy(SmoothPoint(3), x)


class TestFloatPath:
    def test_float_weights_track_exact_values(self):
        model = e_singularity(7, 2)
        exact = normalized_volume(model, (F(1), F(1), F(4, 9), F(2, 3)))
        floats = normalized_volume(model, (1.0, 1.0, 4 / 9, 2 / 3))
        assert isinstance(floats.normalized_volume, float)
        assert abs(floats.normalized_volume - float(exact.normalized_volume)) <= 1e-9
        assert abs(floats.log_discrepancy - float(exact.log_discrepancy)) <= 1e-12


class TestModelValidation:
    def test_multiplicity_one_rejected_without_flag(self):
        with pytest.raises(InvalidModelError):
            Hypersurface(((2, 0), (0, 1)))

    def test_multiplicity_one_allowed_with_flag(self):
        model = Hypersurface(((2, 0), (0, 1)), allow_smooth_germ=True)
        assert model.multiplicity == 1

    def test_duplicate_support_rejected(self):
        with pytest.raises(InvalidModelError):
            Hypersurface(((2, 0), (2, 0)))

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidModelError):
            Hypersurface(((2, 0), (0, 0)))

    def test_weight_length_mismatch(self):
        with pytest.raises(DomainError):
            normalized_volume(SmoothPoint(3), (F(1), F(1)))

    @pytest.mark.parametrize(
        "evaluate, model, weight",
        [
            (check_weight, SmoothPoint(2), (1.0, math.inf)),
            (normalized_volume, SmoothPoint(2), (1.0, math.inf)),
            (check_weight, a_singularity(2, 2), (1.0, 1.0, math.inf)),
            (normalized_volume, a_singularity(2, 2), (1.0, 1.0, math.inf)),
            (check_weight, orthant_cone(2), (1.0, math.inf)),
            (normalized_volume, orthant_cone(2), (math.inf, 1.0)),
            # finite weights whose float closed form leaves the float range
            (normalized_volume, SmoothPoint(3), (1e-300,) * 3),
            (volume, SmoothPoint(3), (1e-300,) * 3),
            (normalized_volume, SmoothPoint(3), (1e200, 1.0, 1.0)),
            (normalized_volume, a_singularity(2, 2), (1e-300,) * 3),
        ],
        ids=[
            "check-smooth", "nv-smooth", "check-hypersurface", "nv-hypersurface", "check-toric", "nv-toric",
            "nv-product-underflow", "vol-product-underflow", "nv-power-overflow", "nv-hypersurface-underflow",
        ],
    )
    def test_infinite_weight_rejected(self, evaluate, model, weight):
        with pytest.raises(DomainError, match="finite"):
            evaluate(model, weight)

    @pytest.mark.parametrize(
        "evaluate",
        [normalized_volume, volume, log_discrepancy, ideal_value, skewness, estimate_volume,
         lambda model, weight: colength(model, weight, 10), default_radii],
        ids=["normalized_volume", "volume", "log_discrepancy", "ideal_value", "skewness",
             "estimate_volume", "colength", "default_radii"],
    )
    def test_cone_model_is_unsupported(self, evaluate):
        # check_weight owns the model-kind decision for every closed form and the oracle
        with pytest.raises(UnsupportedModelError, match="unknown model kind"):
            evaluate(projective_space_cone(2), (F(1), F(1)))

    def test_multiplicity_values(self):
        assert a_singularity(3, 5).multiplicity == 2
        assert Hypersurface(((3, 0), (0, 4))).multiplicity == 3
