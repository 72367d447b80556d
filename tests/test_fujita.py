"""Cone interpolation: exact integrals, endpoint identities, convexity."""

import contextlib
import io
import json
import math
import pickle
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hvol import DomainError, InvalidCurveError, fujita, poly
from hvol.cli import main
from hvol.fujita import (
    ConeModel,
    VolumeCurve,
    catalog,
    convexity_check,
    eta,
    f_of_t,
    f_of_t_slope_form,
    negative_eta_cone,
    phi,
    phi_prime_zero,
    positive_eta_cone,
    projective_space_cone,
    vol_w_alpha,
)
from hvol.modelio import dumps_canonical
from hvol.models import SmoothPoint
from hvol.core import normalized_volume


def unit_interval_curve(coeffs, vol0=F(1)):
    return VolumeCurve(breakpoints=(F(0), F(1)), pieces=(tuple(coeffs),), vol_at_zero=vol0)


def power_cone(n, tau):
    """Cone of dimension n with r = n and the curve (1 - x/tau)^(n-1) on [0, tau]."""
    tau = F(tau)
    coeffs = tuple(math.comb(n - 1, j) * (-1 / tau) ** j for j in range(n))
    curve = VolumeCurve(breakpoints=(F(0), tau), pieces=(coeffs,), vol_at_zero=F(1))
    return ConeModel(base_dim=n - 1, r=F(n), curve=curve)


def linear_surface_cone(tau):
    """Surface cone with r = 2 and the curve 1 - x/tau: n * eta = 4 - 4 tau."""
    tau = F(tau)
    curve = VolumeCurve(breakpoints=(F(0), tau), pieces=((F(1), -1 / tau),), vol_at_zero=F(1))
    return ConeModel(base_dim=1, r=F(2), curve=curve)


class TestVolumeCurve:
    def test_value_and_tau(self):
        curve = unit_interval_curve([F(1), F(-1)])
        assert curve.value(F(1, 2)) == F(1, 2)
        assert curve.value(F(2)) == 0
        assert curve.tau == 1

    def test_discontinuity_rejected(self):
        with pytest.raises(InvalidCurveError):
            VolumeCurve(
                breakpoints=(F(0), F(1, 2), F(1)),
                pieces=((F(1),), (F(1, 4), F(-1, 4))),
                vol_at_zero=F(1),
            )

    def test_terminal_jump_rejected(self):
        # the curve must hit 0 at tau: a positive terminal value would put
        # a point mass into the slope measure
        with pytest.raises(InvalidCurveError):
            unit_interval_curve([F(1)])

    def test_increasing_curve_rejected(self):
        with pytest.raises(InvalidCurveError):
            VolumeCurve(
                breakpoints=(F(0), F(1)),
                pieces=((F(1), F(1), F(-2)),),
                vol_at_zero=F(1),
            )

    def test_rise_between_grid_points_rejected(self):
        # P' > 0 only on (0.009, 0.053), inside the first step of a 17-point grid on [0, 1]
        curve = [F(1859, 6144), F(-1, 2048), F(1, 32), F(-1, 3)]
        with pytest.raises(InvalidCurveError):
            unit_interval_curve(curve, vol0=curve[0])
        with pytest.raises(InvalidCurveError):
            ConeModel(3, 4, VolumeCurve((0, 1), (curve,), curve[0]))

    @pytest.mark.parametrize("coeffs", [
        (F(1, 4), F(-3, 4), F(3, 2), F(-1)),  # P' = -3 (x - 1/2)^2
        (F(7, 15), F(-1), F(0), F(4, 3), F(0), F(-4, 5)),  # P' = -(1 - 2 x^2)^2
    ], ids=["rational-double-root", "irrational-double-root"])
    def test_derivative_touching_zero_accepted(self, coeffs):
        curve = unit_interval_curve(coeffs, vol0=coeffs[0])
        assert curve.value(F(1, 2)) < coeffs[0]

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(roots=st.lists(
        st.tuples(st.fractions(-1, 2, max_denominator=8), st.integers(1, 3)), min_size=1, max_size=3,
    ))
    def test_exact_check_matches_the_sign_of_the_factored_derivative(self, roots):
        """P' = -prod (x - r)^m on [0, 1]: the curve builds iff P' <= 0 at 0, 1 and
        between each pair of consecutive distinct roots."""
        deriv = [F(-1)]
        for r, m in roots:
            for _ in range(m):
                deriv = poly.mul(deriv, [-r, F(1)])
        anti = [F(0)] + [c / (i + 1) for i, c in enumerate(deriv)]
        coeffs = [-poly.value(anti, 1)] + anti[1:]  # P(1) = 0
        cuts = sorted({F(0), F(1)} | {r for r, _ in roots if 0 < r < 1})
        probes = cuts + [(u + v) / 2 for u, v in zip(cuts, cuts[1:])]
        falling = all(poly.value(deriv, x) <= 0 for x in probes)
        if falling:
            assert unit_interval_curve(coeffs, vol0=coeffs[0]).value(0) == coeffs[0]
        else:
            with pytest.raises(InvalidCurveError):
                unit_interval_curve(coeffs, vol0=coeffs[0])

    @pytest.mark.parametrize("factors, odd, roots", [
        # (constant, ((factor, multiplicity), ...)), the odd part, and its real roots
        ((-3, (([-2, 0, 1], 2), ([-1, 0, 3], 1), ([-1, 2], 3))), [1, -2, -3, 6],
         (-1 / math.sqrt(3), F(1, 2), 1 / math.sqrt(3))),
        ((-1, (([-2, 0, 1], 3), ([1, 1], 2))), [-2, 0, 1], (-math.sqrt(2), math.sqrt(2))),
        ((5, (([-3, 0, 1], 4), ([-2, 1], 1))), [-2, 1], (F(2),)),
        ((-7, (([0, 1], 2), ([-5, 0, 1], 5))), [-5, 0, 1], (-math.sqrt(5), math.sqrt(5))),
        ((-2, (([2, 0, 1], 1), ([-1, 3], 2))), [2, 0, 1], ()),
        # the Sturm chain of x^4 - x drops two degrees at its third member
        ((-1, (([0, -1, 0, 0, 1], 1), ([-3, 1], 2))), [0, -1, 0, 0, 1], (F(0), F(1))),
    ], ids=[
        "irrational-squares", "cube-of-quadratic", "fourth-power", "fifth-power", "no-real-root", "degree-gap",
    ])
    def test_integer_odd_part_and_root_count(self, factors, odd, roots):
        constant, powers = factors
        f = [constant]
        for factor, multiplicity in powers:
            for _ in range(multiplicity):
                f = poly.mul(f, factor)
        assert poly.odd_part(f) == odd
        ends = [F(k, 4) for k in range(-12, 13)]
        for a, b in zip(ends, ends[1:] + [F(4)]):
            for lo, hi in ((a, b), (ends[0], b)):
                expected = sum(lo < root <= hi for root in roots)
                assert poly.sturm_count(odd, lo, hi) == expected
                assert poly.sturm_count([-c for c in odd], lo, hi) == expected

    @pytest.mark.parametrize("f, expected", [
        ([], True),  # the zero polynomial
        ([0, 0], True),
        ([1, -4, 4], True),  # (2t - 1)^2: an even root inside
        ([-1, 2], False),  # 2t - 1: an odd root inside
        ([0, 1], True),  # t: a root at an end
        ([-1, 0, 0, 1], False),  # t^3 - 1: negative up to its root at the end
        ([-1, 4, -4], False),  # -(2t - 1)^2
    ], ids=["zero", "trailing-zeros", "even-root-inside", "odd-root-inside", "root-at-end", "negative",
            "negative-square"])
    def test_nonnegative_on_unit_interval(self, f, expected):
        assert fujita._nonnegative_on(f, F(0), F(1)) is expected

    def test_wrong_vol_at_zero_rejected(self):
        with pytest.raises(InvalidCurveError):
            unit_interval_curve([F(1), F(-1)], vol0=F(2))

    def test_degree_budget(self):
        with pytest.raises(InvalidCurveError):
            ConeModel(base_dim=1, r=F(2), curve=unit_interval_curve([F(1), F(0), F(-1)]))

    def test_two_piece_curve(self):
        curve = VolumeCurve(
            breakpoints=(F(0), F(1, 2), F(1)),
            pieces=((F(1), F(-1)), (F(1), F(-1))),
            vol_at_zero=F(1),
        )
        assert curve.integral() == F(1, 2)


class TestVolWAlpha:
    def test_p1_at_zero(self):
        cone = projective_space_cone(2)
        assert vol_w_alpha(cone, 0) == F(1, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_blown_up_divisor_volume_is_half(self, n):
        assert vol_w_alpha(projective_space_cone(n), 0) == F(1, 2)

    def test_against_quadrature(self):
        cone = projective_space_cone(3)
        for alpha in (0.0, 0.5, 2.0, 7.5):
            exact = float(vol_w_alpha(cone, F(alpha).limit_denominator(100)))
            numeric, _ = integrate.quad(
                lambda x: (1 - x) ** 2 / (alpha + 1 + x) ** 4, 0, 1, epsabs=1e-14
            )
            assert abs(exact - (1 / (alpha + 1) ** 3 - 3 * numeric)) <= 1e-12

    def test_normalized_interpolation_monotone(self):
        cone = projective_space_cone(2)
        values = [
            float((1 + alpha) ** 2 * vol_w_alpha(cone, alpha))
            for alpha in [F(k, 4) for k in range(0, 40)]
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        assert values[0] == 0.5  # the blown-up divisor end
        big = float((1 + 1000) ** 2 * vol_w_alpha(cone, 1000))
        assert abs(big - 1.0) <= 5e-3  # approaches the canonical end L^{n-1}

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            vol_w_alpha(projective_space_cone(2), -1)

    def test_infinite_alpha_is_the_limit(self):
        assert vol_w_alpha(projective_space_cone(2), math.inf) == 0


@pytest.mark.parametrize(
    "evaluate",
    [vol_w_alpha, phi, lambda cone, x: cone.curve.value(x)],
    ids=["vol_w_alpha", "phi", "curve"],
)
def test_nan_parameter_rejected(evaluate):
    with pytest.raises(DomainError):
        evaluate(projective_space_cone(2), math.nan)


class TestPhi:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_beta_zero(self, n):
        assert phi(projective_space_cone(n), 0) == n**n

    def test_beta_infinity_p1(self):
        assert phi(projective_space_cone(2), math.inf) == F(9, 2)

    def test_log_discrepancy_factor(self):
        # phi(beta) = (alpha r + r + 1)^n vol(w_alpha) with alpha = 1/beta
        cone = projective_space_cone(3)
        beta = F(1, 4)
        alpha = 4
        expected = (alpha * 3 + 4) ** 3 * vol_w_alpha(cone, F(alpha))
        assert phi(cone, beta) == expected

    def test_cross_check_monomial_valuation(self):
        # the blown-up hyperplane valuation is the (1, ..., 1, 2) monomial
        # valuation on affine n-space
        for n in (2, 3, 4, 5):
            report = normalized_volume(SmoothPoint(n), (F(1),) * (n - 1) + (F(2),))
            assert report.log_discrepancy == n + 1
            assert report.volume == F(1, 2)
            assert phi(projective_space_cone(n), math.inf) == report.normalized_volume


class TestEta:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_projective_space_vanishes(self, n):
        assert eta(projective_space_cone(n)) == 0

    def test_synthetic_signs(self):
        assert eta(positive_eta_cone()) == 1
        assert eta(negative_eta_cone()) == -2

    def test_rescaled_divisor_regression(self):
        # halving tau (doubling the divisor) on the surface cone: the curve
        # 1 - 2x on [0, 1/2] integrates to 1/4, so eta = 2 - 4/4 = 1
        cone = positive_eta_cone()
        assert cone.curve.integral() == F(1, 4)
        assert eta(cone) == F(2) * 1 - F(4) * F(1, 4)


class TestPhiPrimeZero:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_vanishes_on_projective_cones(self, n):
        assert phi_prime_zero(projective_space_cone(n)) == 0

    def test_synthetic_values(self):
        assert phi_prime_zero(positive_eta_cone()) == 2  # n * eta = 2 * 1
        assert phi_prime_zero(negative_eta_cone()) == -4

    def test_finite_difference_agreement(self):
        # the guard inside phi_prime_zero re-derives the derivative from the
        # low coefficients of N/D; it must stay silent on every catalog cone
        for cone in catalog().values():
            phi_prime_zero(cone)

    @pytest.mark.parametrize("tau", [10**4, 10**5, 10**7 - 1, 10**9, 3 * 10**13])
    def test_large_tau_linear(self, tau):
        # phi varies on the scale 1/tau in beta, so no fixed finite-difference
        # step would serve every tau; the exact check needs none
        assert phi_prime_zero(linear_surface_cone(tau)) == 4 - 4 * tau

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("tau", [10**3, 10**6, 10**9])
    def test_large_tau_top_degree(self, n, tau):
        cone = power_cone(n, tau)
        assert phi_prime_zero(cone) == n * eta(cone)


class TestInterpolation:
    def test_endpoints(self):
        cone = projective_space_cone(2)
        assert f_of_t(cone, 0) == phi(cone, 0) == 4
        assert f_of_t(cone, 1) == phi(cone, math.inf) == F(9, 2)

    def test_p1_convex_with_flat_start(self):
        cone = projective_space_cone(2)
        assert convexity_check(cone)
        h = F(1, 1000)
        fd = (f_of_t(cone, h) - f_of_t(cone, 0)) / h
        assert abs(float(fd)) <= 1e-2  # f'(0) = n eta r/(r+1) = 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_convexity_catalog(self, n):
        assert convexity_check(projective_space_cone(n))

    def test_convex_where_a_float_grid_was_not(self):
        # r = 10^7 and (1 - x/tau)^3 on [0, tau], tau = 10^-6: f is near 10^28, and float second
        # differences of the correctly rounded values dip to -2.2e12 on a 101-point grid
        tau = F(1, 10**6)
        curve = VolumeCurve((0, tau), ((1, -3 * 10**6, 3 * 10**12, -(10**18)),), 1)
        assert convexity_check(ConeModel(3, 10**7, curve))

    def test_semistable_implies_endpoint_order(self):
        for cone in catalog().values():
            if eta(cone) >= 0:
                assert float(f_of_t(cone, 1)) >= float(f_of_t(cone, 0)) - 1e-12

    def test_slope_form_matches_exactly(self):
        for cone in catalog().values():
            for t in (F(0), F(1, 7), F(1, 3), F(2, 3), F(9, 10), F(1)):
                assert f_of_t(cone, t) == f_of_t_slope_form(cone, t)

    def test_destabilizing_samples_on_negative_eta(self):
        cone = negative_eta_cone()
        samples = [(b, phi(cone, b)) for b in (F(0), F(1, 100), F(1, 10), F(1, 2), F(1), math.inf)]
        phi0 = samples[0][1]
        assert phi_prime_zero(cone) < 0
        assert any(value < phi0 for _, value in samples[1:])

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            f_of_t(projective_space_cone(2), F(3, 2))


def non_integer():
    """Positive rationals w + j/d with 0 < j < d: never integers."""
    return st.builds(
        lambda w, d, j: F(w) + F(j % (d - 1) + 1, d),
        st.integers(0, 9), st.integers(2, 12), st.integers(0, 10),
    )


@st.composite
def cones(draw):
    """Valid cones: 1-3 pieces, each a linear, ramp or c (hi - x)^k tail piece."""
    base_dim = draw(st.integers(1, 5))
    ends = sorted(draw(st.lists(non_integer(), min_size=1, max_size=3, unique=True)))
    breakpoints = (F(0), *ends)
    drops = draw(st.lists(non_integer(), min_size=len(ends), max_size=len(ends)))
    values = [sum(drops[i:], F(0)) for i in range(len(ends))] + [F(0)]
    pieces = []
    for lo, hi, top, bottom in zip(breakpoints, breakpoints[1:], values, values[1:]):
        k = draw(st.integers(1, base_dim))
        # bottom + (top - bottom) ((hi - x)/(hi - lo))^k falls from top to bottom
        # convexly; the ramp top + (bottom - top) ((x - lo)/(hi - lo))^k concavely
        if draw(st.booleans()):
            centre, scale, base = hi, (top - bottom) * (-1) ** k / (hi - lo) ** k, bottom
        else:
            centre, scale, base = lo, (bottom - top) / (hi - lo) ** k, top
        coeffs = [scale * math.comb(k, j) * (-centre) ** (k - j) for j in range(k + 1)]
        coeffs[0] += base
        pieces.append(tuple(coeffs))
    curve = VolumeCurve(breakpoints=breakpoints, pieces=tuple(pieces), vol_at_zero=values[0])
    return ConeModel(base_dim=base_dim, r=draw(non_integer()), curve=curve)


def fujita_payload(cone):
    """The JSON that ``hvol fujita`` prints for the cone."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        path = Path(tmp) / "cone.json"
        path.write_text(dumps_canonical(cone))
        assert main(["fujita", str(path)]) == 0
    return json.loads(out.getvalue())


def second_difference_rule(values):
    return all(values[i - 1] - 2 * values[i] + values[i + 1] >= 0 for i in range(1, len(values) - 1))


class TestGridKernel:
    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(cone=cones())
    def test_routes_agree_on_grids(self, cone):
        r = cone.r
        for m in (1, 2, 7, 100):
            slope = []
            for i in range(m + 1):
                t = F(i, m)
                value = f_of_t_slope_form(cone, t)
                beta = math.inf if t == 1 else t * r / ((1 - t) * (r + 1))
                assert f_of_t(cone, t) == value == phi(cone, beta)
                if t:
                    alpha = (1 - t) * (r + 1) / (r * t)
                    assert vol_w_alpha(cone, alpha) == value * (t / (r + 1)) ** cone.dim
                slope.append(value)
            assert second_difference_rule(slope)
        assert convexity_check(cone)
        assert phi_prime_zero(cone) == cone.dim * eta(cone)
        drops = phi(cone, F(1, 10**4)) < phi(cone, 0)
        assert fujita_payload(cone)["phi_drops_below_start"] == drops == (phi_prime_zero(cone) < 0)

    def test_float_t_takes_the_numeric_path(self):
        cone = projective_space_cone(3)
        value = f_of_t(cone, 0.25)
        assert isinstance(value, float)
        assert abs(value - float(f_of_t(cone, F(1, 4)))) <= 1e-12 * abs(value)
        assert f_of_t(cone, 1.0) == phi(cone, math.inf)
        assert phi(cone, 1e308) == 32.0

    def test_set_up_once_per_cone(self, monkeypatch):
        calls = []
        set_up = fujita._f_coefficients
        monkeypatch.setattr(fujita, "_f_coefficients", lambda cone: calls.append(cone) or set_up(cone))
        cone = projective_space_cone(3)
        values = [f_of_t(cone, F(i, 100)) for i in range(101)]
        assert len(calls) == 1
        assert values[0] == 27 and values[-1] == phi(cone, math.inf)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_projective_space_pair_in_lowest_terms(self, n):
        # f = N/D with the common factor of the breakpoint terms divided out
        cone = projective_space_cone(n)
        numer, denom = cone._f
        assert numer[0] and not any(numer[1:])
        assert len(denom) == cone.dim + 1 == n + 1 and denom[-1]
        assert denom[0] > 0 and math.gcd(*numer, *denom) == 1

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(cone=cones())
    def test_pair_in_lowest_terms(self, cone):
        # D is built from the breakpoint factors E = w (p+q) + (p u - q w) t, u/w a breakpoint and
        # r = p/q, so N/D is in lowest terms iff N and D never both vanish at the root of an E
        numer, denom = cone._f
        p, q = cone.r.as_integer_ratio()
        for u, w in (b.as_integer_ratio() for b in cone.curve.breakpoints):
            if p * u != q * w:
                root = F(-w * (p + q), p * u - q * w)
                assert poly.value(numer, root) or poly.value(denom, root)
        assert denom[0] > 0 and math.gcd(*numer, *denom) == 1
        assert convexity_check(cone)

    def test_cone_pickles_and_compares_by_its_fields(self):
        for cone in catalog().values():
            copy = pickle.loads(pickle.dumps(cone))
            fresh = ConeModel(cone.base_dim, cone.r, cone.curve)
            assert copy == cone == fresh and hash(copy) == hash(cone) == hash(fresh)
            assert repr(copy) == repr(cone) == repr(fresh)
            assert repr(cone).startswith(f"ConeModel(base_dim={cone.base_dim}, r=") and "_f" not in repr(cone)
            assert f_of_t(copy, F(1, 3)) == f_of_t(cone, F(1, 3))
