"""Cone interpolation between the base divisor and a blown-up prime divisor.

Setting: X is the affine cone over a polarized base (V, L) of dimension
n-1 with -K_V equivalent to r L.  Blowing up the vertex gives the
canonical divisorial valuation with volume L^{n-1} and log discrepancy r;
blowing up a prime divisor D inside the exceptional copy of V gives a
second valuation with log discrepancy r+1.  The family w_alpha
interpolates between them with

    vol(w_alpha) = L^{n-1}/(alpha+1)^n
                   - n * Integral Vol(L - x D) dx / (alpha+1+x)^{n+1},

log discrepancy alpha*r + (r+1), and normalized volume Phi(beta) in the
variable beta = 1/alpha.  The derivative at beta = 0 is n * eta(D), where

    eta(D) = Vol(-K_V) - Integral Vol(-K_V - x D) dx

is the divisorial-semistability invariant of D (non-negative exactly when
V is divisorially semistable along D).  Substituting t = (r+1)/(alpha r +
r + 1) gives the normalized interpolation f(t) = Phi(beta(t)) on [0, 1].
It is convex: the slope form ``f_of_t_slope_form`` writes it as a mixture,
with weight -Vol'(x) >= 0, of the convex (r+1 + (r x - 1) t)^{-n}, whose
base stays >= r > 0 on [0, 1].

The volume curve x -> Vol(L - x D) is supplied by the caller as a
continuous piecewise polynomial; the geometry producing it is out of
scope.  Its degree is at most n-1, so no integral here is logarithmic and
f is one rational function N(t)/D(t) with integer coefficients, which each
``ConeModel`` builds once (``_f_coefficients``), in lowest terms by one
integer polynomial gcd.  D is a positive constant times breakpoint factors
w (p+q) + (p u - q w) t (r = p/q, u/w a breakpoint), positive at t = 0 and
t = 1, so D > 0 on [0, 1].  Every cone value is N/D at a substituted t:
``f_of_t`` at t itself, ``phi`` at t = (r+1) beta / (r + (r+1) beta),
``vol_w_alpha`` as f(t) (t/(r+1))^n, and ``phi_prime_zero`` checks n * eta
against (r+1)/r f'(0).  An exact argument gives an exact Fraction; a float
is read exactly and gives the correctly rounded float, or a DomainError
past the float range.  One route stays independent of (N, D): the slope
form ``f_of_t_slope_form``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

from . import poly
from .exact import Scalar
from .models import (
    DomainError,
    InternalConsistencyError,
    InvalidCurveError,
    as_integer,
    as_rational,
    as_scalar,
    _sequence,
)


@dataclass(frozen=True)
class VolumeCurve:
    """Continuous piecewise-polynomial volume function x -> Vol(L - x D).

    ``breakpoints`` run from 0 to the pseudoeffective threshold tau(D);
    ``pieces[i]`` holds ascending coefficients of the polynomial on
    [breakpoints[i], breakpoints[i+1]].  The curve must be non-negative,
    non-increasing, continuous across breakpoints, start at ``vol_at_zero``
    (the top self-intersection of L) and reach exactly 0 at tau(D); it is
    identically 0 beyond tau(D).
    """

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, ...], ...]
    vol_at_zero: Fraction

    def __post_init__(self):
        err, shape = InvalidCurveError, "pieces must be a sequence of coefficient rows"
        bps = _sequence(self.breakpoints, "breakpoints must be a sequence", err)
        bps = tuple(as_rational(b, "breakpoint", err) for b in bps)
        pieces = tuple(
            tuple(as_rational(c, "coefficient", err) for c in _sequence(piece, shape, err))
            for piece in _sequence(self.pieces, shape, err)
        )
        if len(bps) < 2 or len(pieces) != len(bps) - 1:
            raise InvalidCurveError("need N+1 breakpoints and N pieces")
        if bps[0] != 0:
            raise InvalidCurveError("breakpoints must start at 0")
        if any(b >= c for b, c in zip(bps, bps[1:])):
            raise InvalidCurveError("breakpoints must be strictly increasing")
        if any(not piece for piece in pieces):
            raise InvalidCurveError("every row of pieces needs at least one coefficient")
        vol0 = as_rational(self.vol_at_zero, "vol_at_zero", InvalidCurveError)
        if vol0 <= 0:
            raise InvalidCurveError("vol_at_zero must be positive")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "vol_at_zero", vol0)
        if poly.value(pieces[0], bps[0]) != vol0:
            raise InvalidCurveError("curve value at 0 must equal vol_at_zero")
        for b, left, right in zip(bps[1:-1], pieces, pieces[1:]):
            if poly.value(left, b) != poly.value(right, b):
                raise InvalidCurveError(f"curve is discontinuous at breakpoint {b}")
        if poly.value(pieces[-1], bps[-1]) != 0:
            raise InvalidCurveError("curve must reach exactly 0 at the final breakpoint")
        self._check_non_increasing()

    def _check_non_increasing(self):
        """-P' >= 0 on every piece, decided exactly; with continuity and the 0 at tau
        that makes the curve non-negative too."""
        for (a, b), piece in zip(zip(self.breakpoints, self.breakpoints[1:]), self.pieces):
            scale = math.lcm(*(c.denominator for c in piece))  # scale * -P' has integer coefficients
            neg_slope = poly.derivative([-c.numerator * (scale // c.denominator) for c in piece])
            if not _nonnegative_on(neg_slope, a, b):
                raise InvalidCurveError(f"curve increases somewhere on [{a}, {b}]")

    @property
    def tau(self) -> Fraction:
        """Pseudoeffective threshold: the right end of the support."""
        return self.breakpoints[-1]

    def value(self, x) -> Scalar:
        x = as_scalar(x, "x")
        if not x >= 0:  # NaN too
            raise DomainError("the volume curve lives on x >= 0")
        if x >= self.tau:
            return Fraction(0) if isinstance(x, Fraction) else 0.0
        for b, piece in zip(self.breakpoints[1:], self.pieces):
            if x < b:  # x < tau, so some piece holds x
                return poly.value(piece, x)

    def degree(self) -> int:
        return max(len(piece) - 1 for piece in self.pieces)

    def integral(self) -> Fraction:
        """Exact integral of the curve over [0, tau]."""
        spans = zip(self.breakpoints, self.breakpoints[1:])
        return sum(poly.integral(piece, a, b) for (a, b), piece in zip(spans, self.pieces))


@dataclass(frozen=True)
class ConeModel:
    """Affine cone data: base dimension, the ratio r in -K_V ~ r L, and the curve."""

    base_dim: int
    r: Fraction
    curve: VolumeCurve

    def __post_init__(self):
        message = "base_dim must be a positive integer"
        object.__setattr__(self, "base_dim", as_integer(self.base_dim, message, 1, InvalidCurveError))
        object.__setattr__(self, "r", as_rational(self.r, "r", InvalidCurveError))
        if self.r <= 0:
            raise InvalidCurveError("r must be positive")
        if self.curve.degree() > self.base_dim:
            raise InvalidCurveError(
                f"curve degree {self.curve.degree()} exceeds the base dimension {self.base_dim}"
            )
        object.__setattr__(self, "_f", _f_coefficients(self))  # not a field: == and repr skip it

    @property
    def dim(self) -> int:
        """Dimension n of the cone itself."""
        return self.base_dim + 1


def vol_w_alpha(cone: ConeModel, alpha) -> Scalar:
    """Volume of the interpolating valuation at parameter alpha >= 0.

    It is f(t) (t/(r+1))^n at t = (r+1)/(alpha r + r + 1).
    """
    alpha = as_scalar(alpha, "alpha")
    if not alpha >= 0:  # NaN too
        raise DomainError("alpha must be non-negative")
    if alpha == math.inf:  # the limit: every term decays like 1 / alpha^n
        return 0.0
    (p, q), (x, y) = cone.r.as_integer_ratio(), alpha.as_integer_ratio()
    m = p * x + (p + q) * y
    num, den = _f_ratio(cone, (p + q) * y, m)
    num, den = num * (q * y) ** cone.dim, den * m**cone.dim  # t/(r+1) = q y / m
    return _quotient(num, den, alpha, "alpha")


def phi(cone: ConeModel, beta) -> Scalar:
    """Normalized volume along the interpolation, in the variable beta = 1/alpha.

    It is f(t) at t = (r+1) beta / (r + (r+1) beta).  beta = 0 is the
    canonical cone valuation (value r^n L^{n-1}); beta = +infinity is the
    blown-up divisor valuation, the exact value f(1) = (r+1)^n vol(w_0).
    """
    beta = as_scalar(beta, "beta")
    if beta == math.inf:
        return Fraction(*_f_ratio(cone, 1, 1))
    if not beta >= 0:  # NaN too
        raise DomainError("beta must be non-negative")
    (p, q), (x, y) = cone.r.as_integer_ratio(), beta.as_integer_ratio()
    num, den = _f_ratio(cone, (p + q) * x, p * y + (p + q) * x)
    return _quotient(num, den, beta, "beta")


def eta(cone: ConeModel) -> Scalar:
    """Divisorial-semistability invariant of the base along D.

    With -K_V ~ r L this is r^{n-1} L^{n-1} - r^n Integral Vol(L - x D) dx,
    evaluated exactly; it is also Phi'(0)/n, which ``phi_prime_zero``
    cross-checks against (N, D).
    """
    n = cone.dim
    return cone.r ** (n - 1) * cone.curve.vol_at_zero - cone.r**n * cone.curve.integral()


def phi_prime_zero(cone: ConeModel) -> Scalar:
    """n * eta(D), checked exactly against the derivative of f = N/D at 0.

    t = (r+1) beta / (r + (r+1) beta) has slope (r+1)/r at beta = 0, so
    Phi'(0) = (r+1)/r (N_1 D_0 - N_0 D_1) / D_0^2.
    """
    derivative = cone.dim * eta(cone)
    (n0, n1, *_), (d0, d1, *_) = cone._f
    slope = (cone.r + 1) / cone.r * Fraction(n1 * d0 - n0 * d1, d0 * d0)
    if slope != derivative:
        raise InternalConsistencyError(f"Phi'(0) = {slope} from N/D disagrees with n*eta = {derivative}")
    return derivative


def f_of_t(cone: ConeModel, t) -> Scalar:
    """Normalized-volume interpolation f(t) on [0, 1], as N(t)/D(t).

    Exact t, and t = 1 of any type, give a Fraction; a float t < 1 is read
    exactly and gives the correctly rounded float.
    """
    t = _t_value(t)
    num, den = _f_ratio(cone, *t.as_integer_ratio())
    return _quotient(num, den, t, "t")


def _quotient(num: int, den: int, x: Scalar, name: str) -> Scalar:
    """num/den: a Fraction for an exact x, else the correctly rounded float, which must be finite."""
    if isinstance(x, Fraction):
        return Fraction(num, den)
    try:
        return num / den
    except OverflowError:
        raise DomainError(f"the value at {name} = {x!r} overflows a float; pass an exact {name}") from None


def _t_value(t) -> Scalar:
    """The one t rule of f: a number in [0, 1], with t = 1 exact."""
    t = as_scalar(t, "t")
    if not 0 <= t <= 1:  # NaN too
        raise DomainError("t must lie in [0, 1]")
    return Fraction(1) if t == 1 else t


def f_of_t_slope_form(cone: ConeModel, t) -> Scalar:
    """f(t) through the slope measure of the curve: an independent route.

    Integrates -Vol'(x) against r^n (r+1)^n / (r+1 + (r x - 1) t)^n piece
    by piece.  The curve is continuous and vanishes at tau, so the slope
    measure has no point masses and the two routes agree identically.  A
    float t is read exactly and the sum rounded once, as in ``f_of_t``.
    """
    t = _t_value(t)
    n, r, curve, exact = cone.dim, cone.r, cone.curve, Fraction(t)
    d, c = r * exact, r + 1 - exact
    total = 0
    for (a, b), piece in zip(zip(curve.breakpoints, curve.breakpoints[1:]), curve.pieces):
        neg_slope = tuple(-v for v in poly.derivative(piece))
        if d == 0:
            total += poly.integral(neg_slope, a, b) / c**n
        else:
            # 1 / (c + d x)^n = d^{-n} / (x + c/d)^n
            total += _integral_poly_over_power(neg_slope, a, b, c / d, n) / d**n
    value = Fraction(r**n * (r + 1) ** n * total)
    return _quotient(value.numerator, value.denominator, t, "t")


def convexity_check(cone: ConeModel) -> bool:
    """f'' >= 0 on [0, 1], decided exactly: with D > 0 there, f'' has the sign of D^3 f'' =
    N''D^2 - 2N'D'D - ND''D + 2ND'^2.  f is convex, so False would mean (N, D) is not f."""
    n0, d0 = cone._f
    n1, d1 = poly.derivative(n0), poly.derivative(d0)
    n2, d2 = poly.derivative(n1), poly.derivative(d1)
    terms = ((1, (n2, d0, d0)), (-2, (n1, d1, d0)), (-1, (n0, d2, d0)), (2, (n0, d1, d1)))
    return _nonnegative_on(poly.combine((s, reduce(poly.mul, fs)) for s, fs in terms), Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# catalog


def projective_space_cone(n: int) -> ConeModel:
    """Affine n-space as the cone over projective (n-1)-space with L = O(1).

    D is a hyperplane of the base: r = n, L^{n-1} = 1 and
    Vol(L - x D) = (1 - x)^{n-1} on [0, 1].  Its eta vanishes.
    """
    n = as_integer(n, "projective-space cone needs n >= 2", 2, DomainError)
    coeffs = tuple(Fraction((-1) ** j * math.comb(n - 1, j)) for j in range(n))
    curve = VolumeCurve(
        breakpoints=(Fraction(0), Fraction(1)), pieces=(coeffs,), vol_at_zero=Fraction(1)
    )
    return ConeModel(base_dim=n - 1, r=Fraction(n), curve=curve)


def positive_eta_cone() -> ConeModel:
    """Synthetic surface cone whose curve decays fast: eta = 1 > 0."""
    curve = VolumeCurve(
        breakpoints=(Fraction(0), Fraction(1, 2)),
        pieces=((Fraction(1), Fraction(-2)),),
        vol_at_zero=Fraction(1),
    )
    return ConeModel(base_dim=1, r=Fraction(2), curve=curve)


def negative_eta_cone() -> ConeModel:
    """Synthetic surface cone whose curve decays slowly: eta = -2 < 0.

    Exercises the contrapositive of divisorial semistability: the
    derivative of Phi at 0 is negative, so nearby interpolation parameters
    drop strictly below Phi(0).
    """
    curve = VolumeCurve(
        breakpoints=(Fraction(0), Fraction(2)),
        pieces=((Fraction(1), Fraction(-1, 2)),),
        vol_at_zero=Fraction(1),
    )
    return ConeModel(base_dim=1, r=Fraction(2), curve=curve)


def catalog() -> dict[str, ConeModel]:
    entries = {f"P{n-1}": projective_space_cone(n) for n in range(2, 6)}
    entries["positive-eta"] = positive_eta_cone()
    entries["negative-eta"] = negative_eta_cone()
    return entries


# ---------------------------------------------------------------------------
# signs and integrals of polynomials (``poly`` holds the integer kit)


def _nonnegative_on(f: Sequence[int], a: Fraction, b: Fraction) -> bool:
    """Whether the integer polynomial f is >= 0 on [a, b], a < b: f = c prod h_i^i (``poly.odd_part``),
    c of the sign of lc(f), changes sign exactly at the roots of the product h of its odd-power
    factors, so iff h has no root in (a, b) and c h > 0 between."""
    f = poly.trim(f)
    if not f:
        return True
    odd = poly.odd_part(f)
    inside = poly.sturm_count(odd, a, b) - (poly.value(odd, b) == 0)  # roots in (a, b)
    return not inside and f[-1] * poly.value(odd, Fraction(a + b, 2)) > 0


def _integral_poly_over_power(coeffs: Sequence, a, b, c, power: int):
    """Exact integral of P(x) / (x + c)^power over [a, b].

    Requires deg P <= power - 2 so the shifted expansion never produces the
    logarithmic exponent; the volume-curve degree bound guarantees this.
    """
    if len(coeffs) - 1 > power - 2:
        raise DomainError(
            f"degree {len(coeffs) - 1} too large for denominator power {power}"
        )
    shifted = [0] * len(coeffs)
    for i, ci in enumerate(coeffs):
        if ci == 0:
            continue
        for j in range(i + 1):
            shifted[j] += ci * math.comb(i, j) * (-c) ** (i - j)
    lo, hi = a + c, b + c  # y^(j - power) integrates to y^k / k, k = j - power + 1 != 0
    return sum(qj * (hi**k - lo**k) / k for k, qj in enumerate(shifted, 1 - power) if qj)


def _f_coefficients(cone: ConeModel) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Integer coefficients (N, D) of f = N/D, ascending in t and of one length.

    With r = p/q, a = (p+q) - q t and b = p t,

        f(t) = r^n (r+1)^n q^n [L^{n-1}/a^n
                                - n b Sum_pieces Integral P(x)/(a+bx)^{n+1} dx].

    Substituting y = a + b x turns a piece into Q(y) = D_c b^{n-1} P((y-a)/b)
    = Sum_k c_k b^{n-1-k} (y-a)^k with integer c_k (D_c the common
    denominator of the curve coefficients), and l = lcm(1..n) times its
    antiderivative against y^{-n-1} is Sum_j Q_j (l/(j-n)) y^{j-n}.  At a
    breakpoint u/w, with E = a w + b u, that is h/E^n with
    h = Sum_j Q_j (l/(j-n)) E^j w^{n-j}, and each breakpoint takes h of the
    piece it ends minus h of the piece it starts.  With L^{n-1} = lnum/lden
    and every row scaled by n lden, L^{n-1}/a^n is the constant row
    -lnum l D_c b^{n-1} of the absent piece left of 0, where w = 1 and E = a.
    f(0) is finite, so the numerator vanishes to the order n-1 of b^{n-1},
    and dividing out that power of t leaves D(0) != 0 (every E(0) = w (p+q)
    is positive).  One ``poly.gcd(N, D)`` and two exact quotients put the
    pair in lowest terms, and it is stored with D(0) > 0 and integer
    content 1, which makes it unique.
    """
    n, curve = cone.dim, cone.curve
    p, q = cone.r.as_integer_ratio()
    lnum, lden = curve.vol_at_zero.as_integer_ratio()
    dc = math.lcm(*(c.denominator for piece in curve.pieces for c in piece))
    lcm = math.lcm(*range(1, n + 1))
    neg_a = [reduce(poly.mul, [(-(p + q), q)] * k, [1]) for k in range(n)]  # (-a)^k
    anti = [[[0] * (n - 1) + [-lnum * lcm * dc * p ** (n - 1)]] + [[]] * (n - 1)]
    for piece in curve.pieces:
        coeffs = [n * lden * lcm * c.numerator * (dc // c.denominator) for c in piece]
        anti.append([
            poly.combine(  # b^{n-1-k} = p^{n-1-k} t^{n-1-k}; j - n divides lcm(1..n)
                (c * math.comb(k, j) * p ** (n - 1 - k) // (j - n), [0] * (n - 1 - k) + neg_a[k - j])
                for k, c in enumerate(coeffs) if k >= j
            )
            for j in range(n)
        ])
    anti.append([[]] * n)
    total, den = [], [1]  # Sum_breakpoints n lden h/E^n
    for u, left, right in zip(curve.breakpoints, anti, anti[1:]):
        u, w = u.as_integer_ratio()
        e = (w * (p + q), p * u - q * w)
        h = []
        for j in reversed(range(n)):
            h = poly.combine([(1, poly.mul(h, e)), (w ** (n - j), left[j]), (-(w ** (n - j)), right[j])])
        en = reduce(poly.mul, [e] * n)
        total, den = poly.combine([(1, poly.mul(total, en)), (1, poly.mul(h, den))]), poly.mul(den, en)
    numer = poly.trim([-p * (p + q) ** n * c for c in total[n - 1 :]])  # t^{n-1} of b^{n-1} divided out
    denom = poly.trim([q**n * lden * lcm * dc * c for c in den])
    common = poly.gcd(numer, denom)
    numer, denom = poly.quotient(numer, common), poly.quotient(denom, common)
    size, g = max(len(numer), len(denom)), math.gcd(*numer, *denom) * (1 if denom[0] > 0 else -1)
    return tuple(tuple(c // g for c in f) + (0,) * (size - len(f)) for f in (numer, denom))


def _f_ratio(cone: ConeModel, i: int, m: int) -> tuple[int, int]:
    """(num, den) = (Sum_k N_k i^k m^{d-k}, Sum_k D_k i^k m^{d-k}), so num/den = f(i/m), m > 0."""
    numer, denom = cone._f
    return poly.hom(numer, i, m), poly.hom(denom, i, m)
