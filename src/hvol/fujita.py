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
r + 1) gives the normalized interpolation f(t) = Phi(beta(t)) on [0, 1],
which is convex.

The volume curve x -> Vol(L - x D) is supplied by the caller as a
continuous piecewise polynomial; the geometry producing it is out of
scope.  Every integral here is evaluated exactly per polynomial piece
(denominator powers never hit the logarithmic exponent because the curve
degree is at most n-1), so rational inputs give exact rational outputs.

On a rational grid f is one integer pass.  With r = p/q, t = i/m,
a = m(p+q) - q i and b = p i,

    f(i/m) = r^n (r+1)^n (q m)^n [L^{n-1}/a^n
                                  - n b Sum_pieces Integral P(x)/(a+bx)^{n+1} dx],

at t = 0 and t = 1 alike.  Substituting y = a + b x turns each piece's
integral into one Horner sum of integers per breakpoint u/w, over
lcm(1..n) D_c E^n b^{n-1} with E = a w + b u and D_c the common
denominator of the curve coefficients (``_grid_point``, on integer data
each cone sets up once).  ``f_of_t`` and ``convexity_check`` use it.  Two
routes stay independent of it: the slope form ``f_of_t_slope_form``, and
``phi`` through ``_phi_any``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import Scalar
from .models import (
    DomainError,
    InternalConsistencyError,
    InvalidCurveError,
    as_integer,
    as_rational,
    as_scalar,
)

_FD_STEP = Fraction(1, 10**7)
_CONVEXITY_SLACK = 1e-9


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
        bps = tuple(as_rational(b, "breakpoint", InvalidCurveError) for b in self.breakpoints)
        pieces = tuple(
            tuple(as_rational(c, "coefficient", InvalidCurveError) for c in piece)
            for piece in self.pieces
        )
        if len(bps) < 2 or len(pieces) != len(bps) - 1:
            raise InvalidCurveError("need N+1 breakpoints and N pieces")
        if bps[0] != 0:
            raise InvalidCurveError("the first breakpoint must be 0")
        if any(b >= c for b, c in zip(bps, bps[1:])):
            raise InvalidCurveError("breakpoints must be strictly increasing")
        if any(not piece for piece in pieces):
            raise InvalidCurveError("every piece needs at least one coefficient")
        vol0 = as_rational(self.vol_at_zero, "vol_at_zero", InvalidCurveError)
        if vol0 <= 0:
            raise InvalidCurveError("vol_at_zero must be positive")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "vol_at_zero", vol0)
        if _poly_eval(pieces[0], bps[0]) != vol0:
            raise InvalidCurveError("curve value at 0 must equal vol_at_zero")
        for i in range(1, len(bps) - 1):
            left = _poly_eval(pieces[i - 1], bps[i])
            right = _poly_eval(pieces[i], bps[i])
            if left != right:
                raise InvalidCurveError(f"curve is discontinuous at breakpoint {bps[i]}")
        if _poly_eval(pieces[-1], bps[-1]) != 0:
            raise InvalidCurveError("curve must reach exactly 0 at the final breakpoint")
        self._check_monotone_nonnegative()

    def _check_monotone_nonnegative(self, samples: int = 16):
        for (a, b), piece in zip(zip(self.breakpoints, self.breakpoints[1:]), self.pieces):
            deriv = _poly_derivative(piece)
            for j in range(samples + 1):
                x = a + (b - a) * Fraction(j, samples)
                if _poly_eval(piece, x) < 0:
                    raise InvalidCurveError(f"curve is negative near x={float(x):.6g}")
                if _poly_eval(deriv, x) > 0:
                    raise InvalidCurveError(f"curve increases near x={float(x):.6g}")

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
                return _poly_eval(piece, x)

    def degree(self) -> int:
        return max(len(piece) - 1 for piece in self.pieces)

    def integral(self) -> Fraction:
        """Exact integral of the curve over [0, tau]."""
        total = Fraction(0)
        for (a, b), piece in zip(zip(self.breakpoints, self.breakpoints[1:]), self.pieces):
            anti = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(piece)]
            total += _poly_eval(anti, b) - _poly_eval(anti, a)
        return total


@dataclass(frozen=True)
class ConeModel:
    """Affine cone data: base dimension, the ratio r in -K_V ~ r L, and the curve."""

    base_dim: int
    r: Fraction
    curve: VolumeCurve

    def __post_init__(self):
        message = "base dimension must be a positive integer"
        object.__setattr__(self, "base_dim", as_integer(self.base_dim, message, 1, InvalidCurveError))
        object.__setattr__(self, "r", as_rational(self.r, "r", InvalidCurveError))
        if self.r <= 0:
            raise InvalidCurveError("r must be positive")
        if self.curve.degree() > self.base_dim:
            raise InvalidCurveError(
                f"curve degree {self.curve.degree()} exceeds the base dimension {self.base_dim}"
            )
        object.__setattr__(self, "_kernel", _grid_setup(self))  # the grid kernel's per-cone data

    @property
    def dim(self) -> int:
        """Dimension n of the cone itself."""
        return self.base_dim + 1


def vol_w_alpha(cone: ConeModel, alpha) -> Scalar:
    """Volume of the interpolating valuation at parameter alpha >= 0."""
    alpha = as_scalar(alpha, "alpha")
    if not alpha >= 0:  # NaN too
        raise DomainError("alpha must be non-negative")
    if alpha == math.inf:  # the limit: every term decays like 1 / alpha^n
        return 0.0
    return _vol_w_alpha_any(cone, alpha)


def _vol_w_alpha_any(cone: ConeModel, alpha) -> Scalar:
    n = cone.dim
    c = alpha + 1
    # the integrand denominators x + c must not vanish on [0, tau]
    if c <= 0 and c + cone.curve.tau >= 0:
        raise DomainError("alpha + 1 + x vanishes on the curve support")
    total = 0
    for (a, b), piece in zip(
        zip(cone.curve.breakpoints, cone.curve.breakpoints[1:]), cone.curve.pieces
    ):
        total += _integral_poly_over_power(piece, a, b, c, n + 1)
    return cone.curve.vol_at_zero / c**n - n * total


def phi(cone: ConeModel, beta) -> Scalar:
    """Normalized volume along the interpolation, in the variable beta = 1/alpha.

    beta = 0 is the canonical cone valuation (value r^n L^{n-1}); beta =
    +infinity is the blown-up divisor valuation, handled as an explicit
    limit branch (r+1)^n vol(w_0).
    """
    beta = as_scalar(beta, "beta")
    if beta == math.inf:
        return (cone.r + 1) ** cone.dim * _vol_w_alpha_any(cone, Fraction(0))
    if not beta >= 0:  # NaN too
        raise DomainError("beta must be non-negative")
    return _phi_any(cone, beta)


def _phi_any(cone: ConeModel, beta) -> Scalar:
    n, r = cone.dim, cone.r
    if beta == 0:
        return r**n * cone.curve.vol_at_zero
    alpha = 1 / beta
    return (alpha * r + r + 1) ** n * _vol_w_alpha_any(cone, alpha)


def eta(cone: ConeModel) -> Scalar:
    """Divisorial-semistability invariant of the base along D.

    With -K_V ~ r L this is r^{n-1} L^{n-1} - r^n Integral Vol(L - x D) dx,
    evaluated exactly; it is also Phi'(0)/n, which ``phi_prime_zero``
    cross-checks by finite differences.
    """
    n = cone.dim
    return cone.r ** (n - 1) * cone.curve.vol_at_zero - cone.r**n * cone.curve.integral()


def phi_prime_zero(cone: ConeModel) -> Scalar:
    """n * eta(D), verified against a central finite difference of phi at 0.

    The difference quotient is evaluated in exact rational arithmetic, so
    the only error is the h^2 truncation term.  phi varies on the scale
    1/(1 + tau) in beta (alpha = 1/beta meets x up to tau in alpha + 1 + x),
    so the step _FD_STEP / (1 + ceil(tau)) keeps that term below the
    tolerances and keeps alpha + 1 + x away from 0 at beta = -h.
    """
    derivative = cone.dim * eta(cone)
    h = _FD_STEP / (1 + math.ceil(cone.curve.tau))
    fd = (_phi_any(cone, h) - _phi_any(cone, -h)) / (2 * h)
    if derivative == 0:
        ok = abs(fd) <= 1e-9
    else:
        ok = abs(fd - derivative) <= 1e-6 * abs(derivative)
    if not ok:
        raise InternalConsistencyError(
            f"finite difference {float(fd)} disagrees with n*eta = {float(derivative)}"
        )
    return derivative


def f_of_t(cone: ConeModel, t) -> Scalar:
    """Normalized-volume interpolation f(t) on [0, 1], from the integer grid kernel.

    Exact t, and t = 1 of any type, give a Fraction; a float t < 1 is read
    exactly and gives the correctly rounded float.
    """
    t = _t_value(t)
    num, den = _grid_point(cone._kernel, *t.as_integer_ratio())
    return Fraction(num, den) if isinstance(t, Fraction) else num / den


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
    measure has no point masses and the two routes agree identically.
    """
    t = _t_value(t)
    n, r = cone.dim, cone.r
    d = r * t
    c = r + 1 - t
    total = 0
    for (a, b), piece in zip(
        zip(cone.curve.breakpoints, cone.curve.breakpoints[1:]), cone.curve.pieces
    ):
        neg_slope = tuple(-v for v in _poly_derivative(piece))
        if not neg_slope:
            continue
        if d == 0:
            anti = [Fraction(0)] + [v / (i + 1) for i, v in enumerate(neg_slope)]
            total += (_poly_eval(anti, b) - _poly_eval(anti, a)) / c**n
        else:
            # 1 / (c + d x)^n = d^{-n} / (x + c/d)^n
            total += _integral_poly_over_power(neg_slope, a, b, c / d, n) / d**n
    return r**n * (r + 1) ** n * total


def convexity_check(cone: ConeModel, grid: int = 101) -> bool:
    """Second-order central differences of f on a uniform grid stay >= -1e-9.

    Each f(i/(grid-1)) comes from the integer grid kernel as num/den.  Int
    true division is correctly rounded, so every value equals
    float(f_of_t(cone, Fraction(i, grid - 1))) without building a Fraction.
    """
    grid = as_integer(grid, "convexity check needs at least 3 grid points", 3, DomainError)
    kernel = cone._kernel
    values = [num / den for num, den in (_grid_point(kernel, i, grid - 1) for i in range(grid))]
    return all(
        values[i - 1] - 2 * values[i] + values[i + 1] >= -_CONVEXITY_SLACK
        for i in range(1, grid - 1)
    )


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
# exact integration helpers


def _poly_eval(coeffs: Sequence, x):
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _poly_derivative(coeffs: Sequence) -> tuple:
    return tuple(c * (i + 1) for i, c in enumerate(coeffs[1:]))


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
    lo, hi = a + c, b + c
    total = 0
    for j, qj in enumerate(shifted):
        if qj == 0:
            continue
        p = j - power
        total += qj * (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)
    return total


def _grid_setup(cone: ConeModel) -> tuple:
    """The integer data of ``_grid_point`` that does not depend on the grid point."""
    n, curve = cone.dim, cone.curve
    dc = math.lcm(*(c.denominator for piece in curve.pieces for c in piece))
    pieces = tuple(
        tuple(c.numerator * (dc // c.denominator) for c in piece) + (0,) * (n - len(piece))
        for piece in curve.pieces
    )
    lcm = math.lcm(*range(1, n + 1))
    weights = tuple(lcm // (j - n) for j in range(n))
    binom = tuple(tuple(math.comb(k, j) for j in range(n)) for k in range(n))
    breakpoints = tuple(
        (u.numerator, u.denominator, tuple(u.denominator**e for e in range(n + 1)))
        for u in curve.breakpoints
    )
    ratios = cone.r.as_integer_ratio(), curve.vol_at_zero.as_integer_ratio()
    return n, *ratios, lcm * dc, pieces, weights, binom, breakpoints


def _grid_point(kernel: tuple, i: int, m: int) -> tuple[int, int]:
    """(num, den) with num/den = f(i/m) exactly, for 0 <= i <= m.

    At a point each piece becomes Q(y) = D_c b^{n-1} P((y - a)/b)
    = Sum_k c_k b^{n-1-k} (y - a)^k with integer coefficients c_k, and
    lcm(1..n) times its antiderivative against y^{-n-1} is
    Sum_j Q_j (lcm/(j-n)) y^{j-n}.  At y = E/w that is N/E^n with
    N = Sum_j Q_j (lcm/(j-n)) E^j w^{n-j}; each breakpoint takes N of the
    piece it ends minus N of the piece it starts.
    """
    n, (p, q), (lnum, lden), k_den, pieces, weights, binom, breakpoints = kernel
    scale, qn = (p * (p + q)) ** n, q**n
    a = m * (p + q) - q * i
    b = p * i
    an = a**n
    if not b:  # t = 0: the integral term carries the factor b
        return scale * m**n * lnum, qn * lden * an
    neg_a = [(-a) ** e for e in range(n)]
    b_pow = [b ** (n - 1 - k) for k in range(n)]
    absent = [0] * n  # the missing piece left of 0 and right of tau
    anti = [absent]
    for coeffs in pieces:
        g = [c * bk for c, bk in zip(coeffs, b_pow)]
        anti.append([
            wj * sum(g[k] * binom[k][j] * neg_a[k - j] for k in range(j, n))
            for j, wj in enumerate(weights)
        ])
    anti.append(absent)
    s_num, s_den = 0, 1
    for (u, w, w_pow), left, right in zip(breakpoints, anti, anti[1:]):
        e = a * w + b * u
        h = 0
        for j in reversed(range(n)):
            h = h * e + (left[j] - right[j]) * w_pow[n - j]
        en = e**n
        s_num, s_den = s_num * en + h * s_den, s_den * en
    bn1 = b_pow[0]
    num = scale * m**n * (lnum * s_den * k_den * bn1 - n * s_num * lden * an)
    return num, qn * lden * an * s_den * k_den * bn1
