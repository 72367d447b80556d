"""Closed-form invariants of monomial valuations on model singularities.

For a weight x the valuation v_x assigns <x, e> to the monomial with
exponent e and extends by the minimum rule.  The three model classes admit
closed forms:

* smooth n-space:  A = sum(x),  vol = 1 / prod(x)
* hypersurface { f = 0 }:  A = sum(x) - v_x(f),  vol = v_x(f) / prod(x),
  where v_x(f) is the minimum weight of a monomial of f.  The A formula is
  the continuous extension of the weighted-blow-up discrepancy; it is the
  exact log discrepancy for generic weights and is adopted here for every
  positive weight.
* simplicial toric cone:  A = <gamma, x>,  vol = |det W| / prod <w_i, x>
  with w_i the primitive dual rays, equal to n! times the Euclidean volume
  of the dual-cone slab { y : <y, x> <= 1 }.

The normalized volume is A^n * vol with n the intrinsic dimension of the
germ (never the ambient dimension).  All functions return exact Fractions
on rational inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import Scalar, common_denominator, det_fraction, is_exact
from .models import (
    DomainError,
    ExponentVector,
    Hypersurface,
    InvalidModelError,
    Model,
    NonKltWeightError,
    SmoothPoint,
    _integer_rows,
    as_scalars,
    check_weight,
)

_ACTIVE_RTOL = 1e-9


@dataclass(frozen=True)
class ValuationReport:
    """All invariants of one (model, weight) pair.

    ``skewness`` is sup over the maximal ideal of v_x / ord; it has a
    closed form (max coordinate) only on smooth points and is ``None``
    ("unavailable") on the other model classes, where only the lower bound
    max_i x_i is known.
    """

    log_discrepancy: Scalar
    volume: Scalar
    normalized_volume: Scalar
    ideal_value: Scalar
    skewness: Optional[Scalar]


def check_weight_exact(model: Model, weight: Sequence[Scalar]):
    """Validate a weight and insist on the exact-rational path."""
    x = check_weight(model, weight)
    if not is_exact(x):
        raise DomainError("this operation requires exact rational weights")
    return x


def weighted_order(x: Sequence[Scalar], support: Sequence[ExponentVector]) -> Scalar:
    """min over the support of <x, e>: the weight of f under v_x."""
    scale, _, values = _pairings(x, support)
    return min(values) if scale is None else Fraction(min(values), scale)


def _weighted_order(x: Sequence[Scalar], support: Sequence[ExponentVector]) -> Scalar:
    """``weighted_order`` for a weight ``check_weight`` returned and a model's own support."""
    return min(sum(xi * ei for xi, ei in zip(x, e) if ei) for e in support)


def active_monomials(x: Sequence[Scalar], support: Sequence[ExponentVector]) -> tuple[ExponentVector, ...]:
    """The exponent vectors attaining the weighted order (exactly; on floats within _ACTIVE_RTOL)."""
    scale, support, values = _pairings(x, support)
    low = min(values)
    if scale is not None:
        hits = [e for e, v in zip(support, values) if v == low]
    else:
        cut = low * (1 + _ACTIVE_RTOL) + _ACTIVE_RTOL * 1e-300
        hits = [e for e, v in zip(support, values) if float(v) <= float(cut)]
    return tuple(sorted(tuple(e) for e in hits))


def _pairings(x, support):
    """The common denominator of an exact weight (else None), the support as ``_integer_rows``
    reads it, and the weight's pairing with each exponent vector, exact ones times it."""
    support = _integer_rows(support, "support")
    if not support:
        raise InvalidModelError("empty support has no weighted order")
    x = as_scalars(x, "weight")
    scale = common_denominator(x) if is_exact(x) else None
    x = x if scale is None else [xi.numerator * (scale // xi.denominator) for xi in x]
    values = []
    for e in support:
        if len(e) != len(x):
            raise DomainError(f"exponent vector {e} does not match weight length {len(x)}")
        if any(c < 0 for c in e):
            raise InvalidModelError(f"negative exponent in {e}")
        values.append(sum(xi * ei for xi, ei in zip(x, e) if ei))
    for xi in x:
        if not 0 < xi < math.inf:  # NaN too
            raise DomainError("weighted order needs strictly positive finite weights")
    return scale, support, values


def log_discrepancy(model: Model, weight: Sequence[Scalar]) -> Scalar:
    """Log discrepancy A(v_x) of the monomial valuation on the model."""
    x = check_weight(model, weight)
    if isinstance(model, SmoothPoint):
        return sum(x)
    if isinstance(model, Hypersurface):
        a = sum(x) - _weighted_order(x, model.support)
        if not a > 0:
            raise NonKltWeightError(
                f"log discrepancy {a} <= 0 at weight {x}: the weight left the klt-valid region"
            )
        return a
    return sum(g * xi for g, xi in zip(model.gorenstein_vector, x))


def volume(model: Model, weight: Sequence[Scalar]) -> Scalar:
    """Volume of v_x: the normalized asymptotic colength of its valuation ideals."""
    x = check_weight(model, weight)
    if isinstance(model, SmoothPoint):
        vol = 1 / _product(x)
    elif isinstance(model, Hypersurface):
        vol = _weighted_order(x, model.support) / _product(x)
    else:
        rays = model.dual_rays()
        det = abs(det_fraction([[Fraction(r) for r in ray] for ray in rays]))
        vol = det / _product(tuple(sum(r * xi for r, xi in zip(ray, x)) for ray in rays))
    return _in_float_range(vol)


def ideal_value(model: Model, weight: Sequence[Scalar]) -> Scalar:
    """v_x(m), the weight of the maximal ideal."""
    x = check_weight(model, weight)
    if isinstance(model, (SmoothPoint, Hypersurface)):
        return min(x)
    # toric: a nonzero dual-cone lattice point is p + sum t_i w_i with t >= 0
    # (see ToricCone.parallelepiped_points); its pairing is at least that of
    # p when p != 0, and at least that of some w_i when p = 0
    points = model.dual_rays() + model.parallelepiped_points()
    return min(sum(yk * xk for yk, xk in zip(y, x)) for y in points if any(y))


def skewness(model: Model, weight: Sequence[Scalar]) -> Optional[Scalar]:
    """sup_m v_x/ord; closed form (max coordinate) on smooth points only."""
    x = check_weight(model, weight)
    if isinstance(model, SmoothPoint):
        return max(x)
    return None


def normalized_volume(model: Model, weight: Sequence[Scalar]) -> ValuationReport:
    """Assemble A, vol, A^n * vol and companions, n = intrinsic dimension."""
    x = check_weight(model, weight)
    a = log_discrepancy(model, x)
    vol = volume(model, x)
    try:
        hvol = a**model.dim * vol
    except OverflowError:  # a float A^n
        hvol = math.inf
    return ValuationReport(
        log_discrepancy=a,
        volume=vol,
        normalized_volume=_in_float_range(hvol),
        ideal_value=ideal_value(model, x),
        skewness=skewness(model, x),
    )


def _product(values) -> Scalar:
    out = values[0]
    for v in values[1:]:
        out = out * v
    return _in_float_range(out)


def _in_float_range(value: Scalar) -> Scalar:
    """A positive closed-form value, unless float underflow or overflow took it to 0 or inf."""
    if isinstance(value, float) and not 0 < value < math.inf:
        raise DomainError(f"a float closed form left the finite positive range: {value}")
    return value

