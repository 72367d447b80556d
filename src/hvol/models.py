"""Model singularities carrying monomial (weight) valuations.

Three germ classes are supported:

* ``SmoothPoint`` -- the origin in affine n-space.
* ``Hypersurface`` -- an isolated hypersurface germ { f = 0 } in affine
  (n+1)-space, described by the exponent support of f.  Only the monomial
  support matters for weight valuations; coefficients are irrelevant as
  long as they are generic and nonzero.
* ``ToricCone`` -- a simplicial Q-Gorenstein affine toric germ, described
  by the primitive generators of its cone and the rational covector that
  pairs to 1 with every generator.

Weights live in the positive orthant for smooth and hypersurface models
and in the interior of the defining cone for toric models.  Smooth and
toric germs are klt; ``optimize.minimize_hvol`` decides exactly whether a
hypersurface germ is, which its constructor does not check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Optional, Sequence, Union

import numpy as np

from .exact import Scalar, integer_numerators, inverse_fraction, is_exact, primitive_integer_vector


class HvolError(Exception):
    """Base class for all package errors."""


class InvalidModelError(HvolError):
    """The model data itself is malformed."""


class DomainError(HvolError):
    """A runtime input (weight, radius, ...) is outside the valid domain."""


class NonKltWeightError(DomainError):
    """The log-discrepancy formula left its valid region (A <= 0) at this weight."""


class NonKltModelError(DomainError):
    """No weight gives positive log discrepancy; the germ cannot be klt."""


class UnsupportedModelError(HvolError):
    """The requested operation is not defined for this model class."""


class CapacityError(HvolError):
    """A lattice count would exceed safe integer capacity."""


class InvalidCurveError(InvalidModelError):
    """A piecewise-polynomial volume curve violates its invariants."""


class InternalConsistencyError(HvolError):
    """Two independent evaluation routes disagreed beyond tolerance."""


ExponentVector = tuple[int, ...]


def as_integer(value, message: str, minimum: Optional[int] = None, error=InvalidModelError) -> int:
    """The one rule for integers: a non-bool ``int`` or numpy integer of at least ``minimum``
    passes as ``int``; anything else, an array too, raises ``error(f"{message}, got {value!r}")``."""
    if not isinstance(value, (bool, np.ndarray)):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if minimum is None or number >= minimum:
                return number
    raise error(f"{message}, got {value!r}")


def as_bool(value, field: str) -> bool:
    """The one rule for flags: a ``bool`` passes; anything else, a numpy bool too, raises."""
    if isinstance(value, bool):
        return value
    raise InvalidModelError(f"{field} must be a bool, got {value!r}")


def as_scalar(value, field: str) -> Scalar:
    """The one rule for runtime numbers: an ``int`` or numpy integer passes as
    ``Fraction``, a ``Fraction`` or ``float`` unchanged, a numpy float as ``float``;
    a bool, a string, None, an array or anything else raises ``DomainError`` naming ``field``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return Fraction(int(value))
    raise DomainError(f"{field} must be a number, got {value!r}")


def as_scalars(values, field: str) -> tuple[Scalar, ...]:
    """``as_scalar`` on each entry of a sequence; a non-sequence raises ``DomainError`` too."""
    entries = _sequence(values, f"{field} must be a sequence of numbers", DomainError)
    return tuple([as_scalar(v, field) for v in entries])


def as_rational(value, field: str, error=InvalidModelError) -> Fraction:
    """The one rule for rational model data: what ``Fraction`` reads exactly passes;
    a bool, NaN, an infinity or anything else raises ``error`` naming ``field``."""
    if not isinstance(value, bool):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise error(f"{field} must be a finite rational, got {value!r}")


def _sequence(values, message: str, error=InvalidModelError) -> tuple:
    """The one rule for sequences: what ``tuple`` reads passes; anything else raises
    ``error(f"{message}, got {values!r}")``."""
    try:
        return tuple(values)
    except TypeError:
        raise error(f"{message}, got {values!r}") from None


def _integer_rows(rows, field: str) -> tuple[tuple[int, ...], ...]:
    """The one rule for rows of integer model data: a sequence of sequences of integers."""
    message = f"{field} must be a sequence of integer rows"
    return tuple([
        tuple([as_integer(v, message) for v in _sequence(row, message)]) for row in _sequence(rows, message)
    ])


@dataclass(frozen=True)
class SmoothPoint:
    """The germ of affine n-space at the origin."""

    dim: int

    def __post_init__(self):
        dim = as_integer(self.dim, "smooth point dimension must be a positive integer", 1)
        object.__setattr__(self, "dim", dim)

    kind = "smooth"

    @property
    def ambient_dim(self) -> int:
        return self.dim


@dataclass(frozen=True)
class Hypersurface:
    """Hypersurface germ X^n = { f = 0 } in affine (n+1)-space.

    ``support`` lists the exponent vectors of the monomials of f.  The
    multiplicity (minimum total degree) must be at least 2; germs of
    multiplicity 1 are smooth and should normally be modelled as
    ``SmoothPoint``.  Set ``allow_smooth_germ`` to keep the ambient
    weighted-blow-up bookkeeping on a multiplicity-1 support (used for the
    k=1 member of the A-family, whose germ is a smooth point).
    """

    support: tuple[ExponentVector, ...]
    allow_smooth_germ: bool = False

    kind = "hypersurface"

    def __post_init__(self):
        object.__setattr__(self, "allow_smooth_germ", as_bool(self.allow_smooth_germ, "allow_smooth_germ"))
        support = _integer_rows(self.support, "hypersurface support")
        if not support:
            raise InvalidModelError("hypersurface support must be non-empty")
        widths = {len(vec) for vec in support}
        if len(widths) != 1:
            raise InvalidModelError("hypersurface support rows must have equal length")
        width = widths.pop()
        if width < 2:
            raise InvalidModelError("hypersurface support rows need at least 2 exponents")
        for vec in support:
            if any(e < 0 for e in vec):
                raise InvalidModelError(f"hypersurface support has a negative exponent in {vec}")
            if all(e == 0 for e in vec):
                raise InvalidModelError("the zero exponent vector is not a monomial of f")
        canonical = tuple(sorted(set(support)))
        if len(canonical) != len(support):
            raise InvalidModelError("repeated exponent vectors in support")
        object.__setattr__(self, "support", canonical)
        if self.multiplicity < 2 and not self.allow_smooth_germ:
            raise InvalidModelError(
                "support has multiplicity < 2; the germ is smooth and should be a SmoothPoint "
                "(or pass allow_smooth_germ=True to keep the ambient bookkeeping)"
            )

    @property
    def ambient_dim(self) -> int:
        return len(self.support[0])

    @property
    def dim(self) -> int:
        """Intrinsic dimension of the germ; the normalized-volume exponent."""
        return self.ambient_dim - 1

    @property
    def multiplicity(self) -> int:
        """Hilbert-Samuel multiplicity e(m): minimum total degree over the support."""
        return min(sum(vec) for vec in self.support)


@dataclass(frozen=True)
class ToricCone:
    """Simplicial Q-Gorenstein affine toric germ.

    ``generators`` are the primitive integer generators of the defining
    cone (exactly ``rank`` of them, linearly independent), and
    ``gorenstein_vector`` is the rational covector pairing to exactly 1
    with every generator.  The constructor rejects any pairing != 1.
    """

    generators: tuple[tuple[int, ...], ...]
    gorenstein_vector: tuple[Fraction, ...]

    kind = "toric"

    def __post_init__(self):
        gens = _integer_rows(self.generators, "toric generators")
        if not gens:
            raise InvalidModelError("toric generators must be non-empty")
        rank = len(gens[0])
        if any(len(g) != rank for g in gens):
            raise InvalidModelError("all generators must have the same length")
        if len(gens) != rank:
            raise InvalidModelError(
                f"only simplicial cones are supported: need exactly {rank} generators, got {len(gens)}"
            )
        for g in gens:
            if all(v == 0 for v in g):
                raise InvalidModelError("toric generators must be nonzero")
            if reduce(math.gcd, (abs(v) for v in g)) != 1:
                raise InvalidModelError(f"toric generators must be primitive, got {g}")
        gamma = _sequence(self.gorenstein_vector, "gorenstein_vector must be a sequence")
        gamma = tuple(as_rational(v, "gorenstein_vector entry") for v in gamma)
        if len(gamma) != rank:
            raise InvalidModelError("gorenstein_vector length must equal the rank")
        for g in gens:
            pairing = sum(gi * vi for gi, vi in zip(gamma, g))
            if pairing != 1:
                raise InvalidModelError(
                    f"gorenstein pairing with generator {g} is {pairing}, must be exactly 1"
                )
        try:  # the matrix has the generators as columns; its inverse's rows are the dual rays
            inverse = inverse_fraction(list(zip(*gens)))
        except ZeroDivisionError:
            raise InvalidModelError("generators are linearly dependent") from None
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "gorenstein_vector", gamma)
        object.__setattr__(self, "_dual_rays", tuple(primitive_integer_vector(row) for row in inverse))

    @property
    def rank(self) -> int:
        return len(self.generators[0])

    dim = ambient_dim = rank

    def dual_rays(self) -> tuple[tuple[int, ...], ...]:
        """Primitive generators of the dual cone (simplicial case).

        Ray i pairs to zero with every generator but generator i.
        """
        return self._dual_rays

    def parallelepiped_points(self) -> tuple[tuple[int, ...], ...]:
        """Lattice points of the half-open parallelepiped spanned by the dual rays.

        The box { sum l_i w_i : 0 <= l_i < 1 } holds |det W| lattice points,
        one per class of Z^rank modulo the lattice of the dual rays w_i, and
        every lattice point of the dual cone is one of them plus a
        non-negative integer combination of the w_i.
        """
        return self._parallelepiped_points

    @cached_property
    def _parallelepiped_points(self) -> tuple[tuple[int, ...], ...]:
        rays = self.dual_rays()
        # y = sum l_i w_i has l_i = <y, g_i> / <w_i, g_i>, so subtracting
        # floor(l_i) w_i reduces y into the box
        scales = [sum(w * g for w, g in zip(ray, gen)) for ray, gen in zip(rays, self.generators)]

        def into_box(y):
            for ray, gen, scale in zip(rays, self.generators, scales):
                steps = sum(v * g for v, g in zip(y, gen)) // scale
                y = tuple(v - steps * w for v, w in zip(y, ray))
            return y

        # the unit vectors generate Z^rank, so closing {0} under unit steps
        # reaches every class
        points = {(0,) * self.rank}
        frontier = list(points)
        while frontier:
            p = frontier.pop()
            for k in range(self.rank):
                q = into_box(tuple(v + (i == k) for i, v in enumerate(p)))
                if q not in points:
                    points.add(q)
                    frontier.append(q)
        return tuple(sorted(points))


Model = Union[SmoothPoint, Hypersurface, ToricCone]


def check_weight(model: Model, weight: Sequence) -> tuple[Scalar, ...]:
    """Validate a weight vector against a model and coerce its entries.

    Coordinates must be finite, and the length must equal the ambient
    dimension.  Smooth and hypersurface weights must be strictly positive.
    Toric weights must lie strictly inside the defining cone (equivalently,
    pair positively with every dual ray), which is the condition keeping
    valuation ideals of finite colength.  Any other model kind raises
    ``UnsupportedModelError``, so callers may take the toric branch last.
    """
    if not isinstance(model, (SmoothPoint, Hypersurface, ToricCone)):
        raise UnsupportedModelError(f"unknown model kind {model!r}")
    coords = as_scalars(weight, "weight")
    if len(coords) != model.ambient_dim:
        raise DomainError(
            f"weight length {len(coords)} does not match ambient dimension {model.ambient_dim}"
        )
    if isinstance(model, ToricCone):
        if not all(-math.inf < x < math.inf for x in coords):  # NaN too
            raise DomainError(f"weight coordinates must be finite, got {coords}")
        rays = model.dual_rays()
        pairings, scale = _row_pairings(rays, coords)
        for ray, pairing in zip(rays, pairings):
            if not pairing > 0:
                raise DomainError(
                    f"weight {coords} is not in the interior of the cone "
                    f"(pairing with dual ray {ray} is {_ratio(pairing, scale)})"
                )
        return coords
    for x in coords:
        if not 0 < x < math.inf:
            raise DomainError(f"weight coordinates must be strictly positive and finite, got {coords}")
    return coords


def _row_pairings(rows, x) -> tuple[list, Optional[int]]:
    """<row, x> for each integer row, and the common denominator of an exact x (else None): as in
    ``core._pairings``, an exact x is read as integer numerators over it, floats or ints as they come."""
    x, scale = integer_numerators(x) if is_exact(x) else (x, None)
    return [sum(r * v for r, v in zip(row, x)) for row in rows], scale


def _ratio(value, scale: Optional[int]) -> Scalar:
    """A pairing of ``_row_pairings`` as a number: value / scale, or the value itself."""
    return value if scale is None else Fraction(value, scale)


def _squares_plus(n: int, tails, allow_smooth_germ: bool = False) -> Hypersurface:
    """z_1^2 + ... + z_n^2 plus one monomial per tail, each on the coordinates after z_n."""
    width = n + len(tails[0])
    squares = tuple(tuple(2 * (i == j) for j in range(width)) for i in range(n))
    return Hypersurface(squares + tuple((0,) * n + tail for tail in tails), allow_smooth_germ)


def a_singularity(n: int, k: int) -> Hypersurface:
    """n-dimensional A_{k-1} germ: z_1^2 + ... + z_n^2 + z_{n+1}^k in (n+1)-space."""
    n = as_integer(n, "A-family needs dimension n >= 2", 2)
    k = as_integer(k, "A-family needs k >= 1", 1)
    return _squares_plus(n, ((k,),), allow_smooth_germ=(k == 1))


def d_singularity(n: int, k: int) -> Hypersurface:
    """(n+1)-dimensional D-type germ: sum of n squares + z_{n+1}^2 z_{n+2} + z_{n+2}^k."""
    n = as_integer(n, "D-family needs n >= 1 (dimension n+1 >= 2)", 1)
    k = as_integer(k, "D-family needs k >= 3", 3)
    return _squares_plus(n, ((2, 1), (0, k)))


def e_singularity(index: int, n: int) -> Hypersurface:
    """(n+1)-dimensional E_6/E_7/E_8 germ with n leading squares.

    E_6: + z_{n+1}^3 + z_{n+2}^4;  E_7: + z_{n+1}^3 z_{n+2} + z_{n+2}^3;
    E_8: + z_{n+1}^3 + z_{n+2}^5.
    """
    message = "E-family index must be 6, 7 or 8"
    tails = {6: ((3, 0), (0, 4)), 7: ((3, 1), (0, 3)), 8: ((3, 0), (0, 5))}
    index = as_integer(index, message)
    if index not in tails:
        raise InvalidModelError(f"{message}, got {index!r}")
    n = as_integer(n, "E-family needs n >= 1 (dimension n+1 >= 2)", 1)
    return _squares_plus(n, tails[index])


def orthant_cone(rank: int) -> ToricCone:
    """The standard positive orthant as a toric model (affine rank-space)."""
    rank = as_integer(rank, "orthant cone rank must be an integer")
    gens = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
    gamma = tuple(Fraction(1) for _ in range(rank))
    return ToricCone(gens, gamma)
