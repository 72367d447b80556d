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
and in the interior of the defining cone for toric models.  klt-ness of a
germ is asserted by the caller, never verified here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence, Union

from .exact import (
    Scalar,
    as_scalar,
    det_fraction,
    inverse_fraction,
    primitive_integer_vector,
)


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


@dataclass(frozen=True)
class SmoothPoint:
    """The germ of affine n-space at the origin."""

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InvalidModelError("smooth point dimension must be a positive integer")

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
        if not self.support:
            raise InvalidModelError("hypersurface support must be non-empty")
        support = tuple(tuple(int(e) for e in vec) for vec in self.support)
        widths = {len(vec) for vec in support}
        if len(widths) != 1:
            raise InvalidModelError("all exponent vectors must have equal length")
        width = widths.pop()
        if width < 2:
            raise InvalidModelError("hypersurface ambient dimension must be at least 2")
        for vec in support:
            if any(e < 0 for e in vec):
                raise InvalidModelError(f"negative exponent in {vec}")
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
    def x_dim(self) -> int:
        return self.ambient_dim - 1

    @property
    def dim(self) -> int:
        """Intrinsic dimension of the germ; the normalized-volume exponent."""
        return self.x_dim

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
        gens = tuple(tuple(int(v) for v in g) for g in self.generators)
        if not gens:
            raise InvalidModelError("toric cone needs at least one generator")
        rank = len(gens[0])
        if any(len(g) != rank for g in gens):
            raise InvalidModelError("all generators must have the same length")
        if len(gens) != rank:
            raise InvalidModelError(
                f"only simplicial cones are supported: need exactly {rank} generators, got {len(gens)}"
            )
        for g in gens:
            if all(v == 0 for v in g):
                raise InvalidModelError("zero vector cannot generate a ray")
            if reduce(math.gcd, (abs(v) for v in g)) != 1:
                raise InvalidModelError(f"generator {g} is not primitive")
        gamma = tuple(Fraction(v) for v in self.gorenstein_vector)
        if len(gamma) != rank:
            raise InvalidModelError("gorenstein vector length must equal the rank")
        for g in gens:
            pairing = sum(gi * vi for gi, vi in zip(gamma, g))
            if pairing != 1:
                raise InvalidModelError(
                    f"gorenstein pairing with generator {g} is {pairing}, must be exactly 1"
                )
        matrix = [[Fraction(gens[j][i]) for j in range(rank)] for i in range(rank)]
        if det_fraction(matrix) == 0:
            raise InvalidModelError("generators are linearly dependent")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "gorenstein_vector", gamma)

    @property
    def rank(self) -> int:
        return len(self.generators[0])

    @property
    def dim(self) -> int:
        return self.rank

    @property
    def ambient_dim(self) -> int:
        return self.rank

    def dual_rays(self) -> tuple[tuple[int, ...], ...]:
        """Primitive generators of the dual cone (simplicial case)."""
        rank = self.rank
        matrix = [[Fraction(self.generators[j][i]) for j in range(rank)] for i in range(rank)]
        inverse = inverse_fraction(matrix)
        return tuple(primitive_integer_vector(row) for row in inverse)


Model = Union[SmoothPoint, Hypersurface, ToricCone]


def check_weight(model: Model, weight: Sequence) -> tuple[Scalar, ...]:
    """Validate a weight vector against a model and coerce its entries.

    Smooth and hypersurface weights must be strictly positive with length
    equal to the ambient dimension.  Toric weights must lie strictly inside
    the defining cone (equivalently, pair positively with every dual ray),
    which is the condition keeping valuation ideals of finite colength.
    """
    coords = tuple(as_scalar(v) for v in weight)
    if len(coords) != model.ambient_dim:
        raise DomainError(
            f"weight length {len(coords)} does not match ambient dimension {model.ambient_dim}"
        )
    if isinstance(model, ToricCone):
        for ray in model.dual_rays():
            pairing = sum(r * x for r, x in zip(ray, coords))
            if not pairing > 0:
                raise DomainError(
                    f"weight {coords} is not in the interior of the cone "
                    f"(pairing with dual ray {ray} is {pairing})"
                )
        return coords
    for x in coords:
        if not x > 0:
            raise DomainError(f"weight coordinates must be strictly positive, got {coords}")
    return coords


def _unit_rows(width: int, places) -> list[ExponentVector]:
    rows = []
    for exponent, position in places:
        row = [0] * width
        row[position] = exponent
        rows.append(tuple(row))
    return rows


def a_singularity(n: int, k: int) -> Hypersurface:
    """n-dimensional A_{k-1} germ: z_1^2 + ... + z_n^2 + z_{n+1}^k in (n+1)-space."""
    if n < 2:
        raise InvalidModelError("A-family needs dimension n >= 2")
    if k < 1:
        raise InvalidModelError("A-family needs k >= 1")
    width = n + 1
    support = [_unit_rows(width, [(2, i)])[0] for i in range(n)]
    support.append(_unit_rows(width, [(k, n)])[0])
    return Hypersurface(tuple(support), allow_smooth_germ=(k == 1))


def d_singularity(n: int, k: int) -> Hypersurface:
    """(n+1)-dimensional D-type germ: sum of n squares + z_{n+1}^2 z_{n+2} + z_{n+2}^k."""
    if n < 1:
        raise InvalidModelError("D-family needs n >= 1 (dimension n+1 >= 2)")
    if k < 3:
        raise InvalidModelError("D-family needs k >= 3")
    width = n + 2
    support = [_unit_rows(width, [(2, i)])[0] for i in range(n)]
    mixed = [0] * width
    mixed[n], mixed[n + 1] = 2, 1
    support.append(tuple(mixed))
    support.append(_unit_rows(width, [(k, n + 1)])[0])
    return Hypersurface(tuple(support))


def e_singularity(index: int, n: int) -> Hypersurface:
    """(n+1)-dimensional E_6/E_7/E_8 germ with n leading squares.

    E_6: + z_{n+1}^3 + z_{n+2}^4;  E_7: + z_{n+1}^3 z_{n+2} + z_{n+2}^3;
    E_8: + z_{n+1}^3 + z_{n+2}^5.
    """
    if index not in (6, 7, 8):
        raise InvalidModelError("E-family index must be 6, 7 or 8")
    if n < 1:
        raise InvalidModelError("E-family needs n >= 1 (dimension n+1 >= 2)")
    tails = {6: ((3, 0), (0, 4)), 7: ((3, 1), (0, 3)), 8: ((3, 0), (0, 5))}
    width = n + 2
    support = [_unit_rows(width, [(2, i)])[0] for i in range(n)]
    for a, b in tails[index]:
        row = [0] * width
        row[n], row[n + 1] = a, b
        support.append(tuple(row))
    return Hypersurface(tuple(support))


def orthant_cone(rank: int) -> ToricCone:
    """The standard positive orthant as a toric model (affine rank-space)."""
    gens = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    gamma = tuple(Fraction(1) for _ in range(rank))
    return ToricCone(gens, gamma)
