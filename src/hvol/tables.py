"""Reference minimizers for the A-D-E hypersurface families.

Each entry records the known minimizing weight of the normalized volume
over monomial valuations and its value.  Weights follow the convention of
writing the quadratic coordinates first with weight 1:

* A-family, dimension n:  (1, ..., 1, alpha) with
  alpha = max(2/k, (n-2)/(n-1)); the value is phi(alpha) with
  phi(a) = 2 (a + n - 2)^n / a.
* D-family, dimension n+1 (n leading squares), k >= 3:
    n = 1:            (1, (k-1)/k, 2/k), value 1/(k-1)
    k = 3 or n >= 4:  (1, ..., 1, c, c) with c = max(2/3, (n-2)/(n-1))
    k >= 4, n in {2, 3}: (1, ..., 1, a*, 2 - 2 a*) with a* the positive
      root of (n-1) a^2 + n a - n = 0; the value is irrational.
* E_6/E_7/E_8, dimension n+1: the five low-dimensional entries are pinned
  explicitly; for n >= 5 all three families share
  (1, ..., 1, (n-2)/(n-1), (n-2)/(n-1)).

Rational entries evaluate exactly through the closed forms in ``core``,
so the stored value is always consistent with the stored weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .core import normalized_volume
from .exact import Scalar
from .models import (
    DomainError,
    Hypersurface,
    InvalidModelError,
    a_singularity,
    as_integer,
    d_singularity,
    e_singularity,
)

#: each family's default table ranges (n values, k values); the E families take no k
RANGES = {
    "A": (range(2, 7), range(1, 7)),
    "D": (range(1, 6), range(3, 7)),
    "E6": (range(1, 6), None),
    "E7": (range(1, 6), None),
    "E8": (range(1, 6), None),
}
FAMILIES = tuple(RANGES)


@dataclass(frozen=True)
class ReferenceEntry:
    family: str
    n: int
    k: Optional[int]
    model: Hypersurface
    weight: tuple[Scalar, ...]
    value: Scalar

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def exact(self) -> bool:
        return isinstance(self.value, Fraction)

    def normalized_weight(self) -> tuple[Scalar, ...]:
        top = max(self.weight)
        return tuple(w / top for w in self.weight)


def alpha_star(n: int) -> float:
    """Positive root of (n-1) a^2 + n a - n = 0 (irrational for n = 2, 3)."""
    n = as_integer(n, "alpha_star needs an integer n >= 2", 2, DomainError)
    try:
        root = math.sqrt(5 * n * n - 4 * n)
    except OverflowError:  # 5 n^2 - 4 n is not below 2^1024
        raise DomainError("alpha_star needs n <= 5.99e153, so that 5 n^2 - 4 n is a finite float") from None
    return (-n + root) / (2 * (n - 1))


def _family(name: str) -> str:
    family = name.upper()
    if family not in RANGES:
        raise InvalidModelError(f"unknown family {family!r}")
    return family


def reference_model(family: str, n: int, k: Optional[int] = None) -> Hypersurface:
    """The family's germ; the range checks on n and k are the constructors'."""
    family = _family(family)
    if family.startswith("E"):
        return e_singularity(int(family[1]), n)
    if k is None:
        raise InvalidModelError(f"{family}-family needs k")
    return (a_singularity if family == "A" else d_singularity)(n, k)


def reference_entry(family: str, n: int, k: Optional[int] = None) -> ReferenceEntry:
    model = reference_model(family, n, k)
    family = family.upper()
    if family == "A":
        weight = _a_weight(n, k)
    elif family == "D":
        weight = _d_weight(n, k)
    else:
        weight, k = _e_weight(int(family[1]), n), None
    value = normalized_volume(model, weight).normalized_volume
    return ReferenceEntry(family=family, n=n, k=k, model=model, weight=weight, value=value)


def table_rows(family: str, n_values=None, k_values=None) -> Iterator[ReferenceEntry]:
    """Entries over n_values x k_values; a range left None is the family's default."""
    default_n, default_k = RANGES[_family(family)]
    if default_k is None and k_values is not None:
        raise DomainError("E-family tables take no k range")
    for n in default_n if n_values is None else n_values:
        for k in (default_k or [None]) if k_values is None else k_values:
            yield reference_entry(family, n, k)


def _a_weight(n: int, k: int) -> tuple[Scalar, ...]:
    alpha = max(Fraction(2, k), Fraction(n - 2, n - 1))
    return (Fraction(1),) * n + (alpha,)


def _d_weight(n: int, k: int) -> tuple[Scalar, ...]:
    ones = (Fraction(1),) * n
    if n == 1:
        return ones + (Fraction(k - 1, k), Fraction(2, k))
    if k == 3 or n >= 4:
        c = max(Fraction(2, 3), Fraction(n - 2, n - 1))
        return ones + (c, c)
    a = alpha_star(n)
    return tuple(float(w) for w in ones) + (a, 2 - 2 * a)


def _e_weight(index: int, n: int) -> tuple[Scalar, ...]:
    ones = (Fraction(1),) * n
    if n >= 5:
        c = Fraction(n - 2, n - 1)
        return ones + (c, c)
    if n == 4:
        return ones + (Fraction(2, 3), Fraction(2, 3))
    pinned = {
        (6, 1): (Fraction(2, 3), Fraction(1, 2)),
        (6, 2): (Fraction(2, 3), Fraction(1, 2)),
        (6, 3): (Fraction(2, 3), Fraction(5, 9)),
        (7, 1): (Fraction(4, 9), Fraction(2, 3)),
        (7, 2): (Fraction(4, 9), Fraction(2, 3)),
        (7, 3): (Fraction(5, 9), Fraction(2, 3)),
        (8, 1): (Fraction(2, 3), Fraction(2, 5)),
        (8, 2): (Fraction(2, 3), Fraction(2, 5)),
        (8, 3): (Fraction(2, 3), Fraction(5, 9)),
    }
    return ones + pinned[(index, n)]
