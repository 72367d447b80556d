"""Exact-rational scalar handling and small exact linear algebra.

All closed-form operations in this package run on ``fractions.Fraction``
when given rational inputs and fall back to floats otherwise (``models``
decides which inputs are numbers).  The helpers here tell the two apart,
write the "p/q" text form of the CLI and the model files, and hold the
exact linear algebra needed for toric dual cones and tie-stratum bases,
all read from one fraction-free elimination (``adjugate``).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[Fraction, float]

_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def is_exact(values: Sequence[Scalar]) -> bool:
    return all(isinstance(v, Fraction) for v in values)


def parse_rational(text) -> Fraction:
    """The one "p/q" rule: an int, or "p" / "p/q" in ASCII digits, no whitespace, q != 0."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected integer or 'p/q' string, got {text!r}")
    m = _RATIONAL_RE.fullmatch(text)
    if not m or (m.group(2) is not None and int(m.group(2)) == 0):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2)) if m.group(2) else 1)


def format_scalar(value: Scalar) -> Union[str, float]:
    """Exact values render as "p/q" strings in lowest terms, floats as floats."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)
    return float(f"{value:.12g}")


def integer_numerators(values: Sequence[Scalar]) -> tuple[list[int], int]:
    """Rational values (floats read exactly) as integer numerators over their common denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*(d for _, d in ratios))
    return [p * (scale // q) for p, q in ratios], scale


def adjugate(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list], Scalar]:
    """The adjugate and determinant of the square B, with adj B = det I, by one fraction-free elimination.

    Each row is scaled to integers by the lcm s_i of its denominators, and
    [S B | I] is reduced by fraction-free Gauss-Jordan elimination (Bareiss,
    Math. Comp. 22, 1968), in which every division is exact, to
    [D I | D (S B)^-1] for D = +-det(S B); a row already 0 in a pivot
    column is only rescaled there.  Both are integers when every entry is,
    Fractions otherwise.  A singular B raises ZeroDivisionError, and rows
    that do not make a square matrix raise ValueError.
    """
    m, scale = len(rows), [1] * len(rows)
    if any(len(row) != m for row in rows):
        raise ValueError("adjugate needs a square matrix")
    if not all(isinstance(x, int) for row in rows for x in row):  # scaled to integers row by row
        fracs = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in rows]
        rows, scale = zip(*map(integer_numerators, fracs))
    mat = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    previous, sign = 1, 1
    for col in range(m):
        pivot = next((r for r in range(col, m) if mat[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        if pivot != col:
            mat[col], mat[pivot], sign = mat[pivot], mat[col], -sign
        lead, head = mat[col], mat[col][col]
        for i, r in enumerate(mat):
            if r is not lead and (factor := r[col]):
                mat[i] = [(x * head - factor * y) // previous for x, y in zip(r, lead)]
            elif r is not lead and head != previous:  # already 0 in the pivot column: only rescaled
                mat[i] = [x * head // previous for x in r]
        previous = head
    if (den := math.prod(scale)) == 1:
        return [[sign * x for x in row[m:]] for row in mat], sign * previous
    adj = [[Fraction(sign * x * s, den) for x, s in zip(row[m:], scale)] for row in mat]
    return adj, Fraction(sign * previous, den)


def det_fraction(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """The determinant of ``adjugate``, 0 for a singular matrix."""
    try:
        return Fraction(adjugate(rows)[1])
    except ZeroDivisionError:
        return Fraction(0)


def inverse_fraction(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact matrix inverse adj / det (``adjugate``); raises ZeroDivisionError on singular input."""
    adj, det = adjugate(rows)
    return [[Fraction(x, det) for x in row] for row in adj]


def primitive_integer_vector(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to the primitive integer vector on its ray."""
    ints, _ = integer_numerators([Fraction(v) for v in vec])
    if not any(ints):
        raise ValueError("zero vector has no primitive representative")
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)
