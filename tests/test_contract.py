"""The constructor contract: every model field and sweep parameter is decided at its boundary.

Each call either raises an ``HvolError`` subclass or returns what the exact
value builds.  Integer fields take ``int`` and numpy integers only, so
``True``, ``2.5``, ``2.0`` and ``"2"`` must raise there; rational fields
take what ``Fraction`` reads exactly, but never a bool, NaN or an infinity.
No call may return a truncated model or raise a bare ``TypeError``,
``ValueError`` or ``OverflowError``.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from hvol import Hypersurface, HvolError, SmoothPoint, ToricCone
from hvol.fujita import ConeModel, VolumeCurve, projective_space_cone
from hvol.inequalities import run_suite
from hvol.models import a_singularity, d_singularity, e_singularity, orthant_cone
from hvol.optimize import minimize_hvol

VALUES = [True, 2.5, 2.0, "2", np.int64(2), math.nan, math.inf, -math.inf]
VALUE_IDS = ["bool", "2.5", "2.0", "str", "int64", "nan", "inf", "-inf"]

P1, P2 = projective_space_cone(2).curve, projective_space_cone(3).curve
CUSP = Hypersurface(((2, 0), (0, 3)))

# field -> (kind, build); build(2) is a valid call for every field but d_singularity.k (k >= 3)
FIELDS = {
    "SmoothPoint.dim": ("integer", lambda v: SmoothPoint(v)),
    "Hypersurface.support": ("integer", lambda v: Hypersurface(((v, 0), (0, 3)))),
    "ToricCone.generators": ("integer", lambda v: ToricCone(((1, 0), (1, v)), (1, 0))),
    "ToricCone.gorenstein_vector": ("rational", lambda v: ToricCone(((1, 0), (-1, 1)), (1, v))),
    "orthant_cone": ("integer", orthant_cone),
    "a_singularity.n": ("integer", lambda v: a_singularity(v, 3)),
    "a_singularity.k": ("integer", lambda v: a_singularity(2, v)),
    "d_singularity.n": ("integer", lambda v: d_singularity(v, 3)),
    "d_singularity.k": ("integer", lambda v: d_singularity(1, v)),
    "e_singularity.n": ("integer", lambda v: e_singularity(6, v)),
    "VolumeCurve.breakpoints": ("rational", lambda v: VolumeCurve((0, 1, v), ((1, -1), (0,)), 1)),
    "VolumeCurve.pieces": ("rational", lambda v: VolumeCurve((0, 2), ((v, -1),), 2)),
    "VolumeCurve.vol_at_zero": ("rational", lambda v: VolumeCurve((0, 2), ((2, -1),), v)),
    "ConeModel.base_dim": ("integer", lambda v: ConeModel(v, 3, P2)),
    "ConeModel.r": ("rational", lambda v: ConeModel(1, v, P1)),
    "run_suite.dims": ("integer", lambda v: run_suite("thm13", samples=20, seed=5, dims=(v,))),
    "minimize_hvol.tolerance": ("rational", lambda v: minimize_hvol(CUSP, tolerance=v)),
}


def _exact(kind, value):
    """The value a call may accept in place of ``value``, or None if it must raise."""
    if kind == "integer":
        return int(value) if isinstance(value, np.integer) else None
    if isinstance(value, bool) or (isinstance(value, float) and not math.isfinite(value)):
        return None
    return F(value)


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
@pytest.mark.parametrize("field", list(FIELDS))
def test_constructor_contract(field, value):
    kind, build = FIELDS[field]
    try:
        got = build(value)
    except HvolError:
        return
    exact = _exact(kind, value)
    assert exact is not None, f"{field} accepted {value!r}"
    assert got == build(exact)
