"""The boundary contract: every model field and runtime number is decided where it enters.

Each call either raises an ``HvolError`` subclass or returns what the exact
value builds.  Integer fields take ``int`` and numpy integers only, so
``True``, ``2.5``, ``2.0`` and ``"2"`` must raise there; rational fields
take what ``Fraction`` reads exactly, but never a bool, NaN or an infinity;
the flag ``allow_smooth_germ`` takes a bool only.
No call may return a truncated model or raise a bare ``TypeError``,
``ValueError`` or ``OverflowError``.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from hvol import (
    DomainError, Hypersurface, HvolError, InvalidModelError, SmoothPoint, ToricCone, core, lattice,
)
from hvol.fujita import (
    ConeModel, VolumeCurve, catalog, f_of_t, f_of_t_slope_form, phi,
    projective_space_cone, vol_w_alpha,
)
from hvol.inequalities import run_suite, sample_weight, skewness_s, thm13_margin
from hvol.models import a_singularity, d_singularity, e_singularity, orthant_cone
from hvol.tables import alpha_star

VALUES = [True, 2.5, 2.0, "2", np.int64(2), math.nan, math.inf, -math.inf, np.array(5)]
VALUE_IDS = ["bool", "2.5", "2.0", "str", "int64", "nan", "inf", "-inf", "array0d"]

P1, P2 = projective_space_cone(2).curve, projective_space_cone(3).curve
CUSP = Hypersurface(((2, 0), (0, 3)))

# field -> (kind, build); build(2) is a valid call for every field but d_singularity.k (k >= 3)
FIELDS = {
    "SmoothPoint.dim": ("integer", lambda v: SmoothPoint(v)),
    "Hypersurface.support": ("integer", lambda v: Hypersurface(((v, 0), (0, 3)))),
    "Hypersurface.allow_smooth_germ": ("bool", lambda v: Hypersurface(((2, 0), (0, 1)), allow_smooth_germ=v)),
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
}


def _exact(kind, value):
    """The value a call may accept in place of ``value``, or None if it must raise."""
    if kind == "bool":
        return value if isinstance(value, bool) else None
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


# well-typed values past a rule that no model file can reach; each error names the field
HUGE_R = ConeModel(1, 10**400, P1)  # f is near 10^800 on [0, 1]
RULES = {
    "e_singularity.index": (InvalidModelError, "index", lambda: e_singularity(5, 2)),
    "thm13_margin.weight": (DomainError, "weight", lambda: thm13_margin(SmoothPoint(2), (0.5, 1.0))),
    "alpha_star.n": (DomainError, "n <= ", lambda: alpha_star(10**200)),
    "f_of_t.t": (DomainError, "t = 0.5", lambda: f_of_t(HUGE_R, 0.5)),
    "phi.beta": (DomainError, "beta = 0.5", lambda: phi(HUGE_R, 0.5)),
    **{
        f"f_of_t_slope_form.t={t!r}": (DomainError, f"t = {t!r}", lambda t=t: f_of_t_slope_form(HUGE_R, t))
        for t in (0.5, 0.0, 1e-300)
    },
}


@pytest.mark.parametrize("name", list(RULES))
def test_rule_contract(name):
    error, field, call = RULES[name]
    with pytest.raises(error, match=field):
        call()


# model data where a sequence belongs, or a non-number inside one
SHAPES = {
    "Hypersurface.support": lambda: Hypersurface(3),
    "Hypersurface.support.row": lambda: Hypersurface(((2, 0), 3)),
    "ToricCone.generators": lambda: ToricCone(3, (1,)),
    "ToricCone.gorenstein_vector": lambda: ToricCone(((1, 0), (0, 1)), 3),
    "VolumeCurve.breakpoints": lambda: VolumeCurve(3, ((1,),), 1),
    "VolumeCurve.pieces": lambda: VolumeCurve((0, 1), 3, 1),
    "weighted_order.support": lambda: core.weighted_order((1, 1), 3),
    "weighted_order.exponent": lambda: core.weighted_order((1, 1), [("a", 1)]),
}


@pytest.mark.parametrize("field", list(SHAPES))
def test_model_sequence_contract(field):
    with pytest.raises(InvalidModelError):
        SHAPES[field]()


# ---------------------------------------------------------------------------
# runtime numbers: weights, radii, curve parameters and counts
#
# A "scalar" takes ints and numpy integers as exact Fractions and floats as
# floats; an "integer" takes ints and numpy integers only.  A bool, a string,
# None or an array must raise in either.  A sequence parameter gets each probe
# as one entry, and None, a 2-d array and a bare int in place of the sequence.

PROBES = VALUES + [None, np.ones((2, 2))]
PROBE_IDS = VALUE_IDS + ["None", "array2d"]
WHOLE = [None, np.ones((2, 2)), 2]
WHOLE_IDS = ["None", "array2d", "bare-int"]

PLANE, CONE = SmoothPoint(2), projective_space_cone(2)

RUNTIME = {
    "normalized_volume.weight": ("scalar", lambda w: core.normalized_volume(PLANE, w)),
    "log_discrepancy.weight": ("scalar", lambda w: core.log_discrepancy(CUSP, w)),
    "volume.weight": ("scalar", lambda w: core.volume(PLANE, w)),
    "ideal_value.weight": ("scalar", lambda w: core.ideal_value(PLANE, w)),
    "skewness.weight": ("scalar", lambda w: core.skewness(PLANE, w)),
    "weighted_order.weight": ("scalar", lambda w: core.weighted_order(w, CUSP.support)),
    "active_monomials.weight": ("scalar", lambda w: core.active_monomials(w, CUSP.support)),
    "estimate_volume.weight": ("scalar", lambda w: lattice.estimate_volume(PLANE, w, (10, 20))),
    "estimate_volume.radii": ("scalar", lambda r: lattice.estimate_volume(PLANE, (1, 1), r)),
    "colength.weight": ("scalar", lambda w: lattice.colength(PLANE, w, 10)),
    "default_radii.weight": ("scalar", lambda w: lattice.default_radii(PLANE, w)),
    "skewness_s.weight": ("scalar", skewness_s),
    "run_suite.dims": ("integer", lambda d: run_suite("thm13", samples=20, seed=5, dims=d)),
}
SEQUENCE_ENTRY = {  # where the probe goes in a sequence parameter
    "estimate_volume.radii": lambda v: (v, 10),
}

RUNTIME_SCALARS = {
    "colength.radius": ("scalar", lambda v: lattice.colength(PLANE, (1, 1), v)),
    "VolumeCurve.value.x": ("scalar", lambda v: P1.value(v)),
    "vol_w_alpha.alpha": ("scalar", lambda v: vol_w_alpha(CONE, v)),
    "phi.beta": ("scalar", lambda v: phi(CONE, v)),
    "f_of_t.t": ("scalar", lambda v: f_of_t(CONE, v)),
    "f_of_t_slope_form.t": ("scalar", lambda v: f_of_t_slope_form(CONE, v)),
    "run_suite.seed": ("integer", lambda v: run_suite("thm13", samples=20, seed=v, dims=(2,))),
    "run_suite.samples": ("integer", lambda v: run_suite("thm13", samples=v, seed=5, dims=(2,))),
    "sample_weight.dim": ("integer", lambda v: sample_weight(np.random.default_rng(0), v)),
    "projective_space_cone.n": ("integer", projective_space_cone),
    "alpha_star.n": ("integer", alpha_star),
}
for _name, (_kind, _call) in RUNTIME.items():
    _entry = SEQUENCE_ENTRY.get(_name, lambda v: (v, 1))
    RUNTIME_SCALARS[_name] = (_kind, lambda v, call=_call, entry=_entry: call(entry(v)))


def _runtime_exact(kind, value):
    """The value a call may accept in place of ``value``, or None if it must raise."""
    if isinstance(value, np.integer):
        return int(value) if kind == "integer" else F(int(value))
    if kind == "scalar" and isinstance(value, float):
        return value
    return None


def _raises_or_matches(build, value, exact):
    try:
        got = build(value)
    except HvolError:
        return
    assert exact is not None, f"accepted {value!r}"
    assert got == build(exact)


@pytest.mark.parametrize("value", PROBES, ids=PROBE_IDS)
@pytest.mark.parametrize("param", list(RUNTIME_SCALARS))
def test_runtime_contract(param, value):
    kind, build = RUNTIME_SCALARS[param]
    _raises_or_matches(build, value, _runtime_exact(kind, value))


# radii=None asks for the default schedule
WHOLE_CASES = [
    (p, v, f"{p}-{i}") for p in RUNTIME for v, i in zip(WHOLE, WHOLE_IDS)
    if not (p == "estimate_volume.radii" and v is None)
]


@pytest.mark.parametrize("param, value", [c[:2] for c in WHOLE_CASES], ids=[c[2] for c in WHOLE_CASES])
def test_runtime_sequence_contract(param, value):
    """None, a 2-d array or a bare int where a sequence belongs raises an HvolError."""
    _raises_or_matches(RUNTIME[param][1], value, None)


@pytest.mark.parametrize("name", list(catalog()))
def test_float_t_is_the_rounded_exact_value(name):
    cone = catalog()[name]
    for t in (0.0, 0.25, 0.1, 1 / 3, 0.999):
        assert f_of_t(cone, t) == float(f_of_t(cone, F(t))) == f_of_t_slope_form(cone, t)
    assert f_of_t(cone, 0.25) == float(f_of_t(cone, F(1, 4)))
    assert vol_w_alpha(cone, 0.5) == float(vol_w_alpha(cone, F(1, 2)))
    assert phi(cone, 0.5) == float(phi(cone, F(1, 2)))
    assert vol_w_alpha(cone, 1e308) == 0.0 == vol_w_alpha(cone, math.inf)
