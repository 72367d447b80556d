"""Model files: the one description of the format, exact rationals, canonical output.

A model file holds one JSON object.  Its ``kind`` is one of four strings and
fixes the fields; a missing field or any other field is rejected:

* ``smooth``:       {"kind": "smooth", "dim": n}
* ``hypersurface``: {"kind": "hypersurface", "support": [[e, ...], ...]},
                    optionally with "allow_smooth_germ": true or false
* ``toric``:        {"kind": "toric", "generators": [[v, ...], ...],
                     "gorenstein_vector": [rational, ...]}
* ``cone``:         {"kind": "cone", "base_dim": n-1, "r": rational,
                     "vol_at_zero": rational, "breakpoints": [rational, ...],
                     "pieces": [[rational, ...], ...]}

A rational is a JSON integer or an ASCII "p/q" string, q != 0, no whitespace
(``exact.parse_rational``); a list of rationals is a JSON array.  The
model constructors decide every other value.  Each rejection is an
``InvalidModelError`` naming the field.  ``dumps_canonical`` writes a normal
form (lowest-terms "p/q" strings, sorted keys) that round-trips bit for bit.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Union

from .exact import format_scalar, parse_rational
from .fujita import ConeModel, VolumeCurve
from .models import Hypersurface, InvalidModelError, Model, SmoothPoint, ToricCone

AnyModel = Union[Model, ConeModel]

# kind -> (required fields, optional fields), "kind" aside
_FIELDS = {
    "smooth": (("dim",), ()),
    "hypersurface": (("support",), ("allow_smooth_germ",)),
    "toric": (("generators", "gorenstein_vector"), ()),
    "cone": (("base_dim", "r", "vol_at_zero", "breakpoints", "pieces"), ()),
}


def model_from_dict(data: dict) -> AnyModel:
    """Check the document's kind, field names and rationals, and build the model."""
    if not isinstance(data, dict):
        raise InvalidModelError(f"model file must hold a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _FIELDS:
        raise InvalidModelError(f"kind must be one of {', '.join(_FIELDS)}, got {kind!r}")
    required, optional = _FIELDS[kind]
    for name in data:
        if name != "kind" and name not in required + optional:
            raise InvalidModelError(f"unknown field {name!r} in a {kind} model file")
    for name in required:
        if name not in data:
            raise InvalidModelError(f"{kind} model file needs field {name!r}")
    if kind == "smooth":
        return SmoothPoint(data["dim"])
    if kind == "hypersurface":
        return Hypersurface(data["support"], data.get("allow_smooth_germ", False))
    if kind == "toric":
        return ToricCone(data["generators"], _rationals(data["gorenstein_vector"], "gorenstein_vector"))
    curve = VolumeCurve(
        breakpoints=_rationals(data["breakpoints"], "breakpoints"),
        pieces=_rationals(data["pieces"], "pieces", rows=True),
        vol_at_zero=_rational(data["vol_at_zero"], "vol_at_zero"),
    )
    return ConeModel(base_dim=data["base_dim"], r=_rational(data["r"], "r"), curve=curve)


def _rationals(values, field: str, rows: bool = False) -> tuple:
    """A JSON array of rationals, or with ``rows`` a JSON array of such arrays."""
    if not isinstance(values, list):
        raise InvalidModelError(f"{field} must be a JSON array, got {values!r}")
    return tuple(_rationals(v, field) if rows else _rational(v, field) for v in values)


def _rational(value, field: str) -> Fraction:
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise InvalidModelError(f"{field}: {exc}") from None


def load_model(path: str) -> AnyModel:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, long integers, deep nesting
        raise InvalidModelError(f"cannot read model file {path}: {exc}") from exc
    return model_from_dict(data)


def canonical_dict(model: AnyModel) -> dict:
    """Normal-form JSON document for a model (rationals in lowest terms)."""
    if isinstance(model, SmoothPoint):
        return {"kind": "smooth", "dim": model.dim}
    if isinstance(model, Hypersurface):
        doc = {"kind": "hypersurface", "support": [list(e) for e in model.support]}
        if model.allow_smooth_germ:
            doc["allow_smooth_germ"] = True
        return doc
    if isinstance(model, ToricCone):
        return {
            "kind": "toric",
            "generators": [list(g) for g in model.generators],
            "gorenstein_vector": [format_scalar(v) for v in model.gorenstein_vector],
        }
    if isinstance(model, ConeModel):
        return {
            "kind": "cone",
            "base_dim": model.base_dim,
            "r": format_scalar(model.r),
            "vol_at_zero": format_scalar(model.curve.vol_at_zero),
            "breakpoints": [format_scalar(b) for b in model.curve.breakpoints],
            "pieces": [[format_scalar(c) for c in piece] for piece in model.curve.pieces],
        }
    raise InvalidModelError(f"cannot serialize {model!r}")


def dumps_canonical(model: AnyModel) -> str:
    return json.dumps(canonical_dict(model), sort_keys=True, indent=2) + "\n"
