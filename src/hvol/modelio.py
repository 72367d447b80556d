"""Model files: strict JSON schema, exact rational parsing, canonical output.

A model file is a JSON object whose ``kind`` selects one of four shapes:

* ``smooth``:       {"kind": "smooth", "dim": n}
* ``hypersurface``: {"kind": "hypersurface", "support": [[e, ...], ...],
                     "allow_smooth_germ": false?}
* ``toric``:        {"kind": "toric", "generators": [[v, ...], ...],
                     "gorenstein_vector": [rational, ...]}
* ``cone``:         {"kind": "cone", "base_dim": n-1, "r": rational,
                     "vol_at_zero": rational, "breakpoints": [rational, ...],
                     "pieces": [[rational, ...], ...]}

The schema is ``schema.json`` beside this module.  Rationals are integers
or "p/q" strings and are parsed exactly; unknown fields are rejected.
``canonical_dict`` / ``dumps_canonical`` emit a normal form (lowest-terms
"p/q" strings, sorted keys) that round-trips bit for bit.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import Union

import jsonschema

from .exact import format_scalar, parse_rational
from .fujita import ConeModel, VolumeCurve
from .models import (
    Hypersurface,
    InvalidModelError,
    Model,
    SmoothPoint,
    ToricCone,
)

SCHEMA = json.loads(resources.files("hvol").joinpath("schema.json").read_text(encoding="utf-8"))

AnyModel = Union[Model, ConeModel]

# Built once: ``jsonschema.validate`` would re-check SCHEMA against the
# draft-07 metaschema on every call (the tests check it once instead).
_VALIDATOR = jsonschema.Draft7Validator(SCHEMA)


def model_from_dict(data: dict) -> AnyModel:
    """Validate a JSON document against the schema and build the model."""
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(data))
    if error is not None:
        raise InvalidModelError(f"model file rejected by schema: {error.message}") from error
    kind = data["kind"]
    if kind == "smooth":
        return SmoothPoint(dim=data["dim"])
    if kind == "hypersurface":
        return Hypersurface(
            support=tuple(tuple(row) for row in data["support"]),
            allow_smooth_germ=bool(data.get("allow_smooth_germ", False)),
        )
    if kind == "toric":
        return ToricCone(
            generators=tuple(tuple(row) for row in data["generators"]),
            gorenstein_vector=tuple(parse_rational(v) for v in data["gorenstein_vector"]),
        )
    curve = VolumeCurve(
        breakpoints=tuple(parse_rational(v) for v in data["breakpoints"]),
        pieces=tuple(tuple(parse_rational(c) for c in piece) for piece in data["pieces"]),
        vol_at_zero=parse_rational(data["vol_at_zero"]),
    )
    return ConeModel(base_dim=data["base_dim"], r=parse_rational(data["r"]), curve=curve)


def load_model(path: str) -> AnyModel:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidModelError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidModelError("model file must hold a JSON object")
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
            "gorenstein_vector": [_rational_text(v) for v in model.gorenstein_vector],
        }
    if isinstance(model, ConeModel):
        return {
            "kind": "cone",
            "base_dim": model.base_dim,
            "r": _rational_text(model.r),
            "vol_at_zero": _rational_text(model.curve.vol_at_zero),
            "breakpoints": [_rational_text(b) for b in model.curve.breakpoints],
            "pieces": [[_rational_text(c) for c in piece] for piece in model.curve.pieces],
        }
    raise InvalidModelError(f"cannot serialize {model!r}")


def dumps_canonical(model: AnyModel) -> str:
    return json.dumps(canonical_dict(model), sort_keys=True, indent=2) + "\n"


def _rational_text(value: Fraction) -> str:
    out = format_scalar(Fraction(value))
    return out if isinstance(out, str) else repr(out)
