"""Model files: schema strictness, exact parsing, canonical round-trips."""

import json
from fractions import Fraction as F

import jsonschema
import pytest

import hvol.modelio as modelio
from hvol import Hypersurface, InvalidModelError, SmoothPoint, ToricCone
from hvol.exact import format_scalar, parse_rational
from hvol.fujita import ConeModel, projective_space_cone


class TestRationals:
    def test_parse(self):
        assert parse_rational("2/3") == F(2, 3)
        assert parse_rational("-7/2") == F(-7, 2)
        assert parse_rational("5") == F(5)
        assert parse_rational(12) == F(12)

    def test_parse_rejects(self):
        for bad in ("1.5", "a/b", "1/0", "", "2 / 3"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_format_lowest_terms(self):
        assert format_scalar(F(250, 27)) == "250/27"
        assert format_scalar(F(6, 3)) == "2"
        assert format_scalar(0.5) == 0.5


class TestSchema:
    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidModelError) as caught:
            modelio.model_from_dict({"kind": "smooth", "dim": 2, "label": "x"})
        assert str(caught.value) == (
            "model file rejected by schema: {'kind': 'smooth', 'dim': 2, 'label': 'x'} "
            "is not valid under any of the given schemas"
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidModelError) as caught:
            modelio.model_from_dict({"kind": "elliptic", "dim": 2})
        assert str(caught.value) == (
            "model file rejected by schema: {'kind': 'elliptic', 'dim': 2} "
            "is not valid under any of the given schemas"
        )

    def test_bad_rational_rejected(self):
        with pytest.raises(InvalidModelError) as caught:
            modelio.model_from_dict(
                {"kind": "toric", "generators": [[1]], "gorenstein_vector": ["1.5"]}
            )
        assert str(caught.value) == (
            "model file rejected by schema: '1.5' does not match '^-?[0-9]+(/[0-9]+)?$'"
        )

    def test_semantic_validation_still_runs(self):
        with pytest.raises(InvalidModelError) as caught:
            modelio.model_from_dict(
                {"kind": "toric", "generators": [[1, 0], [1, 2]], "gorenstein_vector": [1, 1]}
            )
        assert str(caught.value) == "gorenstein pairing with generator (1, 2) is 3, must be exactly 1"

    def test_schema_is_valid_draft7(self):
        jsonschema.Draft7Validator.check_schema(modelio.SCHEMA)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "model",
        [
            SmoothPoint(4),
            Hypersurface(((2, 0, 0), (0, 2, 0), (0, 0, 5))),
            Hypersurface(((2, 0), (0, 1)), allow_smooth_germ=True),
            ToricCone(((0, 1), (2, -1)), (F(1), F(1))),
            projective_space_cone(3),
        ],
        ids=["smooth", "hypersurface", "smooth-germ", "toric", "cone"],
    )
    def test_canonical_round_trip(self, model):
        text = modelio.dumps_canonical(model)
        again = modelio.model_from_dict(json.loads(text))
        assert modelio.dumps_canonical(again) == text
        assert again == model

    def test_load_model_from_file(self, tmp_path):
        path = tmp_path / "cone.json"
        path.write_text(modelio.dumps_canonical(projective_space_cone(2)))
        model = modelio.load_model(str(path))
        assert isinstance(model, ConeModel)
        assert model.r == 2

    def test_load_errors(self, tmp_path):
        with pytest.raises(InvalidModelError):
            modelio.load_model(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(InvalidModelError):
            modelio.load_model(str(bad))
