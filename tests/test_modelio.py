"""Model files: the file-level rules, exact parsing, canonical round-trips."""

import itertools
import json
import math
import random
from fractions import Fraction as F

import pytest

import hvol.modelio as modelio
from hvol import Hypersurface, InvalidModelError, SmoothPoint, ToricCone
from hvol.cli import main
from hvol.exact import adjugate, det_fraction, format_scalar, inverse_fraction, parse_rational
from hvol.fujita import ConeModel, projective_space_cone


class TestRationals:
    def test_parse(self):
        assert parse_rational("2/3") == F(2, 3)
        assert parse_rational("-7/2") == F(-7, 2)
        assert parse_rational("5") == F(5)
        assert parse_rational(12) == F(12)

    def test_parse_rejects(self):
        for bad in ("1.5", "a/b", "1/0", "", "2 / 3", " 2/3", "2/3\n", "\u0663", True, 2.0, None):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_format_lowest_terms(self):
        assert format_scalar(F(250, 27)) == "250/27"
        assert format_scalar(F(6, 3)) == "2"
        assert format_scalar(0.5) == 0.5

    def test_inverse(self):
        # the fraction-free inverse against the identity, on square matrices
        # of ints, Fractions and integer floats, and singular ones raise
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 4)
            pick = [
                lambda: rng.randint(-4, 4),
                lambda: F(rng.randint(-9, 9), rng.randint(1, 6)),
                lambda: float(rng.randint(-3, 3)),
            ]
            matrix = [[rng.choice(pick)() for _ in range(n)] for _ in range(n)]
            if det_fraction([[F(x) for x in row] for row in matrix]) == 0:
                with pytest.raises(ZeroDivisionError):
                    inverse_fraction(matrix)
                continue
            inverse = inverse_fraction(matrix)
            assert all(isinstance(x, F) for row in inverse for x in row)
            product = [[sum(F(a) * b for a, b in zip(row, col)) for col in zip(*inverse)] for row in matrix]
            assert product == [[int(i == j) for j in range(n)] for i in range(n)]


    def test_adjugate(self):
        # adj A = det(A) I against the cofactors of the Leibniz determinant, on
        # seeded square matrices of size 1-5 with int or Fraction entries:
        # integers stay integers, and a singular matrix raises
        rng = random.Random(5)

        def leibniz(matrix):
            total = 0
            for perm in itertools.permutations(range(len(matrix))):
                inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
                total += (-1) ** inversions * math.prod(row[j] for row, j in zip(matrix, perm))
            return total

        def minor(matrix, i, j):
            return [row[:j] + row[j + 1 :] for k, row in enumerate(matrix) if k != i]

        singular = 0
        for trial in range(300):
            n = rng.randint(1, 5)
            entry = (lambda: rng.randint(-2, 2)) if trial % 2 else (lambda: F(rng.randint(-3, 3), rng.randint(1, 4)))
            matrix = [[entry() for _ in range(n)] for _ in range(n)]
            det = leibniz(matrix)
            if det == 0:
                singular += 1
                with pytest.raises(ZeroDivisionError):
                    adjugate(matrix)
                assert det_fraction(matrix) == 0
                continue
            cofactors = [[(-1) ** (i + j) * leibniz(minor(matrix, j, i)) for j in range(n)] for i in range(n)]
            assert adjugate(matrix) == (cofactors, det)
            assert det_fraction(matrix) == det
            assert inverse_fraction(matrix) == [[F(x) / det for x in row] for row in cofactors]
            if trial % 2:
                assert type(det) is int and {type(x) for row in adjugate(matrix)[0] for x in row} <= {int}
        assert 20 <= singular <= 150

    def test_adjugate_integer_path(self):
        # all-int rows skip the per-row scaling to integers; on seeded integer
        # matrices of size 1-5, square or of k < m rows, the answer is that of
        # the same rows as Fractions, and rows of rank below k raise on both
        rng, singular = random.Random(9), 0
        for trial in range(400):
            m = rng.randint(1, 5)
            k = m if trial % 2 else rng.randint(1, m)
            rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(k)]
            fractions = [[F(x) for x in row] for row in rows]
            try:
                expected = adjugate(fractions)
            except ZeroDivisionError:
                singular += 1
                with pytest.raises(ZeroDivisionError):
                    adjugate(rows)
                continue
            assert adjugate(rows) == expected
            assert {type(x) for row in adjugate(rows)[0] for x in row} | {type(adjugate(rows)[1])} == {int}
        assert 30 <= singular <= 200

    def test_adjugate_completes_rows_at_their_free_columns(self):
        # k < m rows are completed by the unit rows of the columns where their
        # echelon form has no pivot; rows of rank below k raise
        assert adjugate([[1, 1, 0], [0, 0, 1]]) == adjugate([[1, 1, 0], [0, 0, 1], [0, 1, 0]])
        assert adjugate([[0, 2, 1]]) == adjugate([[0, 2, 1], [1, 0, 0], [0, 0, 1]])
        with pytest.raises(ZeroDivisionError):
            adjugate([[1, 2, 3], [2, 4, 6]])


class TestSchema:
    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidModelError) as caught:
            modelio.model_from_dict({"kind": "smooth", "dim": 2, "label": "x"})
        assert str(caught.value) == "unknown field 'label' in a smooth model file"

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidModelError) as caught:
            modelio.model_from_dict({"kind": "elliptic", "dim": 2})
        assert str(caught.value) == "kind must be one of smooth, hypersurface, toric, cone, got 'elliptic'"

    def test_bad_rational_rejected(self):
        with pytest.raises(InvalidModelError) as caught:
            modelio.model_from_dict(
                {"kind": "toric", "generators": [[1]], "gorenstein_vector": ["1.5"]}
            )
        assert str(caught.value) == "gorenstein_vector: not a rational literal: '1.5'"

    def test_semantic_validation_still_runs(self):
        with pytest.raises(InvalidModelError) as caught:
            modelio.model_from_dict(
                {"kind": "toric", "generators": [[1, 0], [1, 2]], "gorenstein_vector": [1, 1]}
            )
        assert str(caught.value) == "gorenstein pairing with generator (1, 2) is 3, must be exactly 1"


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
        for text in ("[1, 2]", "[" * 100000 + "]" * 100000, '{"kind": "smooth", "dim": ' + "1" * 5000 + "}"):
            bad.write_text(text)
            with pytest.raises(InvalidModelError):
                modelio.load_model(str(bad))
        bad.write_bytes(b'{"kind": "smooth", "dim": 2, "\xff": 1}')
        with pytest.raises(InvalidModelError):
            modelio.load_model(str(bad))


# One valid document per kind, the optional flag included.  Every field gets
# each probe, goes missing, or meets an unknown neighbour; the kind gets a
# list and an object.  A case must raise InvalidModelError naming the field,
# unless it is one of the few valid documents in ACCEPTED.
BASE = {
    "smooth": {"kind": "smooth", "dim": 2},
    "hypersurface": {"kind": "hypersurface", "support": [[2, 0], [0, 3]], "allow_smooth_germ": False},
    "toric": {"kind": "toric", "generators": [[1, 0], [1, 2]], "gorenstein_vector": [1, 0]},
    "cone": {
        "kind": "cone", "base_dim": 1, "r": "2", "vol_at_zero": "1",
        "breakpoints": ["0", "1"], "pieces": [["1", "-1"]],
    },
}
PROBES = {
    "5": 5, "x": "x", "2.0": 2.0, "2.5": 2.5, "1.5-text": "1.5", "1/0": "1/0", "space-2/3": " 2/3",
    "arabic-3": "\u0663", "true": True, "null": None, "object": {}, "empty-row": [[]],
}
ACCEPTED = {
    "smooth-dim-5", "cone-base_dim-5", "cone-r-5",
    "hypersurface-allow_smooth_germ-missing", "hypersurface-allow_smooth_germ-true",
}


# well-typed values that a constructor still rejects, one for each of its rules
RULES = [
    ("cone", "breakpoints", "count", {"breakpoints": ["0", "1", "2"]}),
    ("cone", "pieces", "count", {"pieces": [["1", "-1"], ["0"]]}),
    ("cone", "breakpoints", "first-not-0", {"breakpoints": ["1", "2"]}),
    ("cone", "breakpoints", "repeated", {"breakpoints": ["0", "1", "1"], "pieces": [["1", "-1"], ["0"]]}),
    ("cone", "r", "zero", {"r": "0"}),
    ("cone", "r", "negative", {"r": "-1/2"}),
    ("hypersurface", "support", "ragged", {"support": [[2, 0], [0, 3, 1]]}),
    ("hypersurface", "support", "negative", {"support": [[2, -1], [0, 3]]}),
    ("toric", "generators", "ragged", {"generators": [[1, 0], [1]]}),
    ("toric", "generators", "zero", {"generators": [[0, 0], [1, 2]]}),
    ("toric", "generators", "not-primitive", {"generators": [[1, 0], [2, 2]]}),
    ("toric", "gorenstein_vector", "wrong-length", {"gorenstein_vector": [1, 0, 0]}),
    ("toric", "generators", "dependent", {"generators": [[1, 0], [1, 0]]}),
]


def _contract_cases():
    for kind, base in BASE.items():
        for field in base:
            if field == "kind":
                continue
            yield f"{kind}-{field}-missing", field, {k: v for k, v in base.items() if k != field}
            for name, probe in PROBES.items():
                yield f"{kind}-{field}-{name}", field, {**base, field: probe}
        yield f"{kind}-unknown-field", "extra", {**base, "extra": 1}
        yield f"{kind}-kind-list", "kind", {**base, "kind": [kind]}
        yield f"{kind}-kind-object", "kind", {**base, "kind": {}}
    yield "not-an-object", "JSON object", [BASE["smooth"]]
    for kind, field, rule, fields in RULES:
        yield f"{kind}-{field}-{rule}", field, {**BASE[kind], **fields}


CASES = list(_contract_cases())
REJECTED = [case for case in CASES if case[0] not in ACCEPTED]


@pytest.mark.parametrize("case, field, doc", CASES, ids=[c[0] for c in CASES])
def test_model_file_contract(case, field, doc):
    if case in ACCEPTED:
        model = modelio.model_from_dict(doc)
        assert modelio.model_from_dict(json.loads(modelio.dumps_canonical(model))) == model
        return
    with pytest.raises(InvalidModelError) as caught:
        modelio.model_from_dict(doc)
    assert field in str(caught.value)


@pytest.mark.parametrize("case, field, doc", REJECTED, ids=[c[0] for c in REJECTED])
def test_model_file_contract_cli(tmp_path, capsys, case, field, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    is_cone = isinstance(doc, dict) and doc.get("kind") == "cone"
    code = main(["fujita", str(path)] if is_cone else ["compute", str(path), "--weight", "1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert field in captured.err
