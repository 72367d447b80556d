"""CLI surface: payload shapes, exact serialization, exit codes, round-trips."""

import csv
import io
import json
from fractions import Fraction as F

import pytest

from hvol import a_singularity, e_singularity
from hvol.cli import main
from hvol.fujita import negative_eta_cone, projective_space_cone
from hvol.modelio import dumps_canonical
from hvol.models import SmoothPoint


def write_model(tmp_path, name, model):
    path = tmp_path / name
    path.write_text(dumps_canonical(model))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_smooth_27(self, tmp_path, capsys):
        path = write_model(tmp_path, "s3.json", SmoothPoint(3))
        code, out, _ = run(capsys, ["compute", path, "--weight", "1,1,1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["normalized_volume"] == "27"
        assert payload["skewness"] == "1"

    def test_surface_a2(self, tmp_path, capsys):
        path = write_model(tmp_path, "a22.json", a_singularity(2, 3))
        code, out, _ = run(capsys, ["compute", path, "--weight", "1,1,2/3"])
        assert code == 0
        assert json.loads(out)["normalized_volume"] == "4/3"

    def test_quadric_threefold(self, tmp_path, capsys):
        path = write_model(tmp_path, "a31.json", a_singularity(3, 2))
        code, out, _ = run(capsys, ["compute", path, "--weight", "1,1,1,1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["normalized_volume"] == "16"
        assert payload["skewness"] == "unavailable"

    def test_schema_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "smooth", "dim": 2, "oops": 1}')
        code, _, err = run(capsys, ["compute", str(bad), "--weight", "1,1"])
        assert code == 2
        assert "error" in err

    def test_domain_error_exit_3(self, tmp_path, capsys):
        from hvol import Hypersurface

        quartic = write_model(
            tmp_path, "quartic.json", Hypersurface(((4, 0, 0), (0, 4, 0), (0, 0, 4)))
        )
        code, _, err = run(capsys, ["compute", quartic, "--weight", "1,1,1"])
        assert code == 3
        assert "klt" in err

    def test_weight_length_error(self, tmp_path, capsys):
        path = write_model(tmp_path, "s2.json", SmoothPoint(2))
        code, _, _ = run(capsys, ["compute", path, "--weight", "1,1,1"])
        assert code == 3


class TestMinimize:
    def test_smooth(self, tmp_path, capsys):
        path = write_model(tmp_path, "s2.json", SmoothPoint(2))
        code, out, _ = run(capsys, ["minimize", path, "--seed", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "4"
        assert payload["weight"] == ["1", "1"]
        assert payload["status"] == "converged"

    def test_e6_surface(self, tmp_path, capsys):
        path = write_model(tmp_path, "e6.json", e_singularity(6, 2))
        code, out, _ = run(capsys, ["minimize", path, "--seed", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == "343/36"
        assert payload["weight"] == ["1", "1", "2/3", "1/2"]

    def test_e8_surface(self, tmp_path, capsys):
        path = write_model(tmp_path, "e8.json", e_singularity(8, 2))
        code, out, _ = run(capsys, ["minimize", path, "--seed", "1"])
        assert code == 0
        assert json.loads(out)["value"] == "2048/225"

    def test_non_convergence_exit_4(self, tmp_path, capsys):
        from hvol import Hypersurface

        cubic = write_model(
            tmp_path, "cubic.json", Hypersurface(((3, 0, 0), (0, 3, 0), (0, 0, 3)))
        )
        code, out, _ = run(capsys, ["minimize", cubic, "--seed", "1"])
        assert code == 4
        assert json.loads(out)["status"] == "boundary-suspect"

    def test_boundary_payload_is_strict_json(self, tmp_path, capsys):
        from hvol import Hypersurface

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        for name, support in [
            ("cubic.json", ((3, 0, 0), (0, 3, 0), (0, 0, 3))),
            ("cubic4.json", ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0))),
        ]:
            path = write_model(tmp_path, name, Hypersurface(support))
            code, out, _ = run(capsys, ["minimize", path, "--seed", "1"])
            assert code == 4
            payload = json.loads(out, parse_constant=reject)
            assert payload["status"] == "boundary-suspect"


class TestTable:
    def test_a_family_surface_column(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            ["table", "--family", "A", "--n-range", "2:2", "--k-range", "1:5", "--seed", "1"],
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["value"] for r in rows] == ["4", "2", "4/3", "1", "4/5"]
        assert all(r["matches_reference"] == "True" for r in rows)

    def test_emit_models_round_trip(self, tmp_path, capsys):
        out_dir = tmp_path / "models"
        code, out, _ = run(
            capsys,
            [
                "table", "--family", "E7", "--n-range", "2:2",
                "--seed", "1", "--emit-models", str(out_dir),
            ],
        )
        assert code == 0
        emitted = sorted(out_dir.glob("*.json"))
        assert len(emitted) == 1
        text = emitted[0].read_text()
        from hvol.modelio import load_model

        model = load_model(str(emitted[0]))
        assert dumps_canonical(model) == text

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["table", "--family", "D", "--n-range", "1:1", "--k-range", "3:4",
             "--seed", "1", "--format", "json"],
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["value"] == "1/2"
        assert rows[1]["value"] == "1/3"


class TestOracle:
    def test_smooth_row(self, tmp_path, capsys):
        path = write_model(tmp_path, "s2.json", SmoothPoint(2))
        code, out, _ = run(capsys, ["oracle", path, "--weight", "1,1", "--radii", "100"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["colength"] == "5050"
        assert rows[0]["vol_estimate"] == "101/100"

    def test_quadric_row(self, tmp_path, capsys):
        path = write_model(tmp_path, "a21.json", a_singularity(2, 2))
        code, out, _ = run(capsys, ["oracle", path, "--weight", "1,1,1", "--radii", "10"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["colength"] == "100"
        assert rows[0]["vol_estimate"] == "2"

    def test_toric_equals_smooth(self, tmp_path, capsys):
        from hvol import orthant_cone

        path = write_model(tmp_path, "quadrant.json", orthant_cone(2))
        code, out, _ = run(capsys, ["oracle", path, "--weight", "1,1", "--radii", "100"])
        assert code == 0
        assert list(csv.DictReader(io.StringIO(out)))[0]["colength"] == "5050"


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--suite", "skew2", "--samples", "200", "--seed", "7"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["passed"] is True

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--suite", "dfem", "--samples", "100", "--seed", "7",
             "--dims", "2:3", "--format", "text"],
        )
        assert code == 0
        assert out.count("PASS") == 2


class TestFujita:
    def test_p1_cone(self, tmp_path, capsys):
        path = write_model(tmp_path, "p1.json", projective_space_cone(2))
        code, out, _ = run(capsys, ["fujita", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] == "0"
        assert payload["f0"] == "4"
        assert payload["f1"] == "9/2"
        assert payload["convex"] is True
        assert payload["phi_drops_below_start"] is False

    def test_p3_cone(self, tmp_path, capsys):
        path = write_model(tmp_path, "p3.json", projective_space_cone(4))
        code, out, _ = run(capsys, ["fujita", path])
        assert code == 0
        assert json.loads(out)["f0"] == "256"

    def test_negative_eta_cone(self, tmp_path, capsys):
        path = write_model(tmp_path, "neg.json", negative_eta_cone())
        code, out, _ = run(capsys, ["fujita", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["phi_prime_zero"] == "-4"
        assert payload["phi_drops_below_start"] is True

    def test_wrong_model_kind(self, tmp_path, capsys):
        path = write_model(tmp_path, "s2.json", SmoothPoint(2))
        code, _, _ = run(capsys, ["fujita", path])
        assert code == 3
