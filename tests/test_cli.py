"""CLI surface: payload shapes, exact serialization, exit codes, round-trips."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from hvol import Hypersurface, a_singularity, d_singularity, e_singularity, optimize
from hvol.cli import main
from hvol.fujita import ConeModel, VolumeCurve, negative_eta_cone, projective_space_cone
from hvol.modelio import dumps_canonical
from hvol.models import SmoothPoint

FUJITA_GOLDEN = json.loads((Path(__file__).parent / "data" / "fujita_golden.json").read_text())
CLI_GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


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
        quartic = write_model(
            tmp_path, "quartic.json", Hypersurface(((4, 0, 0), (0, 4, 0), (0, 0, 4)))
        )
        code, _, err = run(capsys, ["compute", quartic, "--weight", "1,1,1"])
        assert code == 3
        assert "klt" in err

    def test_decimal_weight_is_exact(self, tmp_path, capsys):
        path = write_model(tmp_path, "s2.json", SmoothPoint(2))
        decimal = run(capsys, ["compute", path, "--weight", "0.5,1"])
        fraction = run(capsys, ["compute", path, "--weight", "1/2,1"])
        assert decimal[0] == 0
        assert decimal == fraction

    @pytest.mark.parametrize("weight", ["1.2.3,1", "1e,1"])
    def test_malformed_decimal_exit_3(self, tmp_path, capsys, weight):
        path = write_model(tmp_path, "s2.json", SmoothPoint(2))
        code, out, err = run(capsys, ["compute", path, "--weight", weight])
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("weight", ["1e-5000,1", "1/1" + "0" * 4299 + ",1", "1e-4300,0"],
                             ids=["decimal-exponent", "long-result", "long-message"])
    def test_unprintable_exact_value_exit_3(self, tmp_path, capsys, weight):
        # past Python's 4300-digit int-to-str limit: an exponent too large to read,
        # a normalized volume of 8600 digits, and an error message that quotes 10^4300
        path = write_model(tmp_path, "s2.json", SmoothPoint(2))
        code, out, err = run(capsys, ["compute", path, "--weight", weight])
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_huge_decimal_exponent_exits_at_once(self, tmp_path):
        # 1e-2000000 read exactly would leave minutes of two-million-digit arithmetic
        path = write_model(tmp_path, "s2.json", SmoothPoint(2))
        proc = subprocess.run(
            [sys.executable, "-m", "hvol", "compute", path, "--weight", "1e-2000000,1"],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("weight", ["1,,1", "1,1,", ",1,1", "1, ,1", ","])
    def test_empty_weight_entry_exit_3(self, tmp_path, capsys, weight):
        # an empty entry is an error, not a shorter weight: "1,,1" read as (1, 1) before
        path = write_model(tmp_path, "s2.json", SmoothPoint(2))
        code, out, err = run(capsys, ["compute", path, "--weight", weight])
        assert (code, out) == (3, "")
        assert err.startswith("error: --weight has an empty entry") and err.count("\n") == 1

    def test_weight_length_error(self, tmp_path, capsys):
        path = write_model(tmp_path, "s2.json", SmoothPoint(2))
        code, _, _ = run(capsys, ["compute", path, "--weight", "1,1,1"])
        assert code == 3


CONE_DOC = {
    "kind": "cone", "base_dim": 1, "r": "2", "vol_at_zero": "1", "breakpoints": ["0", "1"], "pieces": [["1", "-1"]],
}
TORIC_DOC = {"kind": "toric", "generators": [[1, 0], [0, 1]], "gorenstein_vector": [1, 1]}
MALFORMED = {  # field-value: (command, document)
    "r-2.0": ("fujita", {**CONE_DOC, "r": 2.0}),
    "vol_at_zero-2.0": ("fujita", {**CONE_DOC, "vol_at_zero": 2.0}),
    "r-1/0": ("fujita", {**CONE_DOC, "r": "1/0"}),
    "vol_at_zero-1/0": ("fujita", {**CONE_DOC, "vol_at_zero": "1/0"}),
    "pieces-1/0": ("fujita", {**CONE_DOC, "pieces": [["1", "1/0"]]}),
    "gorenstein_vector-1/0": ("compute", {**TORIC_DOC, "gorenstein_vector": [1, "1/0"]}),
}


class TestMalformedModelFile:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_exit_2_with_one_error_line(self, tmp_path, capsys, case):
        command, doc = MALFORMED[case]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)] + (["--weight", "1,1"] if command == "compute" else [])
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert case.split("-")[0] in err


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

    def test_denominator_past_128(self, tmp_path, capsys):
        path = write_model(tmp_path, "a257.json", a_singularity(2, 257))
        code, out, _ = run(capsys, ["minimize", path])
        assert code == 0
        payload = json.loads(out)
        assert payload["weight"] == ["1", "1", "2/257"]
        assert payload["value"] == "4/257"

    def test_non_klt_model_exit_3(self, tmp_path, capsys):
        for support in [((3, 0, 0), (0, 3, 0), (0, 0, 3)), ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0))]:
            path = write_model(tmp_path, "cubic.json", Hypersurface(support))
            code, out, err = run(capsys, ["minimize", path, "--seed", "1"])
            assert (code, out) == (3, "")
            assert err.startswith("error: the germ is not klt: ") and err.count("\n") == 1

    @pytest.fixture
    def no_root(self, monkeypatch):
        # klt models whose strata yield no root, forced by dropping the exact
        # vertex and one-unknown roots and reporting every Newton run unconverged
        newton, vertex_roots, univariate_roots = optimize._newton, optimize._vertex_roots, optimize._univariate_roots

        def unconverged(*args):
            mu, s, found, stalled = newton(*args)
            return mu, s, found & False, stalled & False

        monkeypatch.setattr(optimize, "_newton", unconverged)
        monkeypatch.setattr(optimize, "_vertex_roots", lambda *args: vertex_roots(*args)[:0])
        monkeypatch.setattr(optimize, "_univariate_roots", lambda *args: ([], univariate_roots(*args)[1]))

    def test_non_convergence_exit_4(self, tmp_path, capsys):
        # x^3749 + y^34 + z^298140 + w^16 + yw: no stratum has a root that the solve reaches
        support = ((3749, 0, 0, 0), (0, 34, 0, 0), (0, 0, 298140, 0), (0, 0, 0, 16), (0, 1, 0, 1))
        path = write_model(tmp_path, "noroot.json", Hypersurface(support))
        code, out, _ = run(capsys, ["minimize", path, "--seed", "1"])
        assert code == 4
        payload = json.loads(out)
        assert (payload["status"], payload["weight"], payload["value"]) == ("not-converged", ["1"] * 4, "16")

    def test_no_root_is_not_converged_at_a_stationary_weight(self, tmp_path, capsys, no_root):
        # (1, 1, 1) is stationary on x^2 + y^2 + z^2, but no stratum root
        # stands behind it
        path = write_model(tmp_path, "a22.json", a_singularity(2, 2))
        code, out, _ = run(capsys, ["minimize", path])
        payload = json.loads(out)
        assert (code, payload["status"], payload["weight"]) == (4, "not-converged", ["1"] * 3)

    @pytest.mark.parametrize(
        "command, flag", [("minimize", "--tolerance"), ("minimize", "--starts"), ("table", "--starts")]
    )
    def test_removed_flags_exit_2(self, tmp_path, command, flag):
        target = [write_model(tmp_path, "a22.json", a_singularity(2, 2))] if command == "minimize" else ["--family", "E7"]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *target, flag, "3"])
        assert exit_info.value.code == 2

    def test_huge_exponent_exit_3(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"kind": "hypersurface", "support": [[2, 0, 0], [0, 2, 0], [0, 0, 10**400]]}))
        code, out, err = run(capsys, ["minimize", str(path)])
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "2^53" in err and err.count("\n") == 1

    def test_boundary_payload_is_strict_json(self, tmp_path, capsys, no_root):
        # the exit-4 payload of a run that found no root stays strict JSON
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        for name, model in [("e7.json", e_singularity(7, 2)), ("d24.json", d_singularity(2, 4))]:
            path = write_model(tmp_path, name, model)
            code, out, _ = run(capsys, ["minimize", path, "--seed", "1"])
            assert code == 4
            payload = json.loads(out, parse_constant=reject)
            assert payload["status"] == "not-converged"


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

    def test_deviating_row_exit_5(self, monkeypatch, capsys):
        real = optimize.minimize_hvol

        def off_by_one(model, **kwargs):
            result = real(model, **kwargs)
            return dataclasses.replace(result, value=result.value + 1)

        monkeypatch.setattr(optimize, "minimize_hvol", off_by_one)
        code, out, err = run(capsys, ["table", "--family", "E7", "--n-range", "1:2"])
        assert code == 5
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["matches_reference"] for r in rows] == ["False", "False"]
        assert err == "error: a table row deviates from the embedded reference\n"

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

    def test_unwritable_emit_models_is_usage_error(self, tmp_path, capsys):
        blocker = tmp_path / "FILE"
        blocker.write_text("")
        code, out, err = run(
            capsys,
            ["table", "--family", "E6", "--n-range", "1:1", "--emit-models", str(blocker / "sub")],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

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

    def test_decimal_weight_is_exact(self, tmp_path, capsys):
        # 1.1 read as a float would clear to the denominator 2**51 and exceed capacity
        path = write_model(tmp_path, "s2.json", SmoothPoint(2))
        decimal = run(capsys, ["oracle", path, "--weight", "1.1,2"])
        fraction = run(capsys, ["oracle", path, "--weight", "11/10,2"])
        assert decimal[0] == 0
        assert decimal == fraction

    @pytest.mark.parametrize("flag, weight, radii", [("--radii", "1,1", ","), ("--radii", "1,1", "10,,100"),
                                                     ("--weight", ",1,1", "10")])
    def test_empty_entry_exit_3(self, tmp_path, capsys, flag, weight, radii):
        path = write_model(tmp_path, "s2.json", SmoothPoint(2))
        code, out, err = run(capsys, ["oracle", path, "--weight", weight, "--radii", radii])
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {flag} has an empty entry") and err.count("\n") == 1

    @pytest.mark.parametrize("radii", ["1e-2000000", "1e+4301", "1e9_999_999"])
    def test_huge_decimal_radius_exit_3(self, tmp_path, capsys, radii):
        path = write_model(tmp_path, "s2.json", SmoothPoint(2))
        code, out, err = run(capsys, ["oracle", path, "--weight", "1,1", "--radii", radii])
        assert code == 3 and out == ""
        assert err.startswith("error:") and "exponent" in err

    def test_capacity_error_is_one_short_line(self, tmp_path, capsys):
        # the scaled radius at weight 1e-4000 has about 4000 digits; the message names the cap instead
        path = write_model(tmp_path, "s2.json", SmoothPoint(2))
        code, out, err = run(capsys, ["oracle", path, "--weight", "1e-4000,1"])
        assert code == 3 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and len(err.encode()) < 200
        assert "Traceback" not in err

    def test_count_capacity_error_is_one_short_line(self, tmp_path, capsys):
        # the count estimate at radius 10^5 in 3000 variables has over 4300 digits; the message names the cap
        path = write_model(tmp_path, "s3000.json", SmoothPoint(3000))
        code, out, err = run(capsys, ["oracle", path, "--weight", ",".join(["1"] * 3000), "--radii", "100000"])
        assert code == 3 and out == ""
        assert err.startswith("error: count estimate") and err.count("\n") == 1 and len(err.encode()) < 200
        assert "Traceback" not in err

    def test_rank_three_toric_default_radii(self, tmp_path, capsys):
        from hvol import ToricCone

        cone = ToricCone(((1, 0, 0), (0, 1, 0), (1, 1, 3)), (F(1), F(1), F(-1, 3)))
        path = write_model(tmp_path, "cone3.json", cone)
        code, out, _ = run(capsys, ["oracle", path, "--weight", "2,2,3"])
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(out)))) == 8


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

    @pytest.mark.parametrize(
        "suite, dims, message",
        [
            ("proper", "1:1", "dims must be integers >= 2 for suite 'proper', got 1"),
            ("proper", "0:1", "dims must be integers >= 2 for suite 'proper', got 0"),
            ("thm13", "0:1", "dims must be integers >= 1 for suite 'thm13', got 0"),
        ],
    )
    def test_bad_dims_exit_3(self, capsys, suite, dims, message):
        code, out, err = run(capsys, ["verify", "--suite", suite, "--dims", dims, "--samples", "10"])
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_negative_seed_exit_3(self, capsys):
        argv = ["verify", "--suite", "thm13", "--samples", "10", "--dims", "2:2", "--seed", "-5000"]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (3, "", "error: seed must be an integer >= 0, got -5000\n")


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

    def test_grid_flag_removed_exit_2(self, tmp_path):
        path = write_model(tmp_path, "p1.json", projective_space_cone(2))
        with pytest.raises(SystemExit) as exit_info:
            main(["fujita", path, "--grid", "101"])
        assert exit_info.value.code == 2

    def test_drop_just_past_the_first_sample(self, tmp_path, capsys):
        # curve 1 - x/tau at tau = 1001/1000: phi(1/10^4) < phi(0), but phi(1/100) > phi(0)
        tau = F(1001, 1000)
        curve = VolumeCurve(breakpoints=(F(0), tau), pieces=((F(1), -1 / tau),), vol_at_zero=F(1))
        code, out, _ = run(capsys, ["fujita", write_model(tmp_path, "tau.json", ConeModel(1, F(2), curve))])
        assert code == 0
        payload = json.loads(out)
        assert payload["phi_prime_zero"] == "-1/250"
        assert payload["phi_drops_below_start"] is True

    def test_huge_r_exit_0(self, tmp_path, capsys):
        # r = 10^400: f is past the float range, and nothing converts it to a float
        cone = ConeModel(1, F(10**400), projective_space_cone(2).curve)
        code, out, err = run(capsys, ["fujita", write_model(tmp_path, "huge.json", cone)])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["convex"] is True
        assert payload["phi_drops_below_start"] is True

    def test_large_tau_cone(self, tmp_path, capsys):
        # curve 1 - x/10^4: the finite-difference check of phi'(0) must hold
        tau = F(10**4)
        curve = VolumeCurve(breakpoints=(F(0), tau), pieces=((F(1), -1 / tau),), vol_at_zero=F(1))
        cone = ConeModel(base_dim=1, r=F(2), curve=curve)
        code, out, _ = run(capsys, ["fujita", write_model(tmp_path, "tau.json", cone)])
        assert code == 0
        assert json.loads(out)["phi_prime_zero"] == "-39996"

    @pytest.mark.parametrize(
        "case",
        FUJITA_GOLDEN["runs"],
        ids=[f"{c['cone']}-grid{c['grid']}-{c['format']}" for c in FUJITA_GOLDEN["runs"]],
    )
    def test_golden_output(self, tmp_path, capsys, case):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(case["model"]))
        # the golden runs also record the removed --grid; every grid gave the same stdout
        argv = ["fujita", str(path), "--format", case["format"]]
        code, out, _ = run(capsys, argv)
        assert (code, out) == (case["exit"], case["stdout"])


@pytest.mark.parametrize(
    "case",
    CLI_GOLDEN["runs"],
    ids=[f"{i}-" + " ".join(a for a in c["argv"] if a != "{model}") for i, c in enumerate(CLI_GOLDEN["runs"])],
)
def test_cli_golden(tmp_path, capsys, case):
    """stdout bytes, exit code and the stderr error line of every subcommand and format."""
    path = tmp_path / "model.json"
    if case["model"] is not None:
        path.write_text(json.dumps(case["model"]))
    argv = [str(path) if a == "{model}" else a for a in case["argv"]]
    code, out, err = run(capsys, argv)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert "Traceback" not in err
    assert (code, out, errors) == (case["exit"], case["stdout"], [case["error"]] if case["error"] else [])


class TestModuleEntryPoint:
    def test_python_m_hvol_help(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "hvol", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: hvol")

    def test_fresh_interpreter_loads_no_scipy(self):
        # scipy is a test dependency only: importing the package and running the
        # hypersurface minimizer's Newton path must not pull it in
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            "import hvol, hvol.cli, hvol.modelio\n"
            "result = hvol.minimize_hvol(hvol.Hypersurface(((2, 0, 0), (0, 2, 0), (0, 0, 3))))\n"
            "assert result.status == 'converged', result.status\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
