"""Command-line front end.

Subcommands: ``compute`` (one valuation report), ``minimize`` (search for
the minimizing weight), ``table`` (reproduce the A-D-E minimizer tables
against the embedded references), ``oracle`` (lattice-count convergence
study), ``verify`` (inequality property suites) and ``fujita`` (cone
interpolation analysis).

stdout carries machine-parseable JSON or CSV only; diagnostics go to
stderr.  Exit codes: 0 success, 2 malformed model file or usage, 3 domain
error (for example a non-klt weight), 4 minimization did not converge,
5 a table row deviates from the embedded reference, 1 other failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

from . import fujita, inequalities, lattice, modelio, optimize, tables
from .core import normalized_volume
from .exact import format_scalar, parse_rational
from .models import (
    CapacityError,
    DomainError,
    HvolError,
    InvalidModelError,
    UnsupportedModelError,
)

_EXIT_SCHEMA = 2
_EXIT_DOMAIN = 3
_EXIT_NOT_CONVERGED = 4
_EXIT_TABLE_DEVIATION = 5

_MAX_EXPONENT = 4300  # the most digits a "p/q" literal may carry
_TABLE_VALUE_RTOL = 1e-7
_TABLE_WEIGHT_ATOL = 1e-6


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (HvolError, OSError) as exc:  # OSError: an unwritable --emit-models path
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (InvalidModelError, OSError)):
            return _EXIT_SCHEMA
        if isinstance(exc, (DomainError, UnsupportedModelError, CapacityError)):
            return _EXIT_DOMAIN
        return 1
    except ValueError as exc:  # an exact value, in a result or a message, too long for str()
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: an exact value has over {sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return _EXIT_DOMAIN


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvol",
        description="normalized volumes of monomial valuations on model singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate one (model, weight) pair")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--weight", required=True, help='comma-separated rationals, e.g. "1,1,2/3"')
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("minimize", help="minimize the normalized volume over weights")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=_cmd_minimize)

    p = sub.add_parser("table", help="reproduce a family minimizer table")
    p.add_argument("--family", required=True, choices=tables.FAMILIES)
    p.add_argument("--n-range", help="inclusive range a:b")
    p.add_argument("--k-range", help="inclusive range a:b (A and D families)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-models", metavar="DIR", help="also write the model files")
    p.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("oracle", help="lattice colength convergence study")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--weight", required=True)
    p.add_argument("--radii", help='comma-separated radii, e.g. "10,100"; default schedule otherwise')
    p.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("verify", help="run the inequality property suites")
    p.add_argument("--suite", choices=("all", "thm13", "skew2", "dfem", "proper"), default="all")
    p.add_argument("--samples", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--dims", default="2:5", help="inclusive dimension range a:b")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("fujita", help="cone interpolation analysis")
    p.add_argument("cone", help="cone model JSON file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(handler=_cmd_fujita)

    return parser


# ---------------------------------------------------------------------------
# helpers


def _parse_weight(text: str, flag: str = "--weight") -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise DomainError(f"{flag} has an empty entry: {text!r}")
    out = []
    for part in parts:
        try:
            # decimal literals ("1.1", "2e-3") are read exactly; a larger exponent would
            # leave every later step minutes of arithmetic on numbers of that many digits
            decimal = "." in part or "e" in part or "E" in part
            exponent = part.lower().partition("e")[2].lstrip("+-")
            if decimal and exponent.replace("_", "").isdecimal() and int(exponent) > _MAX_EXPONENT:
                raise DomainError(f"decimal exponent of {part!r} exceeds {_MAX_EXPONENT} in size")
            out.append(Fraction(part) if decimal else parse_rational(part))
        except ValueError as exc:
            raise DomainError(str(exc)) from exc
    return tuple(out)


def _scalar_json(value):
    if value is None:
        return "unavailable"
    return format_scalar(value)


def _weight_json(weight):
    return [_scalar_json(v) for v in weight]


def _print_payload(payload, fmt: str):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _print_rows(rows, fmt: str, text_line):
    """Print rows as one JSON list, as CSV with a header, or as one ``text_line(row)`` each."""
    if fmt == "json":
        print(json.dumps(rows, indent=2))
    elif fmt == "csv":
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    else:
        for row in rows:
            print(text_line(row))


def _load(path: str, command: str):
    """The model file, which must be a cone model for ``fujita`` and a singularity otherwise."""
    model = modelio.load_model(path)
    if isinstance(model, fujita.ConeModel) != (command == "fujita"):
        want = "a cone model file" if command == "fujita" else "a singularity model, not a cone file"
        raise DomainError(f"{command} expects {want}")
    return model


def _parse_range(text):
    if text is None:
        return None
    try:
        a, b = (int(v) for v in text.split(":"))
    except ValueError as exc:
        raise DomainError(f"range must look like a:b, got {text!r}") from exc
    if b < a:
        raise DomainError(f"empty range {text!r}")
    return range(a, b + 1)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_compute(args) -> int:
    model = _load(args.model, "compute")
    weight = _parse_weight(args.weight)
    report = normalized_volume(model, weight)
    payload = {
        "log_discrepancy": _scalar_json(report.log_discrepancy),
        "volume": _scalar_json(report.volume),
        "normalized_volume": _scalar_json(report.normalized_volume),
        "ideal_value": _scalar_json(report.ideal_value),
        "skewness": _scalar_json(report.skewness),
        "dim": model.dim,
    }
    _print_payload(payload, args.format)
    return 0


def _cmd_minimize(args) -> int:
    model = _load(args.model, "minimize")
    result = optimize.minimize_hvol(model, seed=args.seed)
    payload = _minimization_payload(result)
    _print_payload(payload, args.format)
    return 0 if result.status == "converged" else _EXIT_NOT_CONVERGED


def _minimization_payload(result) -> dict:
    return {
        "weight": _weight_json(result.weight),
        "value": _scalar_json(result.value),
        "active_monomials": [list(e) for e in result.active_monomials],
        "status": result.status,
        "starts_used": result.starts_used,
    }


def _cmd_table(args) -> int:
    n_values = _parse_range(args.n_range)
    k_values = _parse_range(args.k_range)
    rows = []
    all_match = True
    for entry in tables.table_rows(args.family, n_values, k_values):
        result = optimize.minimize_hvol(entry.model, seed=args.seed)
        matches = _matches_reference(result, entry)
        all_match = all_match and matches
        rows.append(
            {
                "family": entry.family,
                "n": entry.n,
                "k": entry.k if entry.k is not None else "",
                "dim": entry.dim,
                "weight": " ".join(str(v) for v in _weight_json(result.weight)),
                "value": _scalar_json(result.value),
                "matches_reference": matches,
            }
        )
        if args.emit_models:
            os.makedirs(args.emit_models, exist_ok=True)
            stem = f"{entry.family.lower()}_n{entry.n}" + (
                f"_k{entry.k}" if entry.k is not None else ""
            )
            path = os.path.join(args.emit_models, stem + ".json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(modelio.dumps_canonical(entry.model))

    _print_rows(rows, args.format, lambda row: (
        f"{row['family']} n={row['n']}" + (f" k={row['k']}" if row["k"] != "" else "")
        + f": value={row['value']} weight=({row['weight']}) "
        + ("ok" if row["matches_reference"] else "DEVIATES")
    ))
    if not all_match:
        print("error: a table row deviates from the embedded reference", file=sys.stderr)
        return _EXIT_TABLE_DEVIATION
    return 0


def _matches_reference(result, entry) -> bool:
    value = float(result.value)
    reference = float(entry.value)
    if abs(value - reference) > _TABLE_VALUE_RTOL * abs(reference):
        return False
    got = [float(v) for v in result.weight]
    want = [float(v) for v in entry.normalized_weight()]
    if len(got) != len(want):
        return False
    return all(abs(g - w) <= _TABLE_WEIGHT_ATOL for g, w in zip(got, want))


def _cmd_oracle(args) -> int:
    model = _load(args.model, "oracle")
    weight = _parse_weight(args.weight)
    radii = None
    if args.radii:
        radii = _parse_weight(args.radii, "--radii")
    series = lattice.estimate_volume(model, weight, radii)
    rows = [
        {
            "radius": _scalar_json(r),
            "colength": c,
            "vol_estimate": _scalar_json(v),
        }
        for r, c, v in zip(series.radii, series.colengths, series.vol_estimates)
    ]
    _print_rows(rows, args.format, "r={radius}  colength={colength}  estimate={vol_estimate}".format_map)
    return 0


def _cmd_verify(args) -> int:
    dims = _parse_range(args.dims)
    verdicts = inequalities.run_suite(
        args.suite, samples=args.samples, seed=args.seed, dims=tuple(dims)
    )
    payload = [
        {
            "name": v.name,
            "samples": v.samples,
            "min_margin": v.min_margin,
            "witnesses": [_weight_json(w) for w in v.witnesses],
            "passed": v.passed,
            **({"extra": v.extra} if v.extra else {}),
        }
        for v in verdicts
    ]
    if args.format == "text":
        print("# sweeps range over monomial valuations, the family with closed forms")
    _print_rows(payload, args.format, lambda item: (
        f"{'PASS' if item['passed'] else 'FAIL'} {item['name']}: "
        f"samples={item['samples']} min_margin={item['min_margin']:.3e}"
    ))
    return 0 if all(v.passed for v in verdicts) else 1


def _cmd_fujita(args) -> int:
    model = _load(args.cone, "fujita")
    derivative = fujita.phi_prime_zero(model)
    betas = [Fraction(0), Fraction(1, 100), Fraction(1, 10), Fraction(1, 2), Fraction(1),
             Fraction(2), Fraction(10), Fraction(100), math.inf]
    payload = {
        "eta": _scalar_json(fujita.eta(model)),
        "phi_prime_zero": _scalar_json(derivative),
        "convex": fujita.convexity_check(model),
        "f0": _scalar_json(fujita.f_of_t(model, 0)),
        "f1": _scalar_json(fujita.f_of_t(model, 1)),
        "phi_samples": [["inf" if b == math.inf else _scalar_json(b), _scalar_json(fujita.phi(model, b))]
                        for b in betas],
        "phi_drops_below_start": derivative < 0,  # f is convex: f(t) >= f(0) + f'(0) t
    }
    _print_payload(payload, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
