"""Span tracing of the hvol layers, installed from outside the package.

The tracer replaces each traced function at every module binding it is
reached through (``check_weight`` is bound in ``models``, ``core``,
``lattice`` and ``optimize``; ``normalized_volume`` in ``core``, ``tables``
and the package itself) and ``ToricCone.dual_rays`` on its class.  Each
call appends one span ``(name, start_ns, end_ns, parent, error, value)``
to an in-memory list; ``value`` keeps the one number a few layers report
through their return value (solver evaluations, starts, colengths).
Nothing under ``src/`` is edited: uninstalling restores every binding.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (span name, module, attribute, class or None, observer of the return value)
TARGETS = (
    ("optimize.minimize_hvol", "optimize", "minimize_hvol", None, lambda r: r.starts_used),
    ("optimize.solver", "optimize", "_scipy_minimize", None, lambda r: int(r.nfev)),
    ("tables.reference_entry", "tables", "reference_entry", None, None),
    ("inequalities.run_suite", "inequalities", "run_suite", None, None),
    ("inequalities.thm13_margin", "inequalities", "thm13_margin", None, None),
    ("inequalities.skew2_margin", "inequalities", "skew2_margin", None, None),
    ("inequalities.dfem_margin", "inequalities", "dfem_margin", None, None),
    ("inequalities.proper_ratio", "inequalities", "proper_ratio", None, None),
    ("core.normalized_volume", "core", "normalized_volume", None, None),
    ("core.weighted_order", "core", "weighted_order", None, None),
    ("core.ideal_value", "core", "ideal_value", None, None),
    ("models.check_weight", "models", "check_weight", None, None),
    ("models.dual_rays", "models", "dual_rays", "ToricCone", None),
    ("exact.inverse_fraction", "exact", "inverse_fraction", None, None),
    ("exact.det_fraction", "exact", "det_fraction", None, None),
    ("lattice.estimate_volume", "lattice", "estimate_volume", None, lambda s: sum(s.colengths)),
    ("modelio.model_from_dict", "modelio", "model_from_dict", None, None),
    ("fujita.phi_prime_zero", "fujita", "phi_prime_zero", None, None),
    ("fujita.convexity_check", "fujita", "convexity_check", None, None),
    ("fujita.f_of_t", "fujita", "f_of_t", None, None),
)

MARGIN_SPANS = (
    "inequalities.thm13_margin",
    "inequalities.skew2_margin",
    "inequalities.dfem_margin",
    "inequalities.proper_ratio",
)

# (metric, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = (
    ("optimize.minimize_hvol.self_s", "s", "lower"),
    ("optimize.solver_calls", "count", "lower"),
    ("optimize.objective_evals", "count", "lower"),
    ("optimize.snap_evals", "count", "lower"),
    ("optimize.starts_used", "count", "lower"),
    ("tables.reference_entry.self_s", "s", "lower"),
    ("inequalities.run_suite.self_s", "s", "lower"),
    ("inequalities.margin_calls", "count", "lower"),
    ("core.normalized_volume.calls", "count", "lower"),
    ("core.normalized_volume.self_s", "s", "lower"),
    ("core.weighted_order.calls", "count", "lower"),
    ("models.check_weight.calls", "count", "lower"),
    ("models.check_weight.self_s", "s", "lower"),
    ("models.check_weight.per_nv", "calls/nv", "lower"),
    ("core.ideal_value.self_s", "s", "lower"),
    ("models.dual_rays.calls", "count", "lower"),
    ("models.dual_rays.self_s", "s", "lower"),
    ("exact.inverse_fraction.calls", "count", "lower"),
    ("exact.det_fraction.self_s", "s", "lower"),
    ("lattice.estimate_volume.self_s", "s", "lower"),
    ("lattice.points_counted", "count", "higher"),
    ("lattice.points_per_s", "1/s", "higher"),
    ("lattice.capacity_errors", "count", "lower"),
    ("lattice.attempts", "count", "higher"),
    ("modelio.model_from_dict.self_s", "s", "lower"),
    ("modelio.model_from_dict.calls", "count", "lower"),
    ("fujita.convexity_check.self_s", "s", "lower"),
    ("fujita.phi_prime_zero.self_s", "s", "lower"),
    ("fujita.f_of_t.calls", "count", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Collects spans while installed; ``with tracer:`` installs and restores."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        import hvol

        modules = [m for k, m in sorted(sys.modules.items()) if k == "hvol" or k.startswith("hvol.")]
        for name, module, attr, cls, observe in TARGETS:
            owner = getattr(hvol, module)
            if cls is not None:
                owner = getattr(owner, cls)
                self._replace(owner, attr, self._wrap(name, getattr(owner, attr), observe))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)
        return False

    def _replace(self, owner, key, wrapper):
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            error = value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    value = observe(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, error, value)

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(spans, ops: int, overhead_s: float, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see ``PER_LAYER``).

    ``scale`` converts the pass's span times to the reference speed of
    ``speed.py``, sampled before and after the pass.
    """
    child_ns = [0] * len(spans)
    under_min = [False] * len(spans)
    under_nv = [False] * len(spans)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    values: dict[str, int] = {}
    for i, (name, start, end, parent, _error, value) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            pname = spans[parent][0]
            under_min[i] = under_min[parent] or pname == "optimize.minimize_hvol"
            under_nv[i] = under_nv[parent] or pname == "core.normalized_volume"
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + end - start
        if value is not None:
            values[name] = values.get(name, 0) + value
    for i, (name, start, end, *_rest) in enumerate(spans):
        self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[i]

    def self_s(name):
        return self_ns.get(name, 0) * scale / 1e9

    nv_calls = calls.get("core.normalized_volume", 0)
    cw_under_nv = sum(
        1 for i, span in enumerate(spans) if under_nv[i] and span[0] == "models.check_weight"
    )
    snap = sum(
        1 for i, span in enumerate(spans) if under_min[i] and span[0] == "core.normalized_volume"
    )
    lattice_s = total_ns.get("lattice.estimate_volume", 0) * scale / 1e9
    points = values.get("lattice.estimate_volume", 0)
    capacity = sum(
        1 for s in spans if s[0] == "lattice.estimate_volume" and s[4] == "CapacityError"
    )
    attempts = calls.get("lattice.estimate_volume", 0)
    out = {
        "optimize.minimize_hvol.self_s": self_s("optimize.minimize_hvol"),
        "optimize.solver_calls": calls.get("optimize.solver", 0),
        "optimize.objective_evals": values.get("optimize.solver", 0),
        "optimize.snap_evals": snap,
        "optimize.starts_used": values.get("optimize.minimize_hvol", 0),
        "tables.reference_entry.self_s": self_s("tables.reference_entry"),
        "inequalities.run_suite.self_s": self_s("inequalities.run_suite"),
        "inequalities.margin_calls": sum(calls.get(n, 0) for n in MARGIN_SPANS),
        "core.normalized_volume.calls": nv_calls,
        "core.normalized_volume.self_s": self_s("core.normalized_volume"),
        "core.weighted_order.calls": calls.get("core.weighted_order", 0),
        "models.check_weight.calls": calls.get("models.check_weight", 0),
        "models.check_weight.self_s": self_s("models.check_weight"),
        "models.check_weight.per_nv": cw_under_nv / nv_calls if nv_calls else 0.0,
        "core.ideal_value.self_s": self_s("core.ideal_value"),
        "models.dual_rays.calls": calls.get("models.dual_rays", 0),
        "models.dual_rays.self_s": self_s("models.dual_rays"),
        "exact.inverse_fraction.calls": calls.get("exact.inverse_fraction", 0),
        "exact.det_fraction.self_s": self_s("exact.det_fraction"),
        "lattice.estimate_volume.self_s": self_s("lattice.estimate_volume"),
        "lattice.points_counted": points,
        "lattice.points_per_s": points / lattice_s if lattice_s else 0.0,
        "lattice.capacity_errors": capacity,
        "lattice.attempts": attempts,
        "modelio.model_from_dict.self_s": self_s("modelio.model_from_dict"),
        "modelio.model_from_dict.calls": calls.get("modelio.model_from_dict", 0),
        "fujita.convexity_check.self_s": self_s("fujita.convexity_check"),
        "fujita.phi_prime_zero.self_s": self_s("fujita.phi_prime_zero"),
        "fujita.f_of_t.calls": calls.get("fujita.f_of_t", 0),
        "trace.ops": ops,
        "trace.overhead_s": overhead_s,
    }
    if list(out) != [m for m, _u, _b in PER_LAYER]:
        raise RuntimeError("layer_metrics and PER_LAYER disagree")
    return out


def count_metrics(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly between traced passes of one seed."""
    units = {m: u for m, u, _b in PER_LAYER}
    return {k: v for k, v in metrics.items() if units[k] in ("count", "calls/nv")}
