"""Inequality sweeps: frozen examples, exact identities, witness reproducibility."""

import json
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvol import SmoothPoint, a_singularity, run_suite, skewness_s
from hvol import inequalities
from hvol.inequalities import (
    _kernel,
    _numerators,
    check_dfem,
    check_properness_ratio,
    check_skewness_identity_dim2,
    check_theorem13,
    dfem_margin,
    proper_ratio,
    sample_weight,
    skew2_margin,
    thm13_margin,
)
from hvol.models import (
    DomainError,
    Hypersurface,
    InternalConsistencyError,
    NonKltWeightError,
    UnsupportedModelError,
    orthant_cone,
)

GOLDEN = Path(__file__).parent / "data" / "sweep_golden.json"
ROUTES = {
    "thm13": thm13_margin,
    "skew2": lambda _model, x: skew2_margin(x),
    "dfem": dfem_margin,
    "proper": proper_ratio,
}


class TestSkewnessBracket:
    def test_uniform_floor(self):
        assert skewness_s((F(1), F(1))) == 2

    def test_ceiling(self):
        assert skewness_s((F(1), F(7, 2))) == 4

    def test_integer_ratio(self):
        assert skewness_s((F(1), F(2), F(5))) == 5

    def test_scale_free(self):
        assert skewness_s((F(3), F(21, 2))) == skewness_s((F(1), F(7, 2)))


class TestMargins:
    def test_thm13_uniform(self):
        # all ratios 1: the bound's slack is 1 - 2^{-n}
        margin = thm13_margin(SmoothPoint(3), (F(1), F(1), F(1)))
        assert margin == 1 - F(1, 8)

    def test_thm13_spot(self):
        # sorted (1, 2, 4): LHS = 16 * 1/8 = 2, sixteen times the bound
        margin = thm13_margin(SmoothPoint(3), (F(1), F(2), F(4)))
        assert margin == 2 - F(1, 8)
        assert (margin + F(1, 8)) / F(1, 8) == 16

    def test_skew2_exact(self):
        assert skew2_margin((F(1), F(1))) == 0
        assert skew2_margin((F(1), F(3))) == 0
        # vol = 1/3 = 1/(max*min) on (1, 3)

    def test_dfem_spot(self):
        assert dfem_margin(SmoothPoint(3), (F(1), F(2), F(3))) == F(36, 27) - 1

    def test_proper_ratio_uniform(self):
        # n^n * 1 / n = n^(n-1)
        for n in (2, 3, 4):
            assert proper_ratio(SmoothPoint(n), (F(1),) * n) == n ** (n - 1)

    def test_proper_ratio_smooth_chain(self):
        # the displayed chain with constant 1
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = sample_weight(rng, 3)
            assert proper_ratio(SmoothPoint(3), x) >= 1


class TestSweeps:
    def test_thm13_sweep(self):
        v = check_theorem13(SmoothPoint(3), samples=500, seed=1)
        assert v.passed and v.min_margin >= 0

    def test_skew2_sweep_exact(self):
        v = check_skewness_identity_dim2(samples=500, seed=2)
        assert v.passed
        assert v.min_margin_exact == 0

    def test_dfem_sweep(self):
        v = check_dfem(SmoothPoint(4), samples=500, seed=3)
        assert v.passed and v.min_margin >= 0

    def test_proper_sweep_smooth(self):
        v = check_properness_ratio(SmoothPoint(3), samples=500, seed=4)
        assert v.passed
        assert v.extra["k_hat"] >= 1
        assert v.extra["drift"] <= 0.05

    def test_proper_sweep_hypersurface(self):
        v = check_properness_ratio(a_singularity(2, 2), samples=500, seed=5)
        assert v.passed
        assert v.extra["k_hat"] > 0

    def test_witness_reproduces_margin(self):
        v = check_theorem13(SmoothPoint(4), samples=300, seed=6)
        assert thm13_margin(SmoothPoint(4), v.witnesses[0]) == v.min_margin_exact
        v = check_dfem(SmoothPoint(3), samples=300, seed=7)
        assert dfem_margin(SmoothPoint(3), v.witnesses[0]) == v.min_margin_exact
        v = check_skewness_identity_dim2(samples=300, seed=8)
        assert skew2_margin(v.witnesses[0]) == v.min_margin_exact
        v = check_properness_ratio(SmoothPoint(3), samples=300, seed=9)
        assert float(proper_ratio(SmoothPoint(3), v.witnesses[0])) == v.extra["k_hat"]

    def test_determinism(self):
        a = check_theorem13(SmoothPoint(3), samples=200, seed=11)
        b = check_theorem13(SmoothPoint(3), samples=200, seed=11)
        assert a == b

    def test_run_suite_names(self):
        verdicts = run_suite("skew2", samples=100, seed=0, dims=(2, 3))
        assert [v.name for v in verdicts] == ["skew2-identity"]
        with pytest.raises(DomainError):
            run_suite("bogus", samples=10)

    def test_all_suites_small(self):
        verdicts = run_suite("all", samples=200, seed=20260810, dims=(2, 3))
        assert all(v.passed for v in verdicts)
        names = {v.name for v in verdicts}
        assert "thm13-smooth-n2" in names
        assert "proper-hypersurface-dim3" in names


class TestSampler:
    def test_exactness_and_box(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = sample_weight(rng, 4)
            assert all(isinstance(v, F) for v in x)
            assert all(F(1, 1000) <= v <= F(1000) for v in x)

    def test_corners_are_hit(self):
        rng = np.random.default_rng(1)
        lows = highs = 0
        for _ in range(500):
            x = sample_weight(rng, 2)
            lows += sum(v == F(1, 1000) for v in x)
            highs += sum(v == F(1000) for v in x)
        assert lows > 100 and highs > 100

    def test_batched_draws_match_per_sample_draws(self, monkeypatch):
        # a small chunk makes the batched draws cross several chunk boundaries
        monkeypatch.setattr(inequalities, "_CHUNK", 7)
        for seed in range(20):
            for dim in range(2, 7):
                batched = [
                    tuple(F(q, 10**6) for q in p)
                    for p in _numerators(np.random.default_rng(seed), 40, dim)
                ]
                rng = np.random.default_rng(seed)
                reference = [_reference_draw(rng, dim) for _ in range(40)]
                assert batched == reference
                rng = np.random.default_rng(seed)
                assert [sample_weight(rng, dim) for _ in range(40)] == reference


def _reference_draw(rng, dim):
    """The sampler's distribution, drawn one coordinate pair at a time."""
    rolls = rng.uniform(0.0, 1.0, size=dim)
    exps = rng.uniform(math.log10(1 / 1000), math.log10(1000.0), size=dim)
    out = []
    for roll, e in zip(rolls, exps):
        if roll < 0.3:
            out.append(F(1, 1000))
        elif roll < 0.6:
            out.append(F(1000))
        else:
            out.append(F(round(10.0**e * 10**6), 10**6))
    return tuple(out)


class TestGolden:
    """Full verdicts frozen from the per-sample Fraction implementation of the sweeps."""

    @pytest.mark.parametrize(
        "case", json.loads(GOLDEN.read_text()), ids=lambda c: f"{c['suite']}-{c['samples']}-{c['seed']}"
    )
    def test_verdicts_bit_for_bit(self, case):
        verdicts = run_suite(case["suite"], case["samples"], case["seed"], dims=tuple(case["dims"]))
        assert len(verdicts) == len(case["verdicts"])
        for got, want in zip(verdicts, case["verdicts"]):
            assert got.name == want["name"]
            assert got.samples == want["samples"]
            assert got.min_margin_exact == F(want["min_margin_exact"])
            assert got.min_margin == float(F(want["min_margin_exact"]))
            assert got.witnesses == tuple(tuple(F(c) for c in w) for w in want["witnesses"])
            assert got.passed == want["passed"]
            assert got.extra == want["extra"]


KERNEL_CASES = (
    [("thm13", SmoothPoint(n)) for n in range(2, 6)]
    + [("dfem", SmoothPoint(n)) for n in range(2, 6)]
    + [("skew2", SmoothPoint(2))]
    + [("proper", SmoothPoint(n)) for n in range(2, 6)]
    + [("proper", a_singularity(n, 2)) for n in range(2, 6)]
)


class TestIntegerKernel:
    @pytest.mark.parametrize(
        "suite, model", KERNEL_CASES, ids=[f"{s}-{m.kind}-n{m.dim}" for s, m in KERNEL_CASES]
    )
    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(data=st.data())
    def test_kernel_equals_fraction_route(self, suite, model, data):
        p = data.draw(st.tuples(*[st.integers(1, 10**12)] * model.ambient_dim))
        num, den = _kernel(suite, model)(p)
        assert den > 0
        assert F(num, den) == ROUTES[suite](model, tuple(F(q, 10**6) for q in p))

    def test_non_klt_weight_raises_as_before(self):
        quartic = Hypersurface(((4, 0, 0), (0, 4, 0), (0, 0, 4)))
        with pytest.raises(NonKltWeightError):
            _kernel("proper", quartic)((1, 1, 1))
        with pytest.raises(NonKltWeightError):
            check_properness_ratio(quartic, samples=50, seed=0)

    def test_toric_cone_uses_fraction_route(self):
        # the orthant's ratio equals the smooth one at every weight
        toric = check_properness_ratio(orthant_cone(2), samples=100, seed=3)
        smooth = check_properness_ratio(SmoothPoint(2), samples=100, seed=3)
        assert toric.witnesses == smooth.witnesses
        assert toric.extra == smooth.extra

    def test_cross_route_mismatch_raises(self, monkeypatch):
        monkeypatch.setitem(inequalities._ROUTES, "dfem", lambda model, x: dfem_margin(model, x) + 1)
        with pytest.raises(InternalConsistencyError):
            check_dfem(SmoothPoint(3), samples=20, seed=0)

    def test_smooth_only_suites_reject_other_models(self):
        with pytest.raises(UnsupportedModelError):
            check_theorem13(a_singularity(2, 2), samples=10)

    def test_empty_sweep_is_a_domain_error(self):
        with pytest.raises(DomainError):
            check_dfem(SmoothPoint(2), samples=0)
