"""Lattice oracle: exact counts against brute force, convergence to closed forms."""

import functools
import itertools
import json
import math
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvol import (
    CapacityError,
    DomainError,
    SmoothPoint,
    ToricCone,
    a_singularity,
    default_radii,
    estimate_volume,
    ideal_value,
    orthant_cone,
    volume,
)
from hvol import lattice
from hvol.lattice import DEFAULT_RADIUS_MULTIPLIERS, _smooth_counts, colength
from hvol.modelio import model_from_dict

CONE3 = ToricCone(((1, 0, 0), (0, 1, 0), (1, 1, 3)), (F(1), F(1), F(-1, 3)))


def brute_count_smooth(x, r):
    """Independent oracle: direct nested enumeration of the simplex."""
    n = len(x)

    def rec(depth, remaining):
        if remaining <= 0:
            return 0
        if depth == n - 1:
            # non-negative integers e with e * x < remaining
            return math.ceil(remaining / x[depth])
        total = 0
        e = 0
        while e * x[depth] < remaining:
            total += rec(depth + 1, remaining - e * x[depth])
            e += 1
        return total

    return rec(0, F(r))


class TestSmoothCount:
    def test_triangle_5050(self):
        assert colength(SmoothPoint(2), (F(1), F(1)), 100) == 5050

    def test_line_segment(self):
        assert colength(SmoothPoint(1), (F(1),), 5) == 5

    def test_hand_enumeration(self):
        # points with e1 + 2 e2 < 4: (0,0),(1,0),(2,0),(3,0),(0,1),(1,1)
        assert colength(SmoothPoint(2), (F(1), F(2)), 4) == 6

    @pytest.mark.parametrize("x", [(F(1), F(1)), (F(1), F(2)), (F(2, 3), F(5, 4)), (F(3), F(1, 2))])
    @pytest.mark.parametrize("r", [F(1), F(7, 2), F(5), F(12)])
    def test_matches_brute_force_2d(self, x, r):
        assert colength(SmoothPoint(2), x, r) == brute_count_smooth(x, r)

    @pytest.mark.parametrize("x", [(F(1), F(1), F(1)), (F(1, 2), F(1), F(3, 2)), (F(2), F(3), F(5, 4))])
    @pytest.mark.parametrize("r", [F(3), F(13, 3), F(9)])
    def test_matches_brute_force_3d(self, x, r):
        assert colength(SmoothPoint(3), x, r) == brute_count_smooth(x, r)

    def test_strictness_of_inequality(self):
        # r equal to an attained value excludes that layer
        assert colength(SmoothPoint(1), (F(1),), 5) == 5
        assert colength(SmoothPoint(1), (F(1),), F(11, 2)) == 6

    def test_rescaling_invariance(self):
        x = (F(2, 3), F(5, 4), F(1))
        lam = F(7, 3)
        assert colength(SmoothPoint(3), x, F(8)) == colength(
            SmoothPoint(3), tuple(lam * v for v in x), lam * 8
        )

    def test_monotone_in_radius(self):
        x = (F(2, 3), F(3, 2))
        counts = [colength(SmoothPoint(2), x, r) for r in range(1, 30)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            colength(SmoothPoint(2), (F(1), F(1)), 10**9)

    @pytest.mark.parametrize("count, cap", [
        (lambda: colength(SmoothPoint(2), (F(1), F(1)), 10**9), lattice._SCALE_CAP),
        (lambda: colength(SmoothPoint(6), (1,) * 6, 10**7), lattice._COUNT_CAP),
        # the count estimate itself has over 4300 digits, past str()'s default limit
        (lambda: estimate_volume(SmoothPoint(3000), (1,) * 3000, radii=(10**5,)), lattice._COUNT_CAP),
    ], ids=["scale", "count", "count-3000-coins"])
    def test_capacity_guard_names_cap(self, count, cap):
        with pytest.raises(CapacityError, match=str(cap)) as caught:
            count()
        assert len(str(caught.value)) < 200


class TestHypersurfaceCount:
    def test_quadric_surface_spot(self):
        model = a_singularity(2, 2)
        assert colength(model, (F(1), F(1), F(1)), 10) == 100

    def test_below_weighted_order_matches_ambient(self):
        model = a_singularity(2, 3)
        x = (F(1), F(1), F(2, 3))
        # weighted order is 2; below it the second region is empty
        for r in (F(1), F(3, 2), F(2)):
            assert colength(model, x, r) == colength(SmoothPoint(3), x, r)

    def test_quadric_exact_at_integer_radii(self):
        model = a_singularity(2, 2)
        x = (F(1), F(1), F(1))
        for r in (2, 4, 6, 8, 10, 12):
            count = colength(model, x, r)
            assert 2 * count == 2 * r * r  # n! * count == vol * r^n exactly

    def test_inclusion_exclusion_identity(self):
        model = a_singularity(3, 4)
        x = (F(1), F(2, 3), F(1), F(5, 4))
        from hvol import weighted_order

        v = weighted_order(x, model.support)
        for r in (F(3), F(17, 4), F(8)):
            assert colength(model, x, r) == colength(
                SmoothPoint(4), x, r
            ) - colength(SmoothPoint(4), x, r - v)


class TestToricCount:
    def test_orthant_equals_smooth(self):
        cone = orthant_cone(2)
        for r in (F(10), F(55, 2), F(100)):
            assert colength(cone, (F(1), F(1)), r) == colength(SmoothPoint(2), (F(1), F(1)), r)
        assert colength(cone, (F(1), F(1)), 100) == 5050

    def test_rank_one(self):
        cone = orthant_cone(1)
        assert colength(cone, (F(1),), 5) == 5

    @pytest.mark.parametrize(
        "cone, x, radii",
        [
            (ToricCone(((0, 1), (2, -1)), (F(1), F(1))), (F(1), F(1)), (F(5), F(10), F(21, 2))),
            (CONE3, (F(2), F(2), F(3)), (F(3), F(11, 2), F(7))),
            (CONE3, (F(5, 4), F(17, 12), F(9, 4)), (F(2), F(9, 2))),
            (ToricCone(((1, 0), (1, 3)), (F(1), F(0))), (F(23, 12), F(15, 4)), (F(7), F(31, 2))),
            (ToricCone(((1, 0), (2, 5)), (F(1), F(-1, 5))), (F(13, 6), F(5, 3)), (F(6), F(27, 2))),
        ],
        ids=["quadric", "rank3", "rank3-rational", "(1,0),(1,3)", "(1,0),(2,5)"],
    )
    def test_against_brute_force(self, cone, x, radii):
        # every dual-cone point y with <y, x> < r has 0 <= <g_j, y> < r / c_j
        # for x = sum c_j g_j, which bounds y through the inverse of G
        gens = np.array(cone.generators, dtype=float)
        c = np.linalg.solve(gens.T, np.array(x, dtype=float))
        reach = np.abs(np.linalg.inv(gens)) @ (float(radii[-1]) / c)
        box = [range(-math.ceil(b) - 1, math.ceil(b) + 2) for b in reach]
        values = []
        for y in itertools.product(*box):
            if all(sum(yk * gk for yk, gk in zip(y, g)) >= 0 for g in cone.generators):
                values.append((sum(yk * xk for yk, xk in zip(y, x)), any(y)))
        expected = [sum(1 for v, _nonzero in values if v < r) for r in radii]
        assert [colength(cone, x, r) for r in radii] == expected
        assert estimate_volume(cone, x, radii).colengths == tuple(expected)
        lowest = min(v for v, nonzero in values if nonzero)
        assert lowest < radii[-1]  # so the box holds the minimizer
        assert ideal_value(cone, x) == lowest
        det = round(abs(np.linalg.det(np.array(cone.dual_rays(), dtype=float))))
        assert len(cone.parallelepiped_points()) == det

    def test_exterior_weight_rejected(self):
        cone = ToricCone(((0, 1), (2, -1)), (F(1), F(1)))
        with pytest.raises(DomainError):
            colength(cone, (F(-1), F(2)), 10)

    def test_toric_volume_agreement(self):
        # oracle-vs-closed-form on the quadric cone germ at an interior weight
        cone = ToricCone(((0, 1), (2, -1)), (F(1), F(1)))
        x = (F(1), F(1))
        series = estimate_volume(cone, x)
        true = volume(cone, x)
        assert abs(float(series.estimate) - float(true)) <= 0.02 * float(true)

    @pytest.mark.parametrize(
        "cone, x",
        [
            (CONE3, (F(2), F(2), F(3))),
            # the route-crosscheck shape: denominator 18000, top coordinate 2
            (orthant_cone(3), (F(27001, 18000), F(2), F(19007, 18000))),
        ],
        ids=["rank3", "orthant3-den18000"],
    )
    def test_rank_three_default_radii(self, cone, x):
        series = estimate_volume(cone, x)
        true = volume(cone, x)
        assert abs(float(series.estimate) - float(true)) <= 0.02 * float(true)

    def test_oracle_vs_oracle_matched_germs(self):
        # the same quadric-cone germ counted two ways: toric lattice points
        # versus the ambient inclusion-exclusion of the product-form conic
        from hvol import Hypersurface

        cone = ToricCone(((0, 1), (2, -1)), (F(1), F(1)))
        conic = Hypersurface(((2, 0, 0), (0, 1, 1)))
        a, b = F(1), F(1)
        toric_series = estimate_volume(cone, (a, b), [200])
        hyper_series = estimate_volume(conic, (a + b, a, a + 2 * b), [200])
        t, h = float(toric_series.estimate), float(hyper_series.estimate)
        assert abs(t - h) <= 0.02 * h


class TestEstimateVolume:
    def test_triangle_estimate(self):
        series = estimate_volume(SmoothPoint(2), (F(1), F(1)), [100])
        assert series.colengths == (5050,)
        assert series.vol_estimates == (F(101, 100),)

    def test_smooth_converges(self):
        series = estimate_volume(SmoothPoint(2), (F(1), F(1)))
        assert abs(float(series.estimate) - 1.0) <= 0.02

    def test_quadric_exact_even_radius(self):
        series = estimate_volume(a_singularity(2, 2), (F(1), F(1), F(1)), [10])
        assert series.vol_estimates[-1] == 2

    def test_monotone_colengths(self):
        series = estimate_volume(SmoothPoint(3), (F(1), F(3, 2), F(2)))
        assert all(a <= b for a, b in zip(series.colengths, series.colengths[1:]))

    def test_estimates_cauchy_at_tail(self):
        series = estimate_volume(SmoothPoint(2), (F(2, 3), F(3, 2)))
        tail = [float(v) for v in series.vol_estimates[-3:]]
        assert max(tail) - min(tail) <= 0.02 * tail[-1]

    def test_schedule_validation(self):
        with pytest.raises(DomainError):
            estimate_volume(SmoothPoint(2), (F(1), F(1)), [10, 5])
        with pytest.raises(DomainError):
            estimate_volume(SmoothPoint(2), (F(1), F(1)), [])

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda: lattice.colength(SmoothPoint(2), (1, 1), math.nan),
            lambda: lattice.colength(SmoothPoint(2), (1, 1), math.inf),
            lambda: estimate_volume(SmoothPoint(2), (F(1), F(1)), [math.inf]),
            lambda: estimate_volume(SmoothPoint(2), (1.0, math.inf)),
            lambda: estimate_volume(a_singularity(2, 2), (1.0, 1.0, math.inf)),
        ],
        ids=["colength-nan-radius", "colength-inf-radius", "inf-radius", "inf-weight-smooth", "inf-weight-hypersurface"],
    )
    def test_non_finite_input_rejected(self, evaluate):
        with pytest.raises(DomainError, match="finite"):
            evaluate()

    def test_non_positive_radius_counts_nothing(self):
        assert lattice.colength(SmoothPoint(2), (1, 1), 0) == 0
        assert lattice.colength(SmoothPoint(2), (1, 1), -2.5) == 0

    @pytest.mark.parametrize(
        "model, weight",
        [(SmoothPoint(3), (1, 1, 1)), (a_singularity(2, 2), (1, 1, 1)), (CONE3, (2, 2, 3))],
        ids=["smooth", "hypersurface", "toric"],
    )
    def test_tiny_radius_counts_the_origin(self, model, weight):
        # the scaled coins pass int64 while the scaled radius is 0: only t = 0 counts
        radius = F(1, 10**30)
        assert colength(model, weight, radius) == 1
        assert estimate_volume(model, weight, (radius, 2 * radius)).colengths == (1, 1)
        assert estimate_volume(model, weight, (F(1, 10**300),)).colengths == (1,)

    def test_default_schedule(self):
        assert DEFAULT_RADIUS_MULTIPLIERS[0] == 16
        assert DEFAULT_RADIUS_MULTIPLIERS[-1] == 512
        assert len(DEFAULT_RADIUS_MULTIPLIERS) == 8
        radii = default_radii(SmoothPoint(2), (F(1), F(3, 2)))
        assert radii[0] == 24 and radii[-1] == 768

    def test_skewed_weight_within_two_percent_at_ratio_radius(self):
        # the empirical bound kicks in at r = 200 * max(x)/min(x)
        x = (F(1, 3), F(2))
        r = 200 * 6
        series = estimate_volume(SmoothPoint(2), x, [r])
        true = float(volume(SmoothPoint(2), x))
        assert abs(float(series.estimate) - true) <= 0.02 * true

    @pytest.mark.parametrize("seed", [0, 1])
    def test_convergence_within_two_percent(self, seed):
        rng = np.random.default_rng(seed)
        for model in (SmoothPoint(2), SmoothPoint(3), a_singularity(2, 2), a_singularity(3, 2)):
            for _ in range(3):
                x = tuple(
                    F(int(rng.integers(d, 2 * d + 1)), d)
                    for d in (int(rng.integers(1, 7)) for _ in range(model.ambient_dim))
                )
                series = estimate_volume(model, x)
                true = float(volume(model, x))
                assert abs(float(series.estimate) - true) <= 0.02 * true


def reference_count(coins, bound):
    """#{ t >= 0 : sum coins_i t_i <= bound } by recursion on the first coin."""

    @functools.lru_cache(maxsize=None)
    def count(i, budget):
        if budget < 0:
            return 0
        if i == len(coins):
            return 1
        return sum(count(i + 1, budget - t * coins[i]) for t in range(budget // coins[i] + 1))

    return count(0, bound)


class TestCoinTable:
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(
        coins=st.lists(st.integers(1, 60), min_size=1, max_size=5),
        bounds=st.lists(st.integers(-1, 250), min_size=1, max_size=5),
    )
    @example(coins=[7, 3], bounds=[22, 5])  # 23 entries: a 2-entry tail row for coin 7
    @example(coins=[60, 2], bounds=[41, 17])  # a coin beyond the top bound
    @example(coins=[5], bounds=[-1])  # only the empty bound
    @example(coins=[4, 9, 1], bounds=[-1, 30, 0])
    @example(coins=[15], bounds=[224])  # 15 rows of 15: the row-by-row side
    @example(coins=[15], bounds=[239])  # 16 rows of 15: the column cumsum side
    @example(coins=[15, 2, 40], bounds=[239, 100])  # coins 15 and 2 by column, 40 by row
    @example(coins=[7], bounds=[0, 6, 7, 250])  # one coin
    @example(coins=[5, 3], bounds=[250, 17, 2])  # two coins: no table
    @example(coins=[61, 90, 75], bounds=[50, 60])  # smallest coin beyond the top bound
    @example(coins=[40, 1, 50], bounds=[3000, 2999])  # smallest coin 1 under a large top
    @example(coins=[4, 9, 4, 4], bounds=[100, 3])  # repeated coins
    @example(coins=[2, 11, 5], bounds=[-1, 40, -1, 7])  # empty bounds among positive ones
    @example(coins=[40, 47, 50], bounds=[250, 3])  # three coins: 7 floor-sum positions, no table
    @example(coins=[1, 1, 1], bounds=[250, 249])  # 501 positions > 251 entries: the table
    @example(coins=[3, 7, 9], bounds=[-1, 250, 0, -1])  # three coins, no table, empty bounds
    def test_matches_reference(self, coins, bounds):
        assert _smooth_counts(coins, bounds) == [reference_count(tuple(coins), b) for b in bounds]

    @pytest.mark.parametrize(
        "k, bounds, dtype",
        [
            (4, [2300], np.int32),  # entries up to C(2303, 3) = 2033127551 < 2**31
            (4, [2400], np.int64),  # entries up to C(2403, 3) > 2**31 - 1
            (3, [10**5, 10**5 - 1], np.int64),  # too many positions: three coins on the table
        ],
    )
    def test_all_ones_closed_form(self, monkeypatch, k, bounds, dtype):
        # #{ t in Z^k_{>=0} : sum t <= B } = C(B + k, k)
        dtypes = []
        real_table = lattice._one_coin_table

        def table(coin, top, dt):
            dtypes.append(dt)
            return real_table(coin, top, dt)

        monkeypatch.setattr(lattice, "_one_coin_table", table)
        assert _smooth_counts([1] * k, bounds) == [math.comb(b + k, k) for b in bounds]
        assert dtypes == [dtype]

    @pytest.mark.parametrize("block", [1, 7, "smallest coin"])
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        coins=st.lists(st.integers(1, 60), min_size=4, max_size=6),
        bounds=st.lists(st.integers(-1, 250), min_size=1, max_size=4),
    )
    @example(coins=[3, 10, 11, 12], bounds=[40])  # middle coins longer than the final short block
    @example(coins=[2, 300, 5, 400], bounds=[100, 50])  # a middle coin beyond the top bound
    @example(coins=[20, 30, 25, 40], bounds=[10, 3])  # the top bound inside the first block
    @example(coins=[4, 9, 4, 4, 9], bounds=[100, 3])  # repeated coins
    @example(coins=[1, 2, 1, 3, 1, 2], bounds=[-1, 60, 0])  # coin 1 among others, empty bounds
    def test_streamed_blocks_match_reference(self, block, coins, bounds):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice, "_BLOCK", min(coins) if block == "smallest coin" else block)
            assert _smooth_counts(coins, bounds) == [reference_count(tuple(coins), b) for b in bounds]

    @pytest.mark.parametrize(
        "bounds, dtype", [([2300, 1000, 6], np.int32), ([2400, 2399, 0], np.int64)]
    )
    def test_all_ones_closed_form_across_blocks(self, monkeypatch, bounds, dtype):
        # blocks of 7 entries: over 300 blocks, each carrying the two middle passes of coin 1
        dtypes = []
        real_table = lattice._one_coin_table

        def table(coin, top, dt):
            dtypes.append(dt)
            return real_table(coin, top, dt)

        monkeypatch.setattr(lattice, "_BLOCK", 7)
        monkeypatch.setattr(lattice, "_one_coin_table", table)
        assert _smooth_counts([1] * 4, bounds) == [math.comb(b + 4, 4) for b in bounds]
        assert dtypes == [dtype]

    def test_four_coin_table_memory_is_one_block(self):
        # the four-coin hypersurface at denominator 18000: a whole table would hold 18.4M entries
        (row,) = [r for r in GOLDEN["series"] if r["weight"] == ["6391/6000", "2", "26717/18000", "10061/9000"]]
        model, weight = model_from_dict(row["model"]), [F(w) for w in row["weight"]]
        tracemalloc.start()
        try:
            series = estimate_volume(model, weight)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(series.colengths) == row["colengths"]
        assert peak < 8 * 2**20

    def test_three_coins_build_no_table(self, monkeypatch):
        # the route-crosscheck shape: denominator 18000, where a table would
        # hold 18.4M entries
        def table(coin, top, *_dtype):
            raise AssertionError(f"a coin table of {top + 1} entries was built")

        monkeypatch.setattr(lattice, "_one_coin_table", table)
        (row,) = [r for r in GOLDEN["series"] if r["weight"] == ["27001/18000", "2", "19007/18000"]]
        series = estimate_volume(model_from_dict(row["model"]), [F(w) for w in row["weight"]])
        assert list(series.colengths) == row["colengths"]

    @pytest.mark.parametrize(
        "x",
        [
            # coins 1999 and 3989 over about 2e6 entries: both passes add rows
            (F(1), F(3989, 1999)),
            # coin 1 runs the column cumsum over 512000 rows, coin 1000 adds rows
            (F(1), F(1, 1000)),
        ],
    )
    def test_smooth_default_radii_against_line_sums(self, x):
        # #{ (a, b) >= 0 : a x1 + b x2 < r } summed one line a = const at a time
        def line_sums(r):
            return sum(math.ceil((r - a * x[0]) / x[1]) for a in range(math.ceil(r / x[0])))

        series = estimate_volume(SmoothPoint(2), x)
        assert series.colengths == tuple(line_sums(r) for r in series.radii)


GOLDEN = json.loads((Path(__file__).parent / "data" / "colength_golden.json").read_text())


@pytest.mark.parametrize(
    "row",
    GOLDEN["series"],
    ids=[f"{row['model']['kind']}-{','.join(row['weight'])}" for row in GOLDEN["series"]],
)
def test_golden_colengths(row):
    series = estimate_volume(model_from_dict(row["model"]), [F(w) for w in row["weight"]])
    assert [str(r) for r in series.radii] == row["radii"]
    assert list(series.colengths) == row["colengths"]
