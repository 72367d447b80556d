"""Reference-table entries against independently printed closed forms."""

import math
from fractions import Fraction as F

import pytest

from hvol import DomainError, InvalidModelError, normalized_volume
from hvol.tables import RANGES, alpha_star, reference_entry, reference_model, table_rows


def phi_a(n, alpha):
    """A-family branch value 2 (alpha + n - 2)^n / alpha."""
    return 2 * (alpha + n - 2) ** n / alpha


class TestAFamily:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_k1_recovers_smooth(self, n):
        entry = reference_entry("A", n, 1)
        assert entry.weight == (F(1),) * n + (F(2),)
        assert entry.value == n**n

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_k2_quadric(self, n):
        entry = reference_entry("A", n, 2)
        assert entry.weight == (F(1),) * (n + 1)
        assert entry.value == 2 * (n - 1) ** n

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(1, 7)])
    def test_value_is_phi_at_last_coordinate(self, n, k):
        entry = reference_entry("A", n, k)
        assert entry.value == phi_a(n, entry.weight[-1])
        assert entry.weight[-1] == max(F(2, k), F(n - 2, n - 1))

    def test_case_split_values(self):
        # shallow branch: ((n-2) k + 2)^n / k^(n-1)
        entry = reference_entry("A", 3, 3)
        assert entry.value == F((1 * 3 + 2) ** 3, 3**2) == F(125, 9)
        # steep branch: 2 n^n (n-2)^(n-1) / (n-1)^(n-1)
        entry = reference_entry("A", 4, 5)
        assert entry.value == F(2 * 4**4 * 2**3, 3**3) == F(4096, 27)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_surface_quotient_values(self, k):
        assert reference_entry("A", 2, k).value == F(4, k)


class TestDFamily:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_dim2_binary_dihedral(self, k):
        entry = reference_entry("D", 1, k)
        assert entry.weight == (F(1), F(k - 1, k), F(2, k))
        assert entry.value == F(4, 4 * (k - 1))

    def test_k3_printed_formula(self):
        # ((n-1) k + 1)^(n+1) / (k^(n-1) (k-1)) for the k = 3 column
        for n in (1, 2, 3, 4):
            entry = reference_entry("D", n, 3)
            assert entry.value == F((3 * (n - 1) + 1) ** (n + 1), 3 ** (n - 1) * 2)

    def test_k3_spot_values(self):
        assert reference_entry("D", 2, 3).value == F(32, 3)
        assert reference_entry("D", 3, 3).value == F(2401, 18)
        assert reference_entry("D", 4, 3).value == F(50000, 27)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_irrational_entries(self, n, k):
        entry = reference_entry("D", n, k)
        a = alpha_star(n)
        assert not entry.exact
        assert abs(entry.weight[n] - a) <= 1e-12
        assert abs(entry.weight[n + 1] - (2 - 2 * a)) <= 1e-12
        assert abs(entry.value - (n - a) ** (n + 1) / (a * (1 - a))) <= 1e-9

    def test_alpha_star_printed_decimals(self):
        assert abs(alpha_star(2) - 0.732) <= 5e-4
        assert abs(alpha_star(3) - 0.686) <= 5e-4
        # positive root of (n-1) a^2 + n a - n = 0
        for n in (2, 3, 4):
            a = alpha_star(n)
            assert abs((n - 1) * a * a + n * a - n) <= 1e-12

    def test_dim2_irrational_value_closed_form(self):
        # the surface case collapses to 6 sqrt(3)
        entry = reference_entry("D", 2, 5)
        assert abs(entry.value - 6 * math.sqrt(3)) <= 1e-12

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_large_n_k_independent(self, k):
        entry = reference_entry("D", 5, k)
        assert entry.weight == (F(1),) * 5 + (F(3, 4), F(3, 4))
        assert entry.value == reference_entry("D", 5, 4).value

    def test_stable_range_value(self):
        # 2 (n+1)^(n+1) (n-2)^(n-1) / (n-1)^(n-1) for n >= 4
        for n, k in [(4, 4), (5, 3), (6, 5)]:
            entry = reference_entry("D", n, k)
            expected = F(2 * (n + 1) ** (n + 1) * (n - 2) ** (n - 1), (n - 1) ** (n - 1))
            assert entry.value == expected


class TestEFamilies:
    def test_e7_column(self):
        values = [reference_entry("E7", n).value for n in (1, 2, 3, 4)]
        assert values == [F(1, 12), F(250, 27), F(32000, 243), F(50000, 27)]

    def test_e8_column(self):
        assert reference_entry("E8", 1).value == F(1, 30)
        assert reference_entry("E8", 2).value == F(2048, 225)

    def test_e6_column(self):
        assert reference_entry("E6", 1).value == F(1, 6)
        assert reference_entry("E6", 2).value == F(343, 36)

    def test_dim2_quotient_orders(self):
        # 4 / |G| for the binary tetrahedral, octahedral, icosahedral groups
        assert reference_entry("E6", 1).value == F(4, 24)
        assert reference_entry("E7", 1).value == F(4, 48)
        assert reference_entry("E8", 1).value == F(4, 120)

    def test_printed_weights(self):
        assert reference_entry("E6", 2).weight == (F(1), F(1), F(2, 3), F(1, 2))
        assert reference_entry("E7", 3).weight == (F(1), F(1), F(1), F(5, 9), F(2, 3))
        assert reference_entry("E8", 3).weight == (F(1), F(1), F(1), F(2, 3), F(5, 9))

    def test_large_n_shared_tail(self):
        for fam in ("E6", "E7", "E8"):
            entry = reference_entry(fam, 5)
            assert entry.weight == (F(1),) * 5 + (F(3, 4), F(3, 4))
            assert entry.value == F(2 * 6**6 * 3**4, 4**4) == F(59049, 2)


class TestConsistency:
    def test_values_match_direct_evaluation(self):
        for entry in list(table_rows("A", range(2, 5), range(1, 5))) + list(
            table_rows("D", range(1, 5), range(3, 6))
        ) + [reference_entry(f, n) for f in ("E6", "E7", "E8") for n in range(1, 5)]:
            model = reference_model(entry.family, entry.n, entry.k)
            direct = normalized_volume(model, entry.weight).normalized_volume
            if entry.exact:
                assert direct == entry.value
            else:
                assert abs(float(direct) - entry.value) <= 1e-12 * abs(entry.value)


class TestFamilies:
    @pytest.mark.parametrize("family", ["A", "D"])
    def test_missing_k_is_invalid(self, family):
        with pytest.raises(InvalidModelError, match=f"{family}-family needs k"):
            reference_entry(family, 2)

    def test_unknown_family_is_named(self):
        with pytest.raises(InvalidModelError, match="unknown family 'Z'"):
            list(table_rows("Z", [1]))

    def test_e_family_takes_no_k_range(self):
        with pytest.raises(DomainError, match="E-family tables take no k range"):
            list(table_rows("E6", [1], [1, 2]))

    def test_default_ranges(self):
        rows = list(table_rows("D", [1]))
        assert [(e.n, e.k) for e in rows] == [(1, k) for k in RANGES["D"][1]]
        assert [(e.n, e.k) for e in table_rows("E8")] == [(n, None) for n in range(1, 6)]
