import math
import random

import numpy as np
import pytest

from hayesdist.chars import (
    CharacterTable,
    character_sum,
    character_table,
    decompose,
    l_polynomial,
    weil_bound,
)
from hayesdist.ffield import Polynomial
from hayesdist.hayes import phi

ORTHO_TOL = 1e-9


class TestDecompose:
    def test_trivial_group(self, groups):
        G = groups(2, 1, 0, "1")
        assert decompose(G) == ((), ())
        assert G.dlog.shape == (1, 0)

    def test_order_two_group(self, groups):
        assert decompose(groups(2, 1, 1, "1"))[1] == (2,)

    def test_gf4_is_elementary_abelian(self, groups):
        G = groups(2, 2, 1, "1")
        assert sorted(G.orders) == [2, 2]
        # oracle: every non-identity element squares to the identity
        for x in range(G.order):
            assert G.class_of(G.reps[x] * G.reps[x]) == G.identity

    @pytest.mark.parametrize(
        "key",
        [(2, 1, 1, "1"), (3, 1, 1, "x"), (2, 1, 2, "x + 1"), (3, 1, 2, "1"), (2, 2, 1, "x")],
    )
    def test_exponent_map_is_an_isomorphism(self, groups, key):
        """The dlog rows against classes of polynomial products, which never
        read the coordinates."""
        G = groups(*key)
        dlog = [tuple(row) for row in G.dlog.tolist()]
        assert math.prod(G.orders) == G.order
        assert len(set(dlog)) == G.order
        assert dlog[G.identity] == (0,) * len(G.orders)
        for i, g in enumerate(G.generators):
            # each generator really has the claimed order
            y, m = G.reps[g], 1
            while G.class_of(y) != G.identity:
                y = y * G.reps[g]
                m += 1
            assert m == G.orders[i]
        rng = random.Random(31)
        for _ in range(60):
            x, y = rng.randrange(G.order), rng.randrange(G.order)
            want = tuple((a + b) % n for a, b, n in zip(dlog[x], dlog[y], G.orders))
            assert dlog[G.class_of(G.reps[x] * G.reps[y])] == want

    def test_character_powers_stay_nontrivial_off_p(self, groups):
        # with Q = 1 the class group is a p-group, so chi^i is nontrivial
        # for every nontrivial chi whenever p does not divide i
        for p, a, ell in [(2, 1, 2), (3, 1, 1), (2, 2, 1)]:
            G = groups(p, a, ell, "1")
            table = character_table(G)
            for chi in table.nontrivial():
                exps = table.characters[chi].exponents
                for i in range(1, 2 * p + 1):
                    if i % p == 0:
                        continue
                    powered = tuple((i * e) % n for e, n in zip(exps, table.orders))
                    assert any(powered), (p, a, ell, exps, i)

    def test_leading_coefficient_groups_are_p_groups(self, groups):
        # with Q = 1 every class order is a power of the characteristic
        for p, a, ell in [(2, 1, 1), (2, 1, 2), (3, 1, 1), (2, 2, 1), (5, 1, 1)]:
            G = groups(p, a, ell, "1")
            for x in range(G.order):
                y, m = G.reps[x], 1
                while G.class_of(y) != G.identity:
                    y = y * G.reps[x]
                    m += 1
                while m % p == 0:
                    m //= p
                assert m == 1, (p, a, ell, x)


class TestCharacterTable:
    def test_trivial_group_single_character(self, groups):
        table = character_table(groups(2, 1, 0, "1"))
        assert table.order == 1
        assert table.value(0, 0) == 1

    def test_order_two_signs(self, groups):
        table = character_table(groups(2, 1, 1, "1"))
        assert np.allclose(table.values, np.array([[1, 1], [1, -1]]), atol=1e-12)

    @pytest.mark.parametrize(
        "key", [(2, 1, 1, "1"), (3, 1, 1, "x"), (2, 1, 2, "x"), (3, 1, 2, "1"), (2, 2, 1, "1")]
    )
    def test_row_and_column_orthogonality(self, groups, key):
        G = groups(*key)
        table = character_table(G)
        n = G.order
        M = table.values
        assert np.abs(M @ M.conj().T / n - np.eye(n)).max() < ORTHO_TOL
        assert np.abs(M.conj().T @ M / n - np.eye(n)).max() < ORTHO_TOL

    def test_column_sums_detect_identity(self, groups):
        G = groups(3, 1, 1, "x")
        table = character_table(G)
        col = table.values.sum(axis=0)
        for g in range(G.order):
            want = G.order if g == G.identity else 0.0
            assert abs(col[g] - want) < ORTHO_TOL * G.order

    def test_character_count(self, groups):
        G = groups(2, 1, 2, "x + 1")
        assert CharacterTable(G).order == G.order


class TestCharacterSums:
    def test_degree_zero_is_one(self, groups):
        G = groups(3, 1, 1, "x")
        table = character_table(G)
        for chi in range(table.order):
            assert character_sum(table, chi, 0, G) == pytest.approx(1)

    def test_trivial_character_gives_phi(self, groups):
        G = groups(3, 1, 1, "x")
        table = character_table(G)
        for j in range(5):
            got = character_sum(table, 0, j, G)
            assert got == pytest.approx(phi(j, G.params.Q))
            assert abs(got.imag) < 1e-9

    def test_signs_cancel_at_degree_one(self, groups):
        table = character_table(groups(2, 1, 1, "1"))
        G = groups(2, 1, 1, "1")
        (chi,) = table.nontrivial()
        assert abs(character_sum(table, chi, 1, G)) < 1e-12

    @pytest.mark.parametrize("key", [(2, 1, 1, "x"), (3, 1, 1, "x"), (2, 1, 2, "1"), (2, 2, 1, "x")])
    def test_weil_bound_on_grid(self, groups, key):
        G = groups(*key)
        params = G.params
        table = character_table(G)
        for chi in table.nontrivial():
            for j in range(0, 6):
                got = abs(character_sum(table, chi, j, G))
                bound = weil_bound(j, params.t, params.ell, params.spec.q)
                assert got <= bound + 1e-9 * max(1.0, params.spec.q ** (j / 2))


class TestLPolynomial:
    def test_constant_for_order_two_group(self, groups):
        G = groups(2, 1, 1, "1")
        table = character_table(G)
        (chi,) = table.nontrivial()
        L = l_polynomial(table, chi, G)
        assert L.degree == 0 and L.roots == ()
        assert L.coeffs[0] == pytest.approx(1)
        assert all(abs(c) < 1e-9 for c in L.coeffs[1:])

    def test_leading_coefficient_always_one(self, groups):
        G = groups(3, 1, 2, "1")
        table = character_table(G)
        for chi in table.nontrivial():
            L = l_polynomial(table, chi, G)
            assert L.coeffs[0] == pytest.approx(1)

    def test_gf3_single_leading_coefficient_is_degree_zero(self, groups):
        G = groups(3, 1, 1, "1")
        table = character_table(G)
        for chi in table.nontrivial():
            L = l_polynomial(table, chi, G)
            assert all(abs(c) < 1e-9 for c in L.coeffs[1:])

    @pytest.mark.parametrize(
        "key", [(3, 1, 1, "x"), (2, 1, 2, "x"), (3, 1, 2, "1"), (2, 1, 1, "x^2 + x + 1")]
    )
    def test_tail_vanishes_and_roots_on_weil_circles(self, groups, key):
        G = groups(*key)
        params = G.params
        q = params.spec.q
        bound = params.ell + params.t - 1
        table = character_table(G)
        for chi in table.nontrivial():
            L = l_polynomial(table, chi, G)
            assert L.degree <= bound
            for j in range(bound + 1, len(L.coeffs)):
                assert abs(L.coeffs[j]) <= 1e-6 * q ** (j / 2)
            close_to_one = 0
            for z in L.roots:
                m = abs(z)
                assert min(abs(m - 1), abs(m - q ** -0.5)) <= 1e-6
                if abs(z - 1) <= 1e-6:
                    close_to_one += 1
            assert close_to_one <= 1

    def test_some_roots_actually_appear(self, groups):
        # a case with deg P = 1 on both circles across the character table
        G = groups(3, 1, 1, "x")
        table = character_table(G)
        moduli = set()
        for chi in table.nontrivial():
            L = l_polynomial(table, chi, G)
            moduli.update(round(m, 6) for m in L.root_moduli())
        assert moduli == {1.0, round(3 ** -0.5, 6)}

    def test_trivial_character_rejected(self, groups):
        G = groups(2, 1, 1, "1")
        with pytest.raises(ValueError):
            l_polynomial(character_table(G), 0, G)
