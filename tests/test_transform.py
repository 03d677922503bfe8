"""The character-domain engine of `moment_rows` against the subset-product DP,
and the choice between them."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hayesdist import dist, transform
from hayesdist.cli import run
from hayesdist.dist import (
    TRANSFORM_CELLS,
    default_point_set,
    exact_distributions_all,
    moment_plan,
    moment_rows,
    moment_rows_dp,
    moment_rows_transform,
    moment_work,
    sieve_plan,
    transform_work,
)
from hayesdist.errors import BudgetExceededError
from hayesdist.ffield import MAX_Q, Polynomial, _is_prime

# (p, a, ell, Q, d): what each case covers
GRID = [
    ((5, 1, 1, "x^2 + x + 1"), 5),  # one cyclic factor of order 120; N >= d: Newton's identities only
    ((3, 1, 1, "x^2 + 1"), 5),  # one cyclic factor of order 24, n = 3 < d
    ((7, 1, 1, "x^3 + x + 1"), 4),  # one cyclic factor of order 2394 = 2 3^2 7 19: axes 2, 9, 7, 19
    ((7, 1, 1, "x^3 + x + 1"), 5),  # the same group at k = 1
    ((2, 2, 1, "x^2 + x"), 3),  # two cyclic factors of order 6
    ((5, 1, 0, "x^2"), 4),  # ell = 0, one cyclic factor of order 20
    ((3, 1, 0, "x^2 + 1"), 4),  # ell = 0, one cyclic factor of order 8
    ((2, 1, 0, "1"), 3),  # the trivial group, N = 1 < d: the recurrence from j = 2
    ((5, 1, 0, "1"), 2),  # the trivial group
    ((2, 4, 2, "1"), 6),  # orders 4, 4, 4, 4: N = 4 < d, the order-N recurrence
    ((3, 2, 2, "1"), 5),  # orders 3, 3, 3, 3: N = 3 < d
    ((5, 2, 1, "1"), 4),  # orders 5, 5
]


def _rows(engine, G, pts, d, j_lo):
    """The rows j_lo <= j <= min(n, d) at degree d, every one formed by the
    engine, the rows with constant class counts too."""
    wanted = [(j, G.monic_class_counts(d - j)) for j in range(j_lo, min(len(pts), d) + 1)]
    rows = engine(G, pts, wanted) if wanted else []
    assert len(rows) == len(wanted)
    assert all(row.dtype == object and {type(x) for x in row.tolist()} <= {int} for row in rows)
    return {j: row.tolist() for (j, _), row in zip(wanted, rows)}


@pytest.mark.parametrize("key, d", GRID)
def test_transform_rows_equal_the_dp_rows(groups, key, d):
    # every band j_lo..d, on all points and on a prefix of them; both
    # engines equal the rows of `moment_rows`, closed forms included
    G = groups(*key)
    pts = default_point_set(G.params)
    for sub in (pts, pts[: len(pts) // 2]):
        for j_lo in range(max(1, d - G.params.t - G.params.ell - 2), d + 1):
            want = _rows(moment_rows_dp, G, sub, d, j_lo)
            assert _rows(moment_rows_transform, G, sub, d, j_lo) == want, (key, d, j_lo, len(sub))
            [W] = moment_rows(G, sub, G.monic_class_counts, [(d, j_lo)])
            W = W.tolist()
            assert {j: W[j - j_lo] for j in want} == want, (key, d, j_lo, len(sub))


@pytest.mark.parametrize("engine", ["sieve", "transform"])
@pytest.mark.parametrize("key, d", GRID)
def test_one_call_over_several_runs_equals_one_call_per_run(groups, monkeypatch, key, d, engine):
    # the series runs (e, 1), e <= d, and the sieve runs at k = 0..2 in one
    # `moment_rows` call, on all points and on every other point: the rows of
    # one call per run (each on the engine its own plan picks), with either
    # engine forced for the one call
    G = groups(*key)
    pts = default_point_set(G.params)
    t_ell = G.params.t + G.params.ell
    runs = [(e, 1) for e in range(d + 1)] + [(k + t_ell, k + 1) for k in range(3)]
    for sub in (pts, pts[1::2]):
        each = [moment_rows(G, sub, G.monic_class_counts, [run])[0].tolist() for run in runs]
        with monkeypatch.context() as m:
            m.setattr(dist, "moment_plan", lambda group, n, runs, budget=None: (engine, {}))
            one = moment_rows(G, sub, G.monic_class_counts, runs)
        assert [W.tolist() for W in one] == each, (key, d, len(sub))


def test_transform_with_no_points(groups):
    G = groups(5, 1, 1, "x^2 + x + 1")
    [W] = moment_rows(G, (), G.monic_class_counts, [(4, 2)])
    assert W.tolist() == [[0] * G.order] * 3
    assert moment_plan(G, 0, [(4, 2)]) == ("sieve", {"dp_cells": 0, "convolution_cells": 0})


@pytest.mark.parametrize("bits", [8, 10])
@pytest.mark.parametrize("key, d", [((2, 4, 2, "1"), 6), ((5, 2, 1, "1"), 4), ((2, 4, 1, "x + 1"), 5)])
def test_many_primes(groups, monkeypatch, key, d, bits):
    # primes of 9 or 11 bits: C(n, j) needs several of them, and Garner's
    # CRT joins their residues
    monkeypatch.setattr(dist, "_PRIME_BITS", bits)
    G = groups(*key)
    pts = default_point_set(G.params)
    calls = []
    real = transform.primes

    def spy(N, count, bits_):
        calls.append(count)
        return real(N, count, bits_)

    monkeypatch.setattr(transform, "primes", spy)
    j_lo = d - G.params.t - G.params.ell + 1
    assert _rows(moment_rows_transform, G, pts, d, j_lo) == _rows(moment_rows_dp, G, pts, d, j_lo)
    assert calls and calls[0] > 1


def test_two_primes_at_full_size(groups):
    # q = 64, ell = 2, Q = 1, k = 5: C(64, 7) > C(64, 6) > 2^24 calls for two primes
    G = groups(2, 6, 2, "1")
    pts = default_point_set(G.params)
    assert dist._prime_count(math.comb(64, 7)) == 2
    assert sieve_plan(G, [5], 64)[0] == "transform"
    assert _rows(moment_rows_transform, G, pts, 7, 6) == _rows(moment_rows_dp, G, pts, 7, 6)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_configurations(fields, groups, data):
    p, a = data.draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (7, 1), (3, 2), (2, 3)]), label="field")
    q = p ** a
    t = data.draw(st.integers(0, 3), label="t")
    ell = data.draw(st.integers(0, 2), label="ell")
    if q ** (t + ell) > 2500:  # keeps |G| small
        ell, t = 0, min(t, 2)
    low = data.draw(st.lists(st.integers(0, q - 1), min_size=t, max_size=t), label="Q")
    G = groups(p, a, ell, Polynomial(fields(p, a), (*low, 1)).to_text())
    pts = default_point_set(G.params)
    keep = data.draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)), label="D")
    sub = tuple(x for x, kept in zip(pts, keep) if kept)
    k = data.draw(st.integers(0, 3), label="k")
    d = k + t + ell
    j_lo = data.draw(st.integers(max(1, k - 1), d + 1), label="j_lo")
    assert _rows(moment_rows_transform, G, sub, d, j_lo) == _rows(moment_rows_dp, G, sub, d, j_lo)


def test_engine_choice(groups):
    # a small group keeps the DP: 45 cells against the transform's 95
    G = groups(5, 1, 1, "1")
    assert sieve_plan(G, [1], 5) == ("sieve", moment_work(G, 5, [(2, 2)]))
    # q = 243, ell = 1, Q = 1, k = 2: 1 prime * 243 * (5 axes of 3 * 3
    # transforms + 3 * min(3, 3)) against the DP's 175932 cells
    G = groups(3, 5, 1, "1")
    assert sum(moment_work(G, 243, [(3, 3)]).values()) == 175932
    assert sieve_plan(G, [2], 243) == ("transform", {"transform_cells": 243 * (15 * 3 + 9)})


def test_the_dp_stays_where_it_counts_fewer_cells(groups):
    # q = 3, ell = 0, Q = x^7 + 2x^6 + x^5 + 1 (irreducible): |G| = 2186, one
    # cyclic factor with a prime axis of 1093, so every transform is a
    # 1093-column matrix product.  At k = 0 (n = 3, d = 7) the DP counts
    # 2.3e6 cells against the transform's 1.7e7 and keeps the run; in one
    # process, warm, it forms the rows in about 30 ms against 35 ms.  The
    # engines' rows agree.
    G = groups(3, 1, 0, "x^7 + 2*x^6 + x^5 + 1")
    pts = default_point_set(G.params)
    assert (G.order, len(pts)) == (2186, 3)
    dp = sum(moment_work(G, 3, [(7, 1)]).values())
    assert (dp, transform_work(G, 3, [(7, 1)])) == (2314974, 16775364)
    assert sieve_plan(G, [0], 3) == ("sieve", moment_work(G, 3, [(7, 1)]))
    assert _rows(moment_rows_dp, G, pts, 7, 1) == _rows(moment_rows_transform, G, pts, 7, 1)


def test_transform_unavailable_past_its_limits(groups, monkeypatch):
    G = groups(7, 1, 1, "x^3 + x + 1")  # exponent 2394
    assert transform_work(G, 7, [(4, 1)]) is not None
    monkeypatch.setattr(dist, "_MAX_EXPONENT", 2393)
    assert transform_work(G, 7, [(4, 1)]) is None
    assert moment_plan(G, 7, [(4, 1)])[0] == "sieve"


def test_budget_counts_the_engine_that_runs(groups):
    # at q = 243, ell = 1, k = 2 the budget meets the transform's 13122
    # cells, not the DP's 175932
    G = groups(3, 5, 1, "1")
    cells = sieve_plan(G, [2], 243)[1]["transform_cells"]
    assert len(exact_distributions_all(G, 2, budget=cells)) == 243
    with pytest.raises(BudgetExceededError) as info:
        exact_distributions_all(G, 2, budget=cells - 1)
    assert (info.value.what, info.value.value) == (TRANSFORM_CELLS, cells)


def test_cli_names_the_transform(capsys):
    argv = ["exact-dist", "--p", "3", "--a", "5", "--ell", "1", "--Q", "1", "--k", "2"]
    assert run(argv + ["--max-enum", "13122"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["engine"] == "transform" and data["work"] == {"transform_cells": 13122}
    assert run(argv + ["--max-enum", "13121"]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record == {"error": "budget-exceeded", "what": TRANSFORM_CELLS, "value": 13122, "budget": 13121}


def test_a_corrupt_transform_fails_the_series_check(capsys, monkeypatch):
    # q = 27, ell = 1, Q = 1, degrees 0..2: the transform forms the rows
    # j = 1 of degree 1 and j = 2 of degree 2 (N_0 is not constant; N_1 is,
    # and its row is a closed form) in one call, 1323 cells against the
    # DP's 1485
    real = transform.character_rows

    def corrupt(*args):
        rows = real(*args)
        for row in rows:
            row[0] += 1
        return rows

    monkeypatch.setattr(transform, "character_rows", corrupt)
    assert run(["series-check", "--p", "3", "--a", "3", "--ell", "1", "--Q", "1", "--d-max", "2"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["work"]["transform_cells"] == 1323
    assert {c["name"] for c in data["checks"] if not c["pass"]} == {
        "product slice z^1 (u-1)^1", "moment slice k=0 eps=0 (u-1)^1",
        "product slice z^2 (u-1)^2", "moment slice k=1 eps=0 (u-1)^2",
    }


def test_enough_primes_for_every_exponent():
    # transform_work admits N <= _MAX_EXPONENT, and a row's bound
    # C(n, j) <= C(MAX_Q, MAX_Q // 2) calls for at most 11 primes: for
    # every such N there are that many primes 1 mod N in (2^24, 2^25), so
    # `transform.primes` never runs short
    lo, hi = 1 << dist._PRIME_BITS, 1 << dist._PRIME_BITS + 1
    sieve = np.ones(hi - lo, dtype=bool)  # sieve[i]: lo + i is prime
    for p in range(2, math.isqrt(hi) + 1):
        if _is_prime(p):
            sieve[-lo % p::p] = False
    fewest = min(sieve[-(lo - 1) % N::N].sum() for N in range(1, dist._MAX_EXPONENT + 1))
    needed = dist._prime_count(math.comb(MAX_Q, MAX_Q // 2))
    assert needed == 11 and fewest >= needed
    candidates = range((hi - 2) // 2394 * 2394 + 1, lo, -2394)
    assert transform.primes(2394, 3, 24) == [p for p in candidates if sieve[p - lo]][:3]

