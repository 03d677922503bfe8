import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hayesdist import cli, comb
from hayesdist.cli import run
from hayesdist.commands import _frac, _ratio
from hayesdist.commands.bounds_check import truncated_binomial_verdicts
from hayesdist.ffield import Polynomial
from hayesdist.hayes import ClassGroup
from references import truncated_binomial_verdicts_per_cell


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_moments_check_worked_example(capsys):
    code, data = run_json(capsys, ["moments-check", "--p", "2", "--ell", "1", "--Q", "1", "--k", "1"])
    assert code == 0 and data["pass"]
    half = [c for c in data["checks"] if c["k"] == 1 and c["j"] == 2 and c["eps"] == 1]
    assert half[0]["moment"] == "1/2"


def _corrupt_moment_row(monkeypatch, d, eps, j, by):
    """Add `by` to the W_j(eps) of degree d that the row function returns."""
    from hayesdist.dist import moment_rows

    def corrupt(group, pts, counts, runs, budget=None):
        Ws = moment_rows(group, pts, counts, runs, budget)
        for W, (d_, j_lo) in zip(Ws, runs):
            if d_ == d:
                W[j - j_lo, eps] += by
        return Ws

    monkeypatch.setattr("hayesdist.dist.moment_rows", corrupt)


def test_moments_check_failure_record(capsys, monkeypatch):
    # one wrong W_j(eps) of the sieve fails exactly its (k, eps, j) cell,
    # with both sides written as reduced fractions of q^k; d = k + t + ell
    _corrupt_moment_row(monkeypatch, 3, 2, 3, 3)
    code, data = run_json(capsys, ["moments-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "1"])
    assert code == 1 and not data["pass"]
    (bad,) = data["failures"]
    assert (bad["k"], bad["eps"], bad["j"]) == (1, 2, 3)
    moment = Fraction(*map(int, bad["moment"].split("/")))
    assert bad["expected"] == _frac(moment + 1)  # (W + 3) / 3


@pytest.mark.parametrize(
    "argv, failed",
    [
        # |G| = 6, t = ell = 1, n = 2: W_3 of class 2 at k = 1
        (["moments-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"], [(1, 2, 3)]),
        # the moment slice k = 1 reads the same row; k = 0, 1 run at d-max 3
        (["series-check", "--p", "3", "--ell", "1", "--Q", "x", "--d-max", "3"],
         ["moment slice k=1 eps=2 (u-1)^3"]),
    ],
    ids=["moments-check", "series-check"],
)
def test_a_corrupt_sieve_row_fails_exactly_its_cell(capsys, monkeypatch, argv, failed):
    # both checks of the moment identity read the W_j rows of the one row
    # function, so one wrong W_j(eps) fails that (k, eps, j) cell and
    # nothing else (j = 3 > n, so no product slice reads it)
    _corrupt_moment_row(monkeypatch, 3, 2, 3, 1)
    code, data = run_json(capsys, argv)
    assert code == 1 and not data["pass"]
    if argv[0] == "moments-check":
        assert [(c["k"], c["eps"], c["j"]) for c in data["failures"]] == failed
    else:
        assert [c["name"] for c in data["checks"] if not c["pass"]] == failed


@pytest.mark.parametrize(
    "argv",
    [
        ["moments-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"],
        ["series-check", "--p", "3", "--ell", "1", "--Q", "x", "--d-max", "4"],
    ],
    ids=["moments-check", "series-check"],
)
def test_moment_checks_never_call_the_factorization_counts(capsys, monkeypatch, argv):
    def forbidden(*args, **kwargs):
        raise AssertionError("factorization_counts ran")

    monkeypatch.setattr("hayesdist.dist.factorization_counts", forbidden)
    code, data = run_json(capsys, argv)
    assert code == 0 and data["pass"]


@pytest.mark.parametrize("num, den", [(0, 1), (0, 27), (6, 9), (5, 25), (81, 27), (2 ** 70, 3 ** 40 * 2 ** 9)])
def test_ratio_matches_frac(num, den):
    assert _ratio(num, den) == _frac(Fraction(num, den))


def test_rs_census_worked_example(capsys):
    code, data = run_json(capsys, ["rs", "--p", "2", "--k", "1", "--ell", "1", "--census"])
    assert code == 0
    census = data["census"]
    assert census["word_totals"] == {"deep-hole": 2, "ordinary": 2, "neither": 0}
    deep = {w["word"] for w in census["words"] if w["kind"] == "deep-hole"}
    assert deep == {"x^2", "x^2 + 1"}


def test_rs_single_word(capsys):
    code, data = run_json(capsys, ["rs", "--p", "2", "--k", "1", "--ell", "1", "--word", "x^2 + x"])
    assert code == 0
    assert data["kind"] == "ordinary"
    assert data["row"]["counts"] == {"0": "1", "2": "1"}


@pytest.mark.parametrize("order", [["--word", "x^2 + x", "--census"], ["--census", "--word", "x^2 + x"]])
def test_rs_word_with_census_is_a_validation_record(capsys, order):
    # one word row or the census of every word: asking for both is a usage
    # error, not a word row with --census dropped
    code, data = run_json(capsys, ["rs", "--p", "2", "--k", "1", "--ell", "1", *order])
    assert code == 1
    assert data == {"error": "validation", "message": data["message"]}
    assert "--word" in data["message"] and "--census" in data["message"]


def test_kernels_truncated_binomial(capsys):
    code, data = run_json(
        capsys, ["kernels", "truncated-binomial", "--m", "0", "--r", "5", "--n", "9", "--q", "4"]
    )
    assert code == 0 and data["value"] == "1/1"


def test_kernels_cycle_average_routes_agree(capsys):
    code, data = run_json(
        capsys,
        ["kernels", "cycle-average", "--j", "4", "--a-val", "7/2", "--b-val", "1/2", "--p-char", "3"],
    )
    assert code == 0
    routes = data["routes"]
    assert routes["series"] == routes["closed"] == routes["cycle_types"] == data["value"]


def test_kernels_cycle_average_routes_agree_at_p_one(capsys):
    # p = 1 divides every cycle length: A_j(a, b) = C(a + j - 1, j) for any b
    code, data = run_json(
        capsys,
        ["kernels", "cycle-average", "--j", "4", "--a-val", "7/2", "--b-val", "1/2", "--p-char", "1"],
    )
    assert code == 0
    routes = data["routes"]
    assert routes["series"] == routes["closed"] == routes["cycle_types"] == data["value"] == "3003/128"


@pytest.mark.parametrize("p_char", ["-1", "0"])
def test_kernels_cycle_average_rejects_p_below_one(capsys, p_char):
    code, data = run_json(capsys, ["kernels", "cycle-average", "--j", "3", "--p-char", p_char])
    assert code == 1
    assert data == {"error": "validation", "message": f"need p >= 1, got p={p_char}"}


@pytest.mark.parametrize(
    "j, slack, code",
    [
        (500, None, 0),  # under the default budget
        (10000, None, 2),  # 3.8 * 10^10 words, refused before the first product
        (4, 0, 0),  # a budget of exactly the count admits the job
        (4, -1, 2),
    ],
)
def test_kernels_cycle_average_budgets_its_operand_words(capsys, j, slack, code):
    argv = ["kernels", "cycle-average", "--j", str(j), "--a-val", "7/3", "--b-val", "1/5", "--p-char", "3"]
    words = comb.cycle_average_work(j, Fraction(7, 3), Fraction(1, 5), 3)
    limit = 10 ** 8 if slack is None else words + slack
    got, data = run_json(capsys, argv + ([] if slack is None else ["--max-enum", str(limit)]))
    assert got == code
    if code == 2:
        assert data == {"error": "budget-exceeded", "what": comb.CYCLE_AVERAGE_WORDS, "value": words, "budget": limit}
    else:
        assert data["routes"]["series"] == data["routes"]["closed"] == data["value"]


def test_kernels_phi(capsys):
    code, data = run_json(capsys, ["kernels", "phi", "--p", "2", "--Q", "x^2 + x", "--j", "2"])
    assert code == 0 and data["value"] == "1"


def test_exact_dist_artifact(tmp_path, capsys):
    out = tmp_path / "dist.json"
    code = run(["exact-dist", "--p", "2", "--ell", "1", "--Q", "1", "--k", "1", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["version"]
    assert data["config"]["subcommand"] == "exact-dist"
    assert data["distributions"][0]["counts"] == {"1": "2"}


def test_byte_identical_reruns(tmp_path):
    argv = ["bounds-check", "--p", "2", "--ell", "1", "--Q", "1", "--k", "1", "--seed", "5"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_determinism_and_header(tmp_path):
    argv = ["approx", "--p", "3", "--ell", "1", "--Q", "1", "--k", "2", "--format", "csv"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    text = out1.read_text()
    assert out1.read_bytes() == out2.read_bytes()
    lines = text.splitlines()
    assert lines[0].startswith("# {")
    assert lines[1].split(",")[:4] == ["eps", "r", "count", "exact"]


def test_budget_exceeded_exit_code(capsys):
    # sieve at q = 5, n = 5, |G| = 5, d = 2: 8 DP rows of 5 cells, plus one
    # convolution gather of 5 cells; the group's 20 cells fit the budget
    code, data = run_json(
        capsys,
        ["exact-dist", "--p", "5", "--ell", "1", "--Q", "1", "--k", "1", "--max-enum", "20"],
    )
    assert code == 2
    assert data["error"] == "budget-exceeded"
    assert data["value"] == 45


def test_budget_exceeded_exit_code_enumeration(capsys):
    # the enumeration oracle behind moments-check budgets its comparisons,
    # |G| q^k n = 2 * 2^9 * 2
    code, data = run_json(
        capsys,
        ["moments-check", "--p", "2", "--ell", "1", "--Q", "1", "--k-min", "9", "--k", "9",
         "--max-enum", "16"],
    )
    assert code == 2
    assert data["error"] == "budget-exceeded"
    assert data["value"] == 2048


GROUP = "class group cells (candidates + ladders)"
SIEVE = "sieve cells (DP + convolution)"
ORACLE = "enumeration comparisons |G| q^k n"


@pytest.mark.parametrize(
    "argv, what, value, work",
    [
        # sieve at q = 5, n = 5, |G| = 5: 8 DP rows of 5 cells and one gather
        # of 5; the group takes 5 * 2 candidate cells and 2 rungs of 5
        (["exact-dist", "--p", "5", "--ell", "1", "--Q", "1", "--k", "1"],
         SIEVE, 45, {"dp_cells": 40, "convolution_cells": 5}),
        # oracle at k = 2: |G| q^k n = 5 * 25 * 5, above the sieve's 45 + 5
        # cells there
        (["moments-check", "--p", "5", "--ell", "1", "--Q", "1", "--k-min", "2", "--k", "2"],
         ORACLE, 625, {"comparisons": 625, "dp_cells": 45, "convolution_cells": 5}),
        # series check: q^d (n+1) = 3^4 * 4 at the top degree
        (["series-check", "--p", "3", "--ell", "1", "--Q", "1", "--d-max", "4"],
         "evaluation cells q^4 (n+1)", 324, {}),
        # weil's own count, q^(t+ell) = 9, is below the group's 3^2 * 3
        # candidate cells plus 2 rungs of |G| = 6, so the group binds
        (["weil", "--p", "3", "--ell", "1", "--Q", "x"], GROUP, 39, {}),
        # group: Q = x (x + 2) leaves n = 1 and |G| = 3 * phi_2 = 12, so its
        # 3^3 * 4 candidate cells plus floor(log2 12) = 3 rungs of 12 are
        # above the oracle's 12 * 1 * 1 comparisons and the sieve's one DP
        # row and phi_2 = 4 gathers
        (["moments-check", "--p", "3", "--ell", "1", "--Q", "x^2 + 2*x", "--k", "0"],
         GROUP, 144, {"comparisons": 12, "dp_cells": 12, "convolution_cells": 48}),
        # rs builds its Q = 1 group too: 2 * 2 candidate cells plus 1 rung of
        # |G| = 2; at k >= n = q the sieve has no rows
        (["rs", "--p", "2", "--k", "2", "--ell", "1", "--census"],
         GROUP, 6, {"dp_cells": 0, "convolution_cells": 0}),
        # n = 0 at q = 2, Q = x(x+1), |G| = 2: 2^3 * 4 + 2 * 1 group cells;
        # the sieve has no rows and the oracle compares nothing, so both
        # report 0 work, while the series check still counts q^d (n+1)
        (["exact-dist", "--p", "2", "--ell", "1", "--Q", "x^2 + x", "--k", "1"],
         GROUP, 34, {"dp_cells": 0, "convolution_cells": 0}),
        (["moments-check", "--p", "2", "--ell", "1", "--Q", "x^2 + x", "--k-min", "3", "--k", "3"],
         GROUP, 34, {"comparisons": 0, "dp_cells": 0, "convolution_cells": 0}),
        (["series-check", "--p", "2", "--ell", "1", "--Q", "x^2 + x", "--d-max", "6"],
         "evaluation cells q^6 (n+1)", 64, {"dp_cells": 0, "convolution_cells": 0}),
        # series check at |G| = 9, n = 3: its 3^2 * 4 evaluation cells are
        # below its sieve cells, one row run for both degrees: one table of
        # DP rows 1, 1-2, 1-2, and phi_0 = 1 gather at d = 1 and phi_1 +
        # phi_0 = 3 + 1 gathers at d = 2
        (["series-check", "--p", "3", "--ell", "2", "--Q", "1", "--d-max", "2"],
         SIEVE, 90, {"dp_cells": 45, "convolution_cells": 9 + 36}),
        # bounds-check runs the sieve for k = 0..2 at q = 5, n = 5, |G| = 5 as
        # one row run, checked before k = 0: one table of rows 1..3 (DP rows
        # 1, 1-2, 1-3, 1-3, 1-3) and one gather per k
        (["bounds-check", "--p", "5", "--ell", "1", "--Q", "1", "--k", "2"],
         SIEVE, 75, {"dp_cells": 60, "convolution_cells": 15}),
        # moments-check sums the oracle over k = 0..3 at |G| = 6, n = 2:
        # 6 (1 + 3 + 9 + 27) 2 comparisons, where the largest k alone
        # makes 324
        (["moments-check", "--p", "3", "--ell", "1", "--Q", "x + 1", "--k", "3"],
         ORACLE, 480, {"comparisons": 480, "dp_cells": 18, "convolution_cells": 30}),
        # moments-check's sieve at |G| = 9, n = 3, d = 2: DP rows 1, 1-2,
        # 1-2 and phi_1 + phi_0 = 3 + 1 gathers, above the group's 3^2 * 3
        # candidate cells plus floor(log2 9) = 3 rungs of |G| = 9 and the
        # oracle's 9 * 1 * 3 comparisons
        (["moments-check", "--p", "3", "--ell", "2", "--Q", "1", "--k", "0"],
         SIEVE, 81, {"comparisons": 27, "dp_cells": 45, "convolution_cells": 36}),
    ],
)
def test_refusal_value_is_the_work_of_the_route(capsys, argv, what, value, work):
    code, data = run_json(capsys, argv + ["--max-enum", str(value)])
    assert code == 0
    assert {key: data["work"][key] for key in work} == work
    route = {SIEVE: ("dp_cells", "convolution_cells"), ORACLE: ("comparisons",)}.get(what, ())
    if route:
        assert sum(work[key] for key in route) == value
    code, record = run_json(capsys, argv + ["--max-enum", str(value - 1)])
    assert code == 2
    assert record == {"error": "budget-exceeded", "what": what, "value": value, "budget": value - 1}


def test_exact_dist_large_k_default_budget(capsys):
    code, data = run_json(capsys, ["exact-dist", "--p", "2", "--a", "6", "--ell", "1", "--Q", "1", "--k", "32"])
    assert code == 0
    assert len(data["distributions"]) == 64
    assert all(sum(map(int, d["counts"].values())) == 64 ** 32 for d in data["distributions"])


def test_rs_census_budgets_only_the_sieve(capsys):
    # 243^3 received words, none of them enumerated
    code, data = run_json(capsys, ["rs", "--p", "3", "--a", "5", "--k", "2", "--ell", "1", "--census"])
    assert code == 0
    census = data["census"]
    assert len(census["classes"]) == 243
    assert sum(census["word_totals"].values()) == 243 ** 3
    assert "words" not in census


@pytest.mark.parametrize(
    "argv,engine,unit",
    [
        (["exact-dist", "--p", "3", "--ell", "1", "--Q", "x", "--k", "1"], "sieve", "dp_cells"),
        (["approx", "--p", "3", "--ell", "1", "--Q", "1", "--k", "2"], "sieve", "dp_cells"),
        (["rs", "--p", "3", "--k", "1", "--ell", "1", "--word", "x^2 + 1"], "sieve", "dp_cells"),
        (["rs", "--p", "3", "--k", "1", "--ell", "1", "--census"], "sieve", "dp_cells"),
        (["moments-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"], "enumeration", "comparisons"),
        (["bounds-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "1"], "sieve", "dp_cells"),
        (["weil", "--p", "3", "--ell", "1", "--Q", "x"], "characters", "character_sums"),
        (["series-check", "--p", "3", "--ell", "1", "--Q", "x", "--d-max", "3"], "enumeration", "polynomials_checked"),
    ],
)
def test_artifact_names_engine_and_work(capsys, argv, engine, unit):
    code, data = run_json(capsys, argv)
    assert code == 0
    assert data["engine"] == engine
    assert data["work"][unit] > 0


def test_moments_check_work_count(capsys):
    # |G| * q^k * n comparisons summed over k = 0..2: 6 classes, 2 points;
    # the sieve's cells of the one row run as in bounds-check: one table
    # updates DP rows 1 and 1-2 for the rows j = 1, 2 of k = 0 and j = 2 of
    # k = 1, which gather phi_1 + phi_0 = 2 + 1 and phi_1 = 2 entries; k = 2
    # >= n has no row
    code, data = run_json(capsys, ["moments-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"])
    assert code == 0
    assert data["work"] == {
        "comparisons": 6 * (1 + 3 + 9) * 2, "dp_cells": 6 * 3, "convolution_cells": 6 * (3 + 2),
    }


def test_bounds_check_remainder_records(capsys, monkeypatch):
    # the pmf bound is computed once per (k, r) and shared by every class,
    # and no remainder check is dropped on the way
    calls = []
    from hayesdist.asym import pmf_remainder_bound as bound

    def counted(r, n, q, k, t, ell):
        calls.append((k, r))
        return bound(r, n, q, k, t, ell)

    monkeypatch.setattr("hayesdist.asym.pmf_remainder_bound", counted)
    code, data = run_json(capsys, ["bounds-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"])
    assert code == 0 and data["pass"]
    # |G| = 6, t = ell = 1, n = 2: r = 0..k+2 for k = 0..2, j = k+1..k+2; the
    # sieve's work for all k in one row run: one table updates DP rows 1
    # and 1-2, the rows of k = 0 gather phi_1 + phi_0 = 2 + 1 entries and
    # that of k = 1 phi_1 = 2; k = 2 >= n has no row
    assert data["work"] == {"dp_cells": 6 * 3, "convolution_cells": 6 * (3 + 2)}
    assert calls == [(k, r) for k in range(3) for r in range(k + 3)]
    names = [c["name"] for c in data["checks"]]
    pmf = [name for name in names if name.startswith("pmf remainder ")]
    assert len(pmf) == 6 * (3 + 4 + 5)
    assert pmf == [
        f"pmf remainder k={k} eps={eps} r={r}" for k in range(3) for eps in range(6) for r in range(k + 3)
    ]
    assert [name for name in names if name.startswith("factorization remainder ")] == [
        f"factorization remainder k={k} j={j}" for k in range(3) for j in (k + 1, k + 2)
    ]
    # remainder hypotheses not met (ell = 0): no sieve run
    code, data = run_json(capsys, ["bounds-check", "--p", "3", "--ell", "0", "--Q", "x", "--k", "2"])
    assert code == 0
    assert data["work"] == {"dp_cells": 0, "convolution_cells": 0}


def test_bounds_check_pass_agrees_with_its_pmf_records_at_the_bound(capsys, monkeypatch):
    # `pass` and the exit code come from the integer counts before any pmf
    # record is made; with each (k, r) bound set to the largest |P - prediction|
    # over the classes every cell passes (the bound is inclusive), and with it
    # set just below, exactly the cells that attain it fail
    argv = ["bounds-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"]
    code, data = run_json(capsys, argv)
    assert code == 0 and data["pass"]
    worst, lhs = {}, {}
    for c in data["checks"]:
        if c["name"].startswith("pmf remainder "):
            k, eps, r = (int(part.split("=")[1]) for part in c["name"].split()[2:])
            lhs[(k, eps, r)] = Fraction(c["lhs"])
            worst[(k, r)] = max(worst.get((k, r), Fraction(0)), lhs[(k, eps, r)])
    assert any(worst.values())
    for below, code_want in ((Fraction(0), 0), (Fraction(1, 10 ** 12), 1)):
        monkeypatch.setattr("hayesdist.asym.pmf_remainder_bound", lambda r, n, q, k, t, ell: worst[(k, r)] - below)
        code, data = run_json(capsys, argv)
        failed = {
            tuple(int(part.split("=")[1]) for part in c["name"].split()[2:])
            for c in data["checks"] if not c["pass"]
        }
        want = {cell for cell, value in lhs.items() if below and value == worst[(cell[0], cell[2])]}
        assert failed == want
        assert (code, data["pass"]) == (code_want, not want)


def _oracle_remainder_records(group, k_max):
    """The remainder records of `bounds-check`, built without the sieve from
    the enumeration oracle and the enumerated factorization counts; None
    when the hypotheses fail."""
    from hayesdist.asym import gamma_at_most_one, pmf_remainder_bound, w_remainder_bound
    from hayesdist.dist import default_point_set, enumeration_distributions_all, factorization_counts, pmf_prediction
    from hayesdist.ffield import phi

    params = group.params
    q, t, ell = params.spec.q, params.t, params.ell
    points = default_point_set(params)
    n = len(points)
    if not (ell >= 1 and gamma_at_most_one(n, q, t, ell)):
        return None
    out = []
    for k in range(k_max + 1):
        dists = enumeration_distributions_all(group, k, points)
        for j in range(k + 1, k + t + ell + 1):
            main = Fraction(phi(k + t + ell - j, params.Q) * math.comb(n, j), group.order)
            bound = w_remainder_bound(j, n, q, k, t, ell, group.order)
            worst = max(abs(w - main) for w in factorization_counts(group, j, k, points))
            out.append({
                "name": f"factorization remainder k={k} j={j}", "pass": worst <= bound,
                "lhs": _frac(Fraction(worst)), "rhs": _frac(bound),
            })
        for eps in range(group.order):
            for r in range(k + t + ell + 1):
                lhs = abs(dists[eps].probability(r) - pmf_prediction(params, n, r, k))
                bound = pmf_remainder_bound(r, n, q, k, t, ell)
                out.append({
                    "name": f"pmf remainder k={k} eps={eps} r={r}", "pass": lhs <= bound,
                    "lhs": _frac(lhs), "rhs": _frac(bound),
                })
    return out


def _assert_remainders_match_the_oracle(group, q_text, k_max):
    spec = group.params.spec
    argv = ["bounds-check", "--p", str(spec.p), "--a", str(spec.a), "--ell", str(group.params.ell),
            "--Q", q_text, "--k", str(k_max)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    data = json.loads(out.getvalue())
    assert code == 0 and data["pass"], argv
    want = _oracle_remainder_records(group, k_max)
    got = [c for c in data["checks"] if c["name"].startswith(("factorization remainder ", "pmf remainder "))]
    if want is None:
        assert got == [] and data["checks"][-1]["name"] == "remainder bounds"
    else:
        assert got == want, argv
    return len(got)


@pytest.mark.parametrize("p, a", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_bounds_check_remainders_match_the_oracle(groups, fields, p, a):
    # every remainder record read from the sieve's rows equals the record
    # built from the oracle and the factorization counts, where both run
    spec = fields(p, a)
    checked = 0
    for ell in (1, 2):
        for q_text in ("1", "x", "x + 1", spec.monic_irreducibles(2)[0].to_text(), "x^2 + x"):
            G = groups(p, a, ell, q_text)
            k_max = 2 if G.order * spec.q ** 2 <= 20_000 else 1
            checked += _assert_remainders_match_the_oracle(G, q_text, k_max)
    assert checked > 0


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bounds_check_remainders_match_the_oracle_random(fields, groups, data):
    p, a = data.draw(st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]), label="field")
    q = p ** a
    t = data.draw(st.integers(0, 2), label="t")
    ell = data.draw(st.integers(1, 2), label="ell")
    if q ** (t + ell) > 100:  # keeps |G| and the oracle small
        t, ell = 0, 1
    low = data.draw(st.lists(st.integers(0, q - 1), min_size=t, max_size=t), label="Q")
    q_text = Polynomial(fields(p, a), (*low, 1)).to_text()
    G = groups(p, a, ell, q_text)
    k_max = data.draw(st.integers(0, 2 if q ** (t + ell) <= 25 else 1), label="k")
    _assert_remainders_match_the_oracle(G, q_text, k_max)


def test_bounds_check_runs_neither_the_oracle_nor_the_factorization_counts(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a second engine ran")

    for name in ("enumeration_distributions_all", "factorization_counts"):
        monkeypatch.setattr(f"hayesdist.dist.{name}", forbidden)
    code, data = run_json(capsys, ["bounds-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"])
    assert code == 0 and data["pass"] and data["engine"] == "sieve"
    assert any(c["name"].startswith("pmf remainder ") for c in data["checks"])


@pytest.mark.parametrize("argv", [
    ["bounds-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "1"],
    ["bounds-check", "--p", "7", "--ell", "1", "--Q", "x + 3", "--k", "0"],
])
def test_log_cycle_average_verdict_is_exact(capsys, monkeypatch, argv):
    # the record passes with the exact bounds; lowering one cell's bound to
    # just below A^L (j = 8, n = 8, gamma = 1/4, variant b) flips it, and
    # only it: the verdict compares A^L with the integer-exponent form
    from hayesdist import asym
    from hayesdist.comb import cycle_average_series

    def cycle_record():
        data = json.loads(capsys.readouterr().out)
        (record,) = [c for c in data["checks"] if c["name"] == "log cycle-average bounds"]
        return record

    assert run(argv) == 0
    assert cycle_record() == {
        "name": "log cycle-average bounds", "pass": True, "lhs": "ln A_j(n, gamma)", "rhs": "variant a/b bounds",
    }
    real = asym.cycle_average_bound_power

    def lowered(j, n, gamma, p, variant):
        L, R = real(j, n, gamma, p, variant)
        if (j, n, gamma, variant) == (8, 8, Fraction(1, 4), "b"):
            R = cycle_average_series(j, n, gamma, p) ** L - Fraction(1, 10 ** 9)
        return L, R

    monkeypatch.setattr(asym, "cycle_average_bound_power", lowered)
    assert run(argv) == 1
    assert cycle_record()["pass"] is False


def test_truncated_binomial_verdicts_match_fraction_form():
    # every (N, q, m) cell of the integer-form floor and proximity verdicts
    # against the same inequality on the Fraction mu_m = sum_{j<=m} (-1)^j C(N, j) q^-j,
    # including floor cells with N > q, which the suite skips
    cells = 0
    floor_false = 0
    expected = iter((N, q, m) for N in range(13) for q in range(2, 10) for m in range(13))
    mu = None
    for N, q, m, floor, close in truncated_binomial_verdicts():
        assert (N, q, m) == next(expected)
        mu = Fraction(1) if m == 0 else mu + Fraction((-1) ** m * math.comb(N, m), q ** m)
        if m == 0:
            assert floor is None
        else:
            assert floor == (mu >= Fraction(q - N, q)), (N, q, m)
            floor_false += not floor
        target = Fraction(q - 1, q) ** N
        assert close == (abs(mu - target) <= Fraction(math.comb(N, m + 1), q ** (m + 1))), (N, q, m)
        cells += 1
    assert cells == 1352
    assert floor_false > 0  # the Fraction-form floor fails on some N > q cells


def test_truncated_binomial_verdicts_cover_every_cell():
    # the 9464 cells (n, q, r, m) of the per-cell loop give exactly the
    # verdicts of the 1352 cells (n - r, q, m), so the two bounds-check
    # records are unchanged
    per_cell = list(truncated_binomial_verdicts_per_cell())
    assert len(per_cell) == 9464
    folded = {(n - r, q, m, floor, close) for n, q, r, m, floor, close in per_cell}
    assert folded == set(truncated_binomial_verdicts())


def test_weil_and_series_work_counts(capsys):
    # |G| = 3 * 2; weil: 5 nontrivial characters, coefficients j = 0..t+ell = 2,
    # class counts of degrees 0..2; series-check --d-max 3: degrees 0..3
    # enumerated once each into the joint table, and one row run for all
    # degrees over the n = 2 points.  phi_0..phi_2 = 1, 2, 6, and the row
    # j = 1 of d = 3 has constant class counts (phi_2 = |G|), a closed form:
    # one table of DP rows 1 and 1-2, and phi_(d-j) gathers for the other
    # rows, 1 (d = 1) + 2 + 1 (d = 2) + 2 (d = 3)
    code, data = run_json(capsys, ["weil", "--p", "3", "--ell", "1", "--Q", "x"])
    assert code == 0
    assert data["work"] == {"classes": 6, "monic_enumerated": 1 + 3 + 9, "character_sums": 5 * 3}
    code, data = run_json(capsys, ["series-check", "--p", "3", "--ell", "1", "--Q", "x", "--d-max", "3"])
    assert code == 0
    assert data["work"] == {
        "classes": 6, "polynomials_checked": 1 + 3 + 9 + 27,
        "dp_cells": 6 * 3, "convolution_cells": 6 * 6,
    }


def test_series_check_counts_factorization_pairs(capsys):
    # the moment slice's W_j, the counts of the factorization pairs (g, S),
    # come from the row function, so its work is the sieve's cells, not the
    # pairs.  Q = x^2 + 1 has no root in GF(3), so n = 3 and
    # |G| = 9 * phi_2 = 72; one row run for the degrees d = 1..4 over the
    # three points: one table of DP rows 1, 1-2 and 1-3, so 6 rows, and
    # 1 + (3 + 1) + (8 + 3 + 1) + (24 + 8 + 3) gathers
    code, data = run_json(capsys, ["series-check", "--p", "3", "--ell", "2", "--Q", "x^2 + 1", "--d-max", "4"])
    assert code == 0 and data["pass"]
    assert "factorization_pairs" not in data["work"]
    assert data["work"]["dp_cells"] == 72 * 6
    assert data["work"]["convolution_cells"] == 72 * 52


def test_csv_header_carries_engine(capsys):
    code = run(["approx", "--p", "3", "--ell", "1", "--Q", "1", "--k", "2", "--format", "csv"])
    header = json.loads(capsys.readouterr().out.splitlines()[0][2:])
    assert code == 0
    assert header["engine"] == "sieve" and set(header["work"]) == {"dp_cells", "convolution_cells"}
    assert "table" not in header


def _weil_bound_violated(monkeypatch):
    monkeypatch.setattr("hayesdist.chars.weil_bound", lambda j, t, ell, q: -1.0)


def _decomposition_lift_missing(monkeypatch):
    monkeypatch.setattr("hayesdist.hayes._orders_mod", lambda ladders, member: np.zeros(len(member), dtype=int))


def _class_count_mismatch(monkeypatch):
    from hayesdist.hayes import phi

    monkeypatch.setattr("hayesdist.hayes.phi", lambda j, Q: phi(j, Q) + 1)


def _tail_class_count_not_one(monkeypatch):
    # one class with two monic quadratics (t + ell = 2): the tail identity fails
    counts = ClassGroup.monic_class_counts

    def corrupt(self, d, budget=None):
        out = counts(self, d, budget)
        if d == 2:
            out[3] += 1
        return out

    monkeypatch.setattr(ClassGroup, "monic_class_counts", corrupt)


@pytest.mark.parametrize(
    "corrupt,error,exc_type",
    [
        (_weil_bound_violated, "arithmetic-check", "ArithmeticError"),
        (_decomposition_lift_missing, "internal", "RuntimeError"),
        (_class_count_mismatch, "internal", "RuntimeError"),
        (_tail_class_count_not_one, "internal", "RuntimeError"),
    ],
)
def test_internal_errors_become_records(capsys, monkeypatch, corrupt, error, exc_type):
    corrupt(monkeypatch)
    code, data = run_json(capsys, ["weil", "--p", "3", "--ell", "1", "--Q", "x"])
    assert code == 1
    assert data["error"] == error and data["type"] == exc_type
    assert data["message"]


def test_weil_refuses_before_the_character_table(capsys, monkeypatch):
    # The group's 3^2 * 3 candidate cells alone exceed any budget that
    # refuses the q^(t+ell) = 9 L-polynomial count, so the command is
    # refused at group construction, on those cells, before Q is factored.
    def counts_enumerated(self, d, budget=None):
        raise AssertionError("class counts enumerated on a refused run")

    monkeypatch.setattr(ClassGroup, "monic_class_counts", counts_enumerated)
    code, data = run_json(capsys, ["weil", "--p", "3", "--ell", "1", "--Q", "x", "--max-enum", "8"])
    assert code == 2
    assert data == {"budget": 8, "error": "budget-exceeded", "value": 27, "what": GROUP}


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_broken_pipe_is_a_record(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = run(["rs", "--p", "3", "--k", "2", "--ell", "1", "--census"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == '{"error": "broken-pipe"}\n'


def test_broken_pipe_in_a_real_pipe():
    # a pipe whose read end is closed before the child writes: no traceback,
    # no message from the interpreter's last flush, only the record
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hayesdist.cli", "rs", "--p", "3", "--k", "2", "--ell", "1", "--census"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b'{"error": "broken-pipe"}\n'


@pytest.mark.parametrize(
    "argv",
    [
        ["exact-dist", "--p", "3", "--ell", "1", "--Q", "x", "--k", "-1"],
        ["approx", "--p", "3", "--ell", "1", "--Q", "x", "--k", "-1"],
        ["rs", "--p", "3", "--k", "-1", "--ell", "1", "--census"],
        ["series-check", "--p", "3", "--ell", "1", "--Q", "x", "--d-max", "-1"],
    ],
)
def test_negative_degree_is_a_validation_record(capsys, argv):
    code, data = run_json(capsys, argv)
    assert code == 1
    assert data["error"] == "validation" and ">= 0" in data["message"]


@pytest.mark.parametrize("word", [[], ["--word", "x"]])
def test_rs_below_k_minus_one_is_the_k_record(capsys, word):
    # the up-front sieve plan checks k itself, before any cost formula
    # reads a negative degree
    code, data = run_json(capsys, ["rs", "--p", "5", "--k", "-2", "--ell", "1", *word])
    assert (code, data) == (1, {"error": "validation", "message": "k must be >= 0, got -2"})


@pytest.mark.parametrize(
    "argv, message",
    [
        (["moments-check", "--p", "3", "--ell", "1", "--Q", "1", "--k", "2", "--k-min", "5"], "k_min must be <= k"),
        (["moments-check", "--p", "3", "--ell", "1", "--Q", "1", "--k", "2", "--k-min", "-1"], "k_min must be >= 0"),
        (["bounds-check", "--p", "3", "--ell", "1", "--Q", "1", "--k", "-1"], "k must be >= 0"),
        (["moments-check", "--p", "3", "--ell", "1", "--Q", "1", "--k", "-1"], "k must be >= 0, got -1"),
    ],
)
def test_suites_that_would_check_nothing_are_validation_records(capsys, argv, message):
    # an empty k range would otherwise report "pass": true having checked nothing
    code, data = run_json(capsys, argv)
    assert code == 1
    assert data == {"error": "validation", "message": data["message"]}
    assert data["message"].startswith(message)


def test_series_check_memory_at_q256():
    # |G| = 256, 256 points: the joint table evaluates 2^16 quadratics in
    # blocks of 2^14 rows at most.  A small launcher starts the job, because
    # a child's ru_maxrss also counts the process it was forked from.
    launcher = (
        "import os, subprocess, sys\n"
        "proc = subprocess.Popen([sys.executable, '-m', 'hayesdist.cli', *sys.argv[1:]], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = ["series-check", "--p", "2", "--a", "8", "--ell", "1", "--Q", "1", "--d-max", "2"]
    proc = subprocess.run(
        [sys.executable, "-c", launcher, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    code, max_rss_kb = map(int, proc.stdout.split())
    assert code == 0
    assert max_rss_kb < 64 * 1024  # ru_maxrss is in KB on Linux


def test_validation_failure_exit_code(capsys):
    code, data = run_json(capsys, ["exact-dist", "--p", "3", "--ell", "1", "--Q", "2*x", "--k", "1"])
    assert code == 1
    assert data["error"] == "validation"


def test_weil_diagnostics(capsys):
    code, data = run_json(capsys, ["weil", "--p", "3", "--ell", "1", "--Q", "x"])
    assert code == 0 and data["pass"]
    nontrivial = [c for c in data["characters"] if "coeffs" in c]
    assert len(nontrivial) == 5
    assert all(c["coeffs"][0]["re"] == pytest.approx(1) for c in nontrivial)
    # entries j = 0..t+ell, each slack written from the abs() of its own complex value
    from hayesdist.chars import weil_bound

    for c in nontrivial:
        assert [e["j"] for e in c["coeffs"]] == [0, 1, 2]
        for e in c["coeffs"]:
            assert e["bound"] == weil_bound(e["j"], 1, 1, 3)
            assert e["slack"] == e["bound"] - abs(complex(e["re"], e["im"]))


def test_bounds_check_passes(capsys):
    code, data = run_json(capsys, ["bounds-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"])
    assert code == 0 and data["pass"]


def test_series_check(capsys):
    code, data = run_json(capsys, ["series-check", "--p", "2", "--ell", "1", "--Q", "x", "--d-max", "5"])
    assert code == 0 and data["pass"]


def test_regimes_table(capsys):
    code, data = run_json(
        capsys, ["regimes", "--p", "2", "--a", "4", "--ell", "1", "--k-list", "2,4", "--delta0", "0.05"]
    )
    assert code == 0
    rows = data["table"]
    assert [row["k"] for row in rows] == [2, 4]
    assert all(row["gamma"] == 0.0 for row in rows)  # t + ell - 1 = 0


@pytest.mark.parametrize(
    "argv",
    [
        [],  # no subcommand
        ["exact-dist", "--p", "3", "--ell", "1", "--Q", "x"],  # --k missing
        ["exact-dist", "--p", "3", "--ell", "1", "--Q", "x", "--k", "one"],
        ["regimes", "--p", "2", "--k-list", "2,x"],
        ["exact-dist", "--p", "3", "--k", "1", "--bogus"],
        ["exact-dist", "--p", "3", "--k", "1", "--max-enum", "-5"],
    ],
)
def test_usage_errors_are_validation_records(capsys, argv):
    # exit code 2 is reserved for budget-exceeded
    code, data = run_json(capsys, argv)
    assert code == 1
    assert data["error"] == "validation" and data["message"]


@pytest.mark.parametrize("argv", [["--help"], ["series-check", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as info:
        run(argv)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


def test_zero_denominator_is_a_validation_record(capsys):
    code, data = run_json(capsys, ["kernels", "cycle-average", "--j", "2", "--a-val", "1/0"])
    assert code == 1
    assert data == {"error": "validation", "message": "zero denominator in --a-val 1/0 or --b-val 1"}


@pytest.mark.parametrize(
    "argv",
    [
        ["exact-dist", "--p", "3", "--Q", "x", "--k", "1"],
        ["moments-check", "--p", "3", "--Q", "x", "--k", "1"],
        ["weil", "--p", "3", "--Q", "x"],
        ["bounds-check", "--p", "3", "--Q", "x"],
        ["rs", "--p", "3", "--k", "1", "--ell", "1"],
        ["series-check", "--p", "3", "--Q", "x", "--d-max", "2"],
        ["kernels", "phi", "--p", "2", "--Q", "x", "--j", "2"],
    ],
)
def test_csv_without_a_table_is_refused_before_any_work(capsys, monkeypatch, argv):
    def forbidden(args):
        raise AssertionError("a subcommand ran")

    for _, module in cli._SUBCOMMANDS.values():
        monkeypatch.setattr(importlib.import_module(f"hayesdist.commands.{module}"), "run", forbidden)
    code, data = run_json(capsys, argv + ["--format", "csv"])
    assert code == 1
    assert data["error"] == "validation" and "--format" in data["message"]


# ---------------------------------------------------------------------------
# The process entry point: run(), then gc.collect(1) and gc.freeze(), then exit
# ---------------------------------------------------------------------------

def _main(argv, **env):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env}
    return subprocess.run(
        [sys.executable, "-m", "hayesdist.cli", *argv], capture_output=True, env=env, timeout=120,
    )


def test_main_writes_the_bytes_of_run(tmp_path):
    argv = ["exact-dist", "--p", "5", "--ell", "2", "--Q", "x + 1", "--k", "3"]
    in_process, child = tmp_path / "run.json", tmp_path / "main.json"
    assert run(argv + ["--out", str(in_process)]) == 0
    proc = _main(argv + ["--out", str(child)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert child.read_bytes() == in_process.read_bytes()
    # the environment sets no budget
    proc = _main(argv + ["--out", str(child)], HAYESDIST_MAX_ENUM="1", HAYESDIST_MAX_CLASSES="1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert child.read_bytes() == in_process.read_bytes()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["exact-dist", "--p", "3", "--ell", "1", "--Q", "2*x", "--k", "1"], 1),
        (["exact-dist", "--p", "3", "--ell", "1", "--Q", "x", "--k", "one"], 1),
        (["exact-dist", "--p", "5", "--ell", "1", "--Q", "1", "--k", "1", "--max-enum", "16"], 2),
        (["moments-check", "--p", "2", "--ell", "1", "--Q", "1", "--k-min", "9", "--k", "9", "--max-enum", "16"], 2),
    ],
)
def test_main_keeps_the_failure_record(capsys, argv, code):
    assert run(argv) == code
    record = capsys.readouterr().out
    proc = _main(argv)
    assert proc.returncode == code
    assert proc.stdout.decode() == record
    assert record.endswith("}\n") and json.loads(record)["error"]


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("4", "4")])
def test_main_leaves_openblas_one_thread_unless_told_otherwise(monkeypatch, preset, seen):
    # numpy loads inside run(), after main() has set the default
    events = []
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    monkeypatch.setattr(cli, "run", lambda: events.append(os.environ.get("OPENBLAS_NUM_THREADS")) or 0)
    monkeypatch.setattr(cli.gc, "collect", lambda generation=2: None)
    monkeypatch.setattr(cli.gc, "freeze", lambda: None)
    with pytest.raises(SystemExit):
        cli.main()
    assert events == [seen]


def test_main_freezes_the_heap_only_after_run_returns(monkeypatch):
    events = []

    def fake_run():
        events.append("run")
        return 2

    monkeypatch.setattr(cli, "run", fake_run)
    monkeypatch.setattr(cli.gc, "collect", lambda generation=2: events.append(f"collect({generation})"))
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert events == ["run", "collect(1)", "freeze"]
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["approx", "--p", "2", "--a", "5", "--ell", "2", "--Q", "1", "--k", "4"],
        ["moments-check", "--p", "2", "--a", "3", "--ell", "2", "--Q", "x + 1", "--k", "3"],
        ["bounds-check", "--p", "2", "--a", "4", "--ell", "2", "--Q", "1", "--k", "3"],
        ["series-check", "--p", "2", "--ell", "1", "--Q", "x^5 + x^2 + 1", "--d-max", "8"],
    ],
    ids=["approx", "moments-check", "bounds-check", "series-check"],
)
def test_an_artifact_is_written_without_holding_its_records(tmp_path, argv):
    # the records are made one at a time as they are written, so the job's
    # traced allocations peak below the size of the artifact (2.3, 1.2, 0.6
    # and 0.15 MB here; holding the records took the peak to 4.0, 4.1, 1.9
    # and 0.78 MB)
    out = tmp_path / "artifact"
    argv = argv + ["--out", str(out)]
    assert run(argv) == 0  # imports and field tables
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size


# ---------------------------------------------------------------------------
# Output paths, regime inputs and the import scope of a job
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["weil", "--p", "3", "--Q", "x"],
        ["regimes", "--p", "3", "--k-list", "1", "--format", "csv"],
    ],
)
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_a_validation_record(capsys, tmp_path, argv, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, data = run_json(capsys, argv + ["--out", str(out)])
    assert code == 1
    assert data["error"] == "validation" and str(out) in data["message"]


@pytest.mark.parametrize(
    "extra, needle",
    [
        (["--p", "3", "--n", "0"], "n="),
        (["--p", "3", "--n", "7"], "n="),
        (["--p", "3", "--t", "-1"], "t="),
        (["--p", "3", "--ell", "-2"], "ell="),
        (["--p", "4"], "not prime"),
        (["--p", str(1 << 64)], "not below 2^64"),
        (["--p", "3", "--a", "0"], "extension degree"),
        (["--p", "5", "--delta0", "nan"], "delta0 must be finite"),
        (["--p", "5", "--delta0", "inf"], "delta0 must be finite"),
    ],
)
def test_regimes_input_validation(capsys, extra, needle):
    code, data = run_json(capsys, ["regimes", "--k-list", "1", *extra])
    assert code == 1
    assert data["error"] == "validation" and needle in data["message"]


def test_regimes_large_characteristic(capsys):
    # --p is tested by one deterministic Miller-Rabin, where trial division
    # ran for minutes: the prime 2^61 - 1 is accepted and a product of two
    # primes near 10^9 refused, each in well under a second
    start = time.perf_counter()
    code, data = run_json(capsys, ["regimes", "--p", str((1 << 61) - 1), "--k-list", "1"])
    assert code == 0 and data["table"][0]["q"] == (1 << 61) - 1
    code, data = run_json(capsys, ["regimes", "--p", str(1000000007 * 998244353), "--k-list", "1"])
    assert code == 1 and "not prime" in data["message"]
    assert time.perf_counter() - start < 1


_EXECUTED = """
import os, sys
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(getattr(args[0], "co_filename", "")))
code = None
try:
    exec(sys.argv[1])
except SystemExit as exc:
    code = exc.code
home = os.sep + "hayesdist" + os.sep
files = sorted(f.rsplit(home, 1)[1].replace(os.sep, "/") for f in ran if home in f)
modules = sorted(sys.modules)
import json  # after the modules are listed: a job must not import json itself
print(json.dumps([code, files, modules]))
"""


def _executed(snippet: str, *argv: str):
    """(exit code, hayesdist source files whose module code ran, numpy
    modules left in sys.modules) of `snippet` in a fresh interpreter, the
    files seen by an audit hook on exec, as paths under the package
    ("cli.py", "commands/weil.py")."""
    code, ran, modules = _executed_with_modules(snippet, *argv)
    return code, ran, {name for name in modules if name.split(".")[0] == "numpy"}


def _executed_with_modules(snippet: str, *argv: str, repeats: bool = False):
    """As `_executed`, with every module left in sys.modules; with
    `repeats`, the files as a sorted list with one entry per execution."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", _EXECUTED, snippet, *argv], capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    code, ran, modules = json.loads(proc.stdout.decode().splitlines()[-1])
    return code, ran if repeats else set(ran), set(modules)


_RUN_CLI = """
import runpy
sys.argv = ["hayesdist.cli", *sys.argv[2:]]
runpy.run_module("hayesdist.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize(
    "argv, executed",
    [
        (["weil", "--p", "3", "--ell", "1", "--Q", "x"], {"chars.py"}),
        (["kernels", "phi", "--p", "2", "--Q", "x", "--j", "2"], set()),
    ],
)
def test_a_job_runs_only_the_layers_it_calls(tmp_path, argv, executed):
    # as `python -m hayesdist.cli` runs it: the code of dist, comb and asym
    # never runs (cli leaves them in sys.modules as lazy modules, where the
    # benchmark's tracer looks them up); `kernels phi` runs neither hayes
    # nor any numpy module
    code, ran, numpy = _executed(_RUN_CLI, *argv, "--out", str(tmp_path / "a.json"))
    assert code == 0
    assert ran & {"chars.py", "dist.py", "comb.py", "asym.py"} == executed
    assert {"cli.py", "ffield.py"} <= ran
    if argv[0] == "kernels":
        assert "hayes.py" not in ran and not numpy
    else:
        assert "hayes.py" in ran and numpy


def test_importing_the_cli_lists_every_layer_without_running_it():
    # the benchmark's tracer wraps each layer, looked up in sys.modules, right
    # after `import hayesdist.cli`
    snippet = (
        "import sys, hayesdist.cli\n"
        "assert all(f'hayesdist.{m}' in sys.modules for m in ('ffield', 'hayes', 'chars', 'dist', 'comb', 'asym'))"
    )
    code, ran, numpy = _executed(snippet)
    assert code is None
    assert not ran & {"hayes.py", "chars.py", "dist.py", "comb.py", "asym.py"}
    assert not numpy


@pytest.mark.parametrize(
    "argv",
    [
        ["kernels", "phi", "--p", "2", "--a", "4", "--Q", "x^2 + x + 1", "--j", "3"],
        ["kernels", "phi", "--p", "2", "--a", "8", "--Q", "x^3 + x + 1", "--j", "4"],
        ["kernels", "truncated-binomial", "--m", "3", "--r", "1", "--n", "5", "--q", "3"],
        ["kernels", "cycle-average", "--j", "4", "--a-val", "1/2", "--b-val", "1"],
        ["regimes", "--p", "3", "--k-list", "1,2"],
        ["weil", "--p", "three"],
    ],
)
def test_scalar_jobs_never_import_numpy(tmp_path, argv):
    code, ran, numpy = _executed(_RUN_CLI, *argv, "--out", str(tmp_path / "a.out"))
    assert code == (1 if argv[0] == "weil" else 0)  # the weil line is a usage error
    assert not numpy, sorted(numpy)[:5]


# standard-library modules that only some jobs use, and what pulls them in:
# dataclasses (with inspect) nothing in the package any more, csv the CSV
# tables, fractions (with decimal) the exact rationals of comb, asym and dist,
# which the integer-only subcommands (exact-dist, rs, moments-check,
# series-check) never build, json a failure record or a CSV table's header
# (the JSON artifacts take their string encoder from json's C accelerator)
_JSON = {"json", "json.decoder", "json.scanner", "json.encoder"}
_HEAVY = {"dataclasses", "inspect", "csv", "fractions", "decimal", "numpy", *_JSON}
_INTEGER_JOB = {"dataclasses", "csv", "fractions", "decimal", *_JSON}  # numpy loads inspect


@pytest.mark.parametrize(
    "snippet, argv, absent",
    [
        ("import hayesdist.cli", [], _HEAVY),
        (_RUN_CLI, ["kernels", "phi", "--p", "2", "--a", "4", "--Q", "x^2 + x + 1", "--j", "3"], _HEAVY),
        (_RUN_CLI, ["weil", "--p", "5", "--ell", "2", "--Q", "x^2 + x + 2"], {"dataclasses", "csv", *_JSON}),
        (_RUN_CLI, ["exact-dist", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"], _INTEGER_JOB),
        (_RUN_CLI, ["rs", "--p", "5", "--k", "2", "--ell", "1"], _INTEGER_JOB),
        (_RUN_CLI, ["moments-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"], _INTEGER_JOB),
        (_RUN_CLI, ["series-check", "--p", "3", "--ell", "1", "--Q", "x^2 + 1", "--d-max", "4"], _INTEGER_JOB),
    ],
    ids=["import", "kernels-phi", "weil", "exact-dist", "rs", "moments-check", "series-check"],
)
def test_a_job_imports_only_the_standard_library_it_runs(tmp_path, snippet, argv, absent):
    if argv:
        argv = [*argv, "--out", str(tmp_path / "a.json")]
    code, ran, modules = _executed_with_modules(snippet, *argv)
    assert code == (0 if argv else None)
    assert not modules & absent, sorted(modules & absent)


# one job of each subcommand, small enough to run in a fraction of a second
_JOBS = {
    "exact-dist": ["--p", "3", "--ell", "1", "--Q", "x", "--k", "2"],
    "moments-check": ["--p", "3", "--ell", "1", "--Q", "x", "--k", "2"],
    "weil": ["--p", "3", "--ell", "1", "--Q", "x"],
    "bounds-check": ["--p", "3", "--ell", "1", "--Q", "x", "--k", "1"],
    "rs": ["--p", "5", "--k", "2", "--ell", "1"],
    "approx": ["--p", "3", "--ell", "1", "--Q", "x", "--k", "2"],
    "regimes": ["--p", "3", "--k-list", "1,2"],
    "series-check": ["--p", "3", "--ell", "1", "--Q", "x^2 + 1", "--d-max", "4"],
    "kernels": ["phi", "--p", "2", "--Q", "x", "--j", "2"],
}


def _command_modules(ran) -> set:
    return {f for f in ran if f.startswith("commands/") and f != "commands/__init__.py"}


def test_importing_the_cli_runs_no_command_module():
    code, ran, modules = _executed_with_modules("import hayesdist.cli")
    assert code is None
    assert "commands/__init__.py" in ran and not _command_modules(ran)


@pytest.mark.parametrize("sub", sorted(_JOBS))
def test_a_job_runs_only_its_own_command_module(tmp_path, sub):
    assert set(_JOBS) == set(cli._SUBCOMMANDS)
    code, ran, modules = _executed_with_modules(_RUN_CLI, sub, *_JOBS[sub], "--out", str(tmp_path / "a.out"))
    assert code == 0
    assert _command_modules(ran) == {f"commands/{cli._SUBCOMMANDS[sub][1]}.py"}


def test_a_command_line_without_a_subcommand_runs_every_command_module():
    # the usage error lists every subcommand, as the parser with all of them does
    code, ran, modules = _executed_with_modules(_RUN_CLI)
    assert code == 1
    assert _command_modules(ran) == {f"commands/{module}.py" for _, module in cli._SUBCOMMANDS.values()}


def test_the_cli_runs_once_as_main(tmp_path):
    # the command modules never import hayesdist.cli, which would run
    # cli.py a second time next to __main__
    argv = ["weil", *_JOBS["weil"], "--out", str(tmp_path / "a.json")]
    code, ran, modules = _executed_with_modules(_RUN_CLI, *argv, repeats=True)
    assert code == 0
    assert ran.count("cli.py") == 1
    assert "hayesdist.cli" not in modules and "hayesdist.commands.weil" in modules


def test_weil_does_not_load_numpy_ma(tmp_path):
    # np.unique would import numpy.ma; |G| = 600 has nontrivial characters
    argv = ["weil", "--p", "5", "--ell", "2", "--Q", "x^2 + x + 2"]
    code, ran, numpy = _executed(_RUN_CLI, *argv, "--out", str(tmp_path / "a.json"))
    assert code == 0
    assert "numpy" in numpy and "numpy.ma" not in numpy


_USAGE_TEXT = json.loads((Path(__file__).with_name("cli_usage.json")).read_text())


@pytest.mark.parametrize("line", sorted(_USAGE_TEXT["cases"]))
def test_help_and_usage_errors_match_the_full_parser(capsys, monkeypatch, line):
    """`build_parser` fills in only the invoked subcommand's arguments; the
    help texts and usage-error records stay those of the parser with all of
    them, as recorded in cli_usage.json (exit code, stdout, stderr at 80
    columns) under the Python version named there."""
    monkeypatch.setenv("COLUMNS", "80")

    def outcome():
        try:
            code = run(line.split())
        except SystemExit as exc:  # --help
            code = exc.code
        captured = capsys.readouterr()
        return [code, captured.out, captured.err]

    got = outcome()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    assert got == outcome()
    if _USAGE_TEXT["python"] == list(sys.version_info[:2]):
        assert got == _USAGE_TEXT["cases"][line]


@pytest.mark.parametrize(
    "sub, route, what, value",
    [
        # |G| = 5, n = 5: the oracle makes 25, 125 and 625 comparisons at k =
        # 0, 1, 2; the refusal of their sum comes before the oracle runs at k = 0
        ("moments-check", "enumeration_distributions_all", ORACLE, 25 + 125 + 625),
        # the one row run of the sieve for k = 0, 1, 2 touches 60 + 15 cells
        ("bounds-check", "sieve_rows", SIEVE, 60 + 15),
    ],
    ids=["moments-check", "bounds-check"],
)
def test_oracle_budget_refuses_before_any_k_runs(capsys, monkeypatch, sub, route, what, value):
    def ran(*args, **kwargs):
        raise AssertionError(f"{route} ran before the refusal")

    monkeypatch.setattr(f"hayesdist.dist.{route}", ran)
    argv = [sub, "--p", "5", "--ell", "1", "--Q", "1", "--k", "2", "--max-enum", str(value - 1)]
    code, record = run_json(capsys, argv)
    assert code == 2
    assert record == {"error": "budget-exceeded", "what": what, "value": value, "budget": value - 1}


@pytest.mark.parametrize(
    "argv, engine",
    [
        (["moments-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"], "subset_product_table"),
        (["moments-check", "--p", "3", "--a", "3", "--ell", "1", "--Q", "1", "--k", "1"], "character_rows"),
        (["bounds-check", "--p", "5", "--ell", "1", "--Q", "1", "--k", "2"], "subset_product_table"),
        (["bounds-check", "--p", "3", "--a", "3", "--ell", "1", "--Q", "1", "--k", "2"], "character_rows"),
        (["series-check", "--p", "3", "--ell", "2", "--Q", "x^2 + 1", "--d-max", "4"], "subset_product_table"),
        (["series-check", "--p", "3", "--a", "3", "--ell", "1", "--Q", "1", "--d-max", "2"], "character_rows"),
    ],
)
def test_a_command_forms_the_rows_of_all_its_runs_in_one_engine_call(capsys, monkeypatch, argv, engine):
    # S_j depends on neither k nor the degree: every k of moments-check and
    # bounds-check, and every degree of series-check, is served by one
    # subset-product table or one transform recurrence
    from hayesdist import dist, transform

    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(dist, "subset_product_table")
    spy(transform, "character_rows")
    code, data = run_json(capsys, argv)
    assert code == 0 and data["pass"]
    assert calls == [engine]


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds-check", "--p", "3", "--ell", "1", "--Q", "x^2 + 1", "--k", "1"],
        ["exact-dist", "--p", "5", "--ell", "1", "--Q", "x^2 + x + 2", "--k", "3"],
    ],
)
def test_a_job_factors_each_q_once(capsys, argv):
    # phi (through the group and the sieve's work count) asks for the factor
    # degrees of Q many times, the group for its factors and bounds-check for
    # the degrees again; all read one distinct-degree pass, run once
    from hayesdist.ffield import _ddf

    _ddf.cache_clear()
    code = run(argv)
    capsys.readouterr()
    assert code == 0
    info = _ddf.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits >= 2


_PUBLIC_NAMES = """
import importlib
import hayesdist
assert sorted(set(hayesdist.__all__) - set(dir(hayesdist))) == [], "dir() misses a public name"
for name in hayesdist.__all__:
    home = hayesdist._HOME_OF.get(name)
    want = getattr(importlib.import_module(f"hayesdist.{home}"), name) if home else hayesdist.__version__
    assert getattr(hayesdist, name) is want, name
try:
    hayesdist.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("no AttributeError")
assert hayesdist.dist is importlib.import_module("hayesdist.dist")
namespace = {}
exec("from hayesdist import *", namespace)
assert set(hayesdist.__all__) <= set(namespace)
"""


def test_public_names_resolve_on_first_access():
    # `import hayesdist` runs no layer; each public name resolves, from its
    # home module, and is listed by dir(); the star import still works
    assert _executed("import hayesdist") == (None, {"__init__.py"}, set())
    assert _executed(_PUBLIC_NAMES)[0] is None
