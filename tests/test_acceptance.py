"""End-to-end verification suite.

Each test covers one acceptance criterion of the build: exact structure
sizes, the factorial-moment identity, the group-algebra series identities,
the coordinate sieve, cycle-average route agreement, the character layer,
the certified inequality suite, the binomial-approximation envelope, the
Reed-Solomon cross-check, the asymptotic tracking report, and the regime
predicates.  Identities are asserted with zero tolerance; inequalities are
checked against upward-rounded right sides.  Each test prints one summary
line (visible with `pytest -s`).
"""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hayesdist.asym import (
    binomial_envelope,
    binomial_pmf,
    condition_a,
    gamma_at_most_one,
    log_cycle_average_bound,
    pmf_remainder_bound,
    w_remainder_bound,
)
from hayesdist.chars import CharacterTable, l_polynomial, weil_bound
from hayesdist.cli import run
from hayesdist.comb import (
    binomial_lower_bound,
    coordinate_sieve_check,
    cycle_average_bruteforce,
    cycle_average_closed,
    cycle_average_series,
    truncated_binomial_sum,
)
from hayesdist.dist import (
    default_point_set,
    enumeration_comparisons,
    enumeration_distributions_all,
    exact_distributions_all,
    factorial_moments,
    factorization_counts,
    pmf_prediction,
    rs_census,
    rs_distance_row,
    rs_group,
    verify_series_identities,
)
from hayesdist.ffield import FieldSpec, Polynomial, distinct_irreducible_factors, enumerate_monic, phi
from references import character_values, codeword_agreement_row

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]  # q = 2, 3, 4, 5


def modulus_texts(spec: FieldSpec) -> list[str]:
    """1, x, x+1, one irreducible quadratic, one split quadratic."""
    irred2 = spec.monic_irreducibles(2)[0].to_text()
    return ["1", "x", "x + 1", irred2, "x^2 + x"]


def grid_keys(fields):
    for p, a in FIELDS:
        spec = fields(p, a)
        for ell in (0, 1, 2):
            for q_text in modulus_texts(spec):
                yield p, a, ell, q_text


def report(name: str, detail: str) -> None:
    print(f"\n[acceptance] {name}: PASS ({detail})")


def test_structure_sizes(fields, groups):
    cases = 0
    for p, a, ell, q_text in grid_keys(fields):
        spec = fields(p, a)
        G = groups(p, a, ell, q_text)
        t = G.params.t
        assert G.order == spec.q ** ell * phi(t, G.params.Q), (p, a, ell, q_text)
        for k in range(0, 4):
            counts = G.monic_class_counts(k + t + ell)
            assert all(c == spec.q ** k for c in counts), (p, a, ell, q_text, k)
            cases += 1
    report("structure sizes", f"{cases} grid cells, class counts exact")


def test_moment_identity(fields, groups):
    checked = 0
    comparisons = 0
    for p, a, ell, q_text in grid_keys(fields):
        spec = fields(p, a)
        G = groups(p, a, ell, q_text)
        t = G.params.t
        points = default_point_set(G.params)
        n = len(points)
        for k in range(0, 4):
            dists = enumeration_distributions_all(G, k, points)
            comparisons += enumeration_comparisons(G, k, n)
            Ws = {
                j: factorization_counts(G, j, k, points)
                for j in range(k + 1, k + t + ell + 1)
            }
            for eps in range(G.order):
                moments = factorial_moments(dists[eps], k + t + ell)
                for j, m in enumerate(moments):
                    if j <= k:
                        want = Fraction(math.comb(n, j), spec.q ** j)
                    else:
                        want = Fraction(Ws[j][eps], spec.q ** k)
                    assert m == want, (p, a, ell, q_text, k, eps, j)
                    checked += 1
    report("moment identity", f"{checked} exact moment comparisons; enumeration, {comparisons} comparisons")


def test_series_identities(fields, groups):
    total = 0
    for p in (2, 3):
        for ell in (0, 1, 2):
            for q_text in ("1", "x", "x + 1"):
                G = groups(p, 1, ell, q_text)
                d_max = G.params.t + ell + 3
                passed, checks, _ = verify_series_identities(G, d_max)
                checks = list(checks)
                assert passed, (p, ell, q_text, [c for c in checks if not c["pass"]][:3])
                total += len(checks)
    report("series identities", f"{total} slice checks, all exact")


def test_coordinate_sieve():
    rng = random.Random(20240)
    for trial in range(50):
        nd = rng.randint(1, 5)
        j = rng.randint(1, 4)
        D = list(range(nd))
        table = {
            xs: Fraction(rng.randint(-30, 30), rng.randint(1, 15))
            for xs in itertools.product(D, repeat=j)
        }
        direct, sieved = coordinate_sieve_check(j, D, table)
        assert direct == sieved, (trial, nd, j)
    report("coordinate sieve", "50 seeded rational tables, both sides equal")


def test_cycle_average_triple_agreement():
    cases = 0
    for j in range(0, 9):
        for p in (2, 3, 5):
            for av in (1, 2, Fraction(7, 2)):
                for bv in (0, Fraction(1, 2), 1):
                    x = cycle_average_bruteforce(j, av, bv, p)
                    y = cycle_average_series(j, av, bv, p)
                    z = cycle_average_closed(j, av, bv, p)
                    assert x == y == z, (j, p, av, bv)
                    cases += 1
    report("cycle-average agreement", f"{cases} (j,p,a,b) cells, three routes equal")


def test_character_layer(fields, groups):
    n_groups = 0
    n_chars = 0
    for p, a, ell, q_text in grid_keys(fields):
        spec = fields(p, a)
        q = spec.q
        G = groups(p, a, ell, q_text)
        t = G.params.t
        table = CharacterTable(G)
        size = G.order
        M = character_values(table, range(size))
        assert np.abs(M @ M.conj().T / size - np.eye(size)).max() < 1e-9
        assert np.abs(M.conj().T @ M / size - np.eye(size)).max() < 1e-9
        # the definition: chi_e(c) = exp(2 pi i sum_i e_i d_i / n_i), e in itertools.product order
        exps = np.array(list(itertools.product(*[range(n) for n in G.orders])), dtype=float)
        phases = (exps / np.array(G.orders, dtype=float)).reshape(size, -1) @ G.exponents(range(size)).T
        reference = np.exp(2j * np.pi * phases)
        for j in range(0, 7):
            counts = np.array(G.monic_class_counts(j), dtype=np.float64)
            sums = table.sums(j)
            assert np.abs(sums - reference @ counts).max() <= 1e-9 * max(1.0, q ** j), (p, a, ell, q_text, j)
            for chi in range(1, size):
                bound = weil_bound(j, t, ell, q)
                assert abs(sums[chi]) <= bound + 1e-9 * max(1.0, q ** (j / 2)), (
                    p, a, ell, q_text, chi, j,
                )
        for chi in range(1, size):
            L = l_polynomial(table, chi)
            for j in range(ell + t, len(L.coeffs)):
                assert abs(L.coeffs[j]) <= 1e-6 * q ** (j / 2), (p, a, ell, q_text, chi, j)
            for z in L.roots:
                m = abs(z)
                assert min(abs(m - 1), abs(m - q ** -0.5)) <= 1e-6, (p, a, ell, q_text, chi)
            n_chars += 1
        n_groups += 1
    report("character layer", f"{n_groups} groups, {n_chars} nontrivial characters verified")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "false as stated for reducible moduli: a character trivial on the residue "
        "components is induced from a smaller conductor and its series acquires an "
        "explicit factor (1 - chi0(P) z) per prime P | Q off the conductor; with "
        "q=4, ell=1, Q=x^2+x there is a character whose polynomial is exactly "
        "(1-z)^2, i.e. two roots at 1.  The clause holds for primitive characters."
    ),
)
def test_character_layer_single_root_at_one(fields, groups):
    """At most one root of any nontrivial character polynomial equals 1,
    asserted literally over the whole structure grid."""
    for p, a, ell, q_text in grid_keys(fields):
        G = groups(p, a, ell, q_text)
        table = CharacterTable(G)
        for chi in range(1, table.order):
            L = l_polynomial(table, chi)
            at_one = sum(1 for z in L.roots if abs(z - 1) <= 1e-6)
            assert at_one <= 1, (p, a, ell, q_text, table.exponents[chi].tolist())


def test_bound_suite(fields, groups):
    # coprime-count sandwich on the structure grid
    sandwich = 0
    for p, a in FIELDS:
        spec = fields(p, a)
        q = spec.q
        for q_text in modulus_texts(spec):
            Q = Polynomial.from_text(spec, q_text)
            drop = sum(Fraction(1, q ** P.degree) for P in distinct_irreducible_factors(Q))
            for j in range(0, 7):
                val = phi(j, Q)
                assert q ** j * (1 - drop) <= val <= q ** j
                sandwich += 1

    # Stirling-type lower bound for binomials
    for M in range(2, 31):
        for m in range(1, M):
            assert binomial_lower_bound(M, m) <= math.comb(M, m)

    # truncated binomial sum: floor (where the terms decrease) and proximity
    for q in range(2, 10):
        for n in range(0, 13):
            for r in range(0, n + 1):
                target = Fraction(q - 1, q) ** (n - r)
                for m in range(0, 13):
                    mu = truncated_binomial_sum(m, r, n, q)
                    if m >= 1 and n - r <= q:
                        assert mu >= Fraction(q - n + r, q), (q, n, r, m)
                    assert abs(mu - target) <= Fraction(math.comb(n - r, m + 1), q ** (m + 1))

    # log bounds on the cycle average dominate the exact values
    for p in (2, 3, 5):
        for n in range(1, 13):
            for j in range(1, 9):
                for g in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                    exact = math.log(cycle_average_series(j, n, g, p))
                    if j <= n:
                        assert exact <= log_cycle_average_bound(j, n, g, p, "a")
                    if j <= 2 * p * n * g:
                        assert exact <= log_cycle_average_bound(j, n, g, p, "b")

    # certified remainder bounds dominate exact gaps on the structure grid
    w_checked = 0
    pmf_checked = 0
    comparisons = 0
    skipped = []
    for p, a, ell, q_text in grid_keys(fields):
        if ell < 1:
            continue
        spec = fields(p, a)
        q = spec.q
        G = groups(p, a, ell, q_text)
        t = G.params.t
        points = default_point_set(G.params)
        n = len(points)
        if not gamma_at_most_one(n, q, t, ell):
            skipped.append((q, ell, q_text))
            continue
        for k in range(0, 4):
            dists = enumeration_distributions_all(G, k, points)
            comparisons += enumeration_comparisons(G, k, n)
            for j in range(k + 1, k + t + ell + 1):
                W = factorization_counts(G, j, k, points)
                main = Fraction(phi(k + t + ell - j, G.params.Q) * math.comb(n, j), G.order)
                bound = w_remainder_bound(j, n, q, k, t, ell, G.order)
                worst = max(abs(w - main) for w in W)
                assert worst <= bound, (p, a, ell, q_text, k, j, worst, bound)
                w_checked += 1
            for r in range(0, k + t + ell + 1):
                rhs = pmf_remainder_bound(r, n, q, k, t, ell)
                prediction = pmf_prediction(G.params, n, r, k)
                for eps in range(G.order):
                    lhs = abs(dists[eps].probability(r) - prediction)
                    assert lhs <= rhs, (p, a, ell, q_text, k, r, eps)
                    pmf_checked += 1
    report(
        "bound suite",
        f"{sandwich} sandwich checks, {w_checked} factorization and {pmf_checked} pmf "
        f"remainders dominated, {len(skipped)} cells skipped (gamma > 1): {skipped}; "
        f"enumeration, {comparisons} comparisons",
    )


def test_remainder_bounds_past_the_oracle(tmp_path):
    # q = 32, ell = 2, Q = 1 (|G| = 1024, n = 32) for k = 0..6: the oracle
    # would need |G| q^6 n = 2^45 comparisons at k = 6; the sieve's rows run
    # every remainder check; the worst lhs/rhs ratio is reported, not ruled.
    # One engine forms the rows of all k: the DP, whose one table counts
    # fewer cells than the transform for the whole run
    out = tmp_path / "bounds.json"
    code = run(["bounds-check", "--p", "2", "--a", "5", "--ell", "2", "--Q", "1", "--k", "6", "--out", str(out)])
    data = json.loads(out.read_text())
    assert code == 0 and data["pass"] is True and data["engine"] == "sieve"
    remainders = [c for c in data["checks"] if c["name"].startswith(("factorization remainder ", "pmf remainder "))]
    assert all(c["pass"] for c in remainders)
    assert len({c["name"] for c in remainders if c["name"].startswith("factorization")}) == 7 * 2
    worst = max(remainders, key=lambda c: Fraction(c["lhs"]) / Fraction(c["rhs"]))
    report(
        "remainder",
        f"q=32, ell=2, Q=1, k=0..6: {len(remainders)} remainder checks, worst lhs/rhs = "
        f"{float(Fraction(worst['lhs']) / Fraction(worst['rhs'])):.3g} ({worst['name']}); "
        f"{data['engine']}, " + ", ".join(f"{value} {key}" for key, value in data["work"].items()),
    )


def test_binomial_envelope(fields, groups):
    budget = 10 ** 7
    checked = 0
    for p, a in [(2, 2), (5, 1), (2, 3), (3, 2)]:  # q = 4, 5, 8, 9
        spec = fields(p, a)
        q = spec.q
        G = groups(p, a, 1, "1")
        n = q  # D is the whole field
        for k in range(4, 8):
            if q ** k > budget:
                continue
            dists = exact_distributions_all(G, k)
            for eps in range(G.order):
                for r in range(0, k):
                    if r > n:
                        # no polynomial has more distinct roots than |D| = n,
                        # and both sides of the envelope inequality are zero
                        assert dists[eps].probability(r) == 0
                        continue
                    gap = abs(dists[eps].probability(r) - binomial_pmf(r, n, q))
                    assert gap <= binomial_envelope(r, n, q, k), (q, k, eps, r)
                    checked += 1
    report("binomial envelope", f"{checked} exact (q,k,eps,r) comparisons, zero violations")


def test_rs_crosscheck(fields):
    words = 0
    for p, a in [(2, 1), (3, 1), (2, 2)]:  # q = 2, 3, 4
        spec = fields(p, a)
        for ell in (1, 2):
            G = rs_group(spec, ell)
            for k in (1, 2, 3):
                for f in enumerate_monic(spec, k + ell):
                    row = rs_distance_row(f, k, ell, G)
                    assert row.counts == codeword_agreement_row(f, k), (spec.q, k, ell, f.to_text())
                    words += 1
    census = rs_census(fields(2, 1), 1, 1)
    assert census["word_totals"] == {"deep-hole": 2, "ordinary": 2, "neither": 0}
    deep_words = {w["word"] for w in census["words"] if w["kind"] == "deep-hole"}
    assert deep_words == {"x^2", "x^2 + 1"}
    zero_class = [c for c in census["classes"] if c["rep"] == "x"]
    assert zero_class and zero_class[0]["kind"] == "deep-hole"
    report("rs cross-check", f"{words} received words match the codeword oracle")


def test_asymptotic_tracking_report(tmp_path):
    budget = 10 ** 7
    worsts = {}
    for p, a in [(2, 4), (5, 2)]:  # q = 16, 25
        q = p ** a
        k = max(kk for kk in range(1, 10) if q ** kk <= budget)
        out = tmp_path / f"tracking_q{q}.json"
        code = run(
            ["approx", "--p", str(p), "--a", str(a), "--ell", "1", "--Q", "1",
             "--k", str(k), "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        rows = data["table"]
        assert rows, "report must contain rows"
        assert all(math.isfinite(row["ratio_to_mu"]) for row in rows)
        tracked = [abs(row["ratio_to_mu"] - 1) for row in rows if row["r"] <= k - 2]
        worst = max(tracked)
        assert worst < 0.25, (q, k, worst)
        worsts[q] = (k, worst)
    report(
        "asymptotic tracking",
        "; ".join(f"q={q}: k={k}, max |ratio-1| = {w:.4f}" for q, (k, w) in worsts.items()),
    )


def test_regime_predicates():
    worked = condition_a(2, 1 / 3, 0.0, 0.1)
    assert bool(worked) and worked.lhs == pytest.approx(0.2616, abs=2e-4)
    rng = random.Random(1234)
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        c = rng.uniform(0.05, (p - 1) / (p + 1))
        gmax = (p - 1) / (p * math.log(2 * p)) * c * math.log(1 / c)
        gamma = rng.uniform(0.0, gmax)
        assert bool(condition_a(p, c, gamma, 1e-9)), (p, c, gamma)
    report("regime predicates", "worked value plus 100 sampled sufficiency points")
