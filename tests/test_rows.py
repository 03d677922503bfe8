"""The array polynomial kernel (`FieldSpec` row methods) against the
object-level `Polynomial` arithmetic, and the verification oracles built on
it (factorization counts, the series check's joint table, the enumeration
oracle's targets and agreement histograms) against the routes they replaced,
kept here as references."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hayesdist import dist
from hayesdist.dist import (
    _validated_points,
    default_point_set,
    enumeration_distributions_all,
    factorization_counts,
    joint_zero_counts,
)
from hayesdist.ffield import FieldSpec, Polynomial, distinct_roots_in, enumerate_monic
from hayesdist.hayes import MONIC_BLOCK_ROWS, ClassGroup, HayesParams
from references import member_base

# (p, a, modulus): q = 2, 3, 4, 8, 9, 25; GF(8) with its non-default modulus
FIELDS = [(2, 1, None), (3, 1, None), (2, 2, None), (2, 3, (1, 1, 0, 1)), (3, 2, None), (5, 2, None)]

# (field, ell, Q): t = 0..3, ell = 0..2, repeated factors (x + 1)^2 over GF(3) and GF(25)
GRID = [
    ((2, 1, None), 0, "1"),
    ((2, 1, None), 2, "x^3 + x + 1"),
    ((3, 1, None), 1, "x^2 + 2*x + 1"),
    ((3, 1, None), 0, "x^3 + 2*x + 1"),
    ((3, 1, None), 2, "x"),
    ((2, 2, None), 1, "x + 2"),
    ((2, 3, (1, 1, 0, 1)), 1, "x + 3"),
    ((2, 3, (1, 1, 0, 1)), 0, "x^2 + x + 1"),
    ((3, 2, None), 1, "x^2 + 1"),
    ((5, 2, None), 1, "1"),
    ((5, 2, None), 0, "x^2 + 2*x + 1"),
]

_groups: dict = {}


def grid_group(field, ell, q_text) -> ClassGroup:
    key = (field, ell, q_text)
    if key not in _groups:
        spec = FieldSpec(*field)
        _groups[key] = ClassGroup(HayesParams(ell, Polynomial.from_text(spec, q_text)))
    return _groups[key]


def random_subset(pts, rng):
    return tuple(a for a in pts if rng.random() < 0.5)


# ---------------------------------------------------------------------------
# Object-level references (the routes the array kernel replaced)
# ---------------------------------------------------------------------------

def labelled_blocks(group, polys, size=1 << 10):
    """Blocks of at most `size` of the monic polynomials `polys` (all of one
    degree), each with the array of their classes (-1 where gcd(f, Q) != 1)."""
    polys = iter(polys)
    while block := list(itertools.islice(polys, size)):
        yield block, group.classes_of([f.index_coeffs() for f in block])


def factorization_counts_reference(group, j, k, points=None):
    """Every product g * prod_{a in S} (x - a) as a `Polynomial`."""
    params = group.params
    spec = params.spec
    pts = _validated_points(params, points)
    deg_g = k + params.t + params.ell - j
    linear = {a: Polynomial(spec, (spec.neg(a), spec.one)) for a in pts}

    def products():
        for S in itertools.combinations(pts, j):
            prod = Polynomial.one(spec)
            for a in S:
                prod = prod * linear[a]
            for g in enumerate_monic(spec, deg_g):
                yield g * prod

    W = np.zeros(group.order + 1, dtype=np.int64)  # slot 0: not coprime to Q
    for _, classes in labelled_blocks(group, products()):
        W += np.bincount(classes + 1, minlength=len(W))
    return W[1:].tolist()


def joint_zero_counts_reference(group, d, points=None):
    """joint[class][r] by counting the roots of each monic `Polynomial`."""
    spec = group.params.spec
    pts = _validated_points(group.params, points)
    n = len(pts)
    joint = [[0] * (n + 1) for _ in range(group.order)]
    for block, classes in labelled_blocks(group, enumerate_monic(spec, d)):
        for f, cls in zip(block, classes.tolist()):
            if cls >= 0:
                joint[cls][distinct_roots_in(f, pts)] += 1
    return joint


def targets_reference(group, k, points):
    """-base(a) / Q(a) per class and point, base = member_base(eps, k + t + ell)."""
    params = group.params
    spec = params.spec
    Q = params.Q
    out = []
    for eps in range(group.order):
        base = member_base(group, eps, k + params.t + params.ell)
        out.append([spec.neg(spec.mul(base(a), spec.inv(Q(a)))).index for a in points])
    return out


def agreement_histograms_reference(spec, k, point_idx, targets):
    """The per-target loop: for each high-coefficient tuple, the full
    evaluation block compared with every target row in turn."""
    q = spec.q
    n = len(point_idx)
    m = targets.shape[0]
    hists = np.zeros((m, n + 1), dtype=np.int64)
    if n == 0:
        hists[:, 0] = q ** k
        return hists
    add = spec.add_table
    mul = spec.mul_table
    pts = np.array(point_idx, dtype=np.intp)
    pw = np.zeros((max(k, 1), n), dtype=np.intp)
    pw[0] = 1
    for i in range(1, k):
        pw[i] = mul[pw[i - 1], pts]
    j_low = 0
    while j_low < k and q ** (j_low + 1) <= 1 << 16:
        j_low += 1
    block = np.zeros((1, n), dtype=np.uint8)
    coeff_vals = np.arange(q, dtype=np.intp)
    for i in range(j_low):
        contrib = mul[coeff_vals[:, None], pw[i][None, :]]
        block = add[block[:, None, :], contrib[None, :, :]].reshape(-1, n)
    tgt = targets.astype(np.uint8)
    for high in itertools.product(range(q), repeat=k - j_low):
        e = np.zeros(n, dtype=np.uint8)
        for offset, c in enumerate(high):
            if c:
                e = add[e, mul[c, pw[j_low + offset]]]
        total = add[block, e[None, :]]
        for ti in range(m):
            agree = (total == tgt[ti][None, :]).sum(axis=1)
            hists[ti] += np.bincount(agree, minlength=n + 1)
    return hists


def array_targets(group, k, points):
    """The target rows that enumeration_distributions_all hands to the agreement
    kernel.  The kernel is stubbed out, so the budget admits its comparisons
    whatever their number."""
    seen = []

    def capture(spec, k, point_idx, targets):
        seen.append(np.array(targets))
        return np.zeros((len(targets), len(point_idx) + 1), dtype=np.int64)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "_agreement_histograms", capture)
        budget = dist.enumeration_comparisons(group, k, len(points))
        enumeration_distributions_all(group, k, points, budget=budget)
    return seen[0].reshape(group.order, len(points)).tolist()


# ---------------------------------------------------------------------------
# The row kernel against Polynomial
# ---------------------------------------------------------------------------

def padded(f: Polynomial, width: int) -> list[int]:
    cs = list(f.index_coeffs())
    return cs + [0] * (width - len(cs))


@pytest.mark.parametrize("field", FIELDS)
class TestRowKernel:
    def test_mul_rows_matches_polynomial_product(self, field):
        spec = FieldSpec(*field)
        rng = np.random.default_rng(spec.q)
        for wa, wb in [(1, 1), (1, 4), (3, 2), (4, 4), (6, 3)]:
            A = rng.integers(0, spec.q, (40, wa), dtype=np.uint8)
            B = rng.integers(0, spec.q, (40, wb), dtype=np.uint8)
            got = spec.mul_rows(A, B)
            assert got.shape == (40, wa + wb - 1)
            for a, b, row in zip(A, B, got.tolist()):
                want = Polynomial(spec, a.tolist()) * Polynomial(spec, b.tolist())
                assert row == padded(want, wa + wb - 1), (a, b)

    def test_eval_rows_matches_polynomial_call(self, field):
        spec = FieldSpec(*field)
        rng = np.random.default_rng(spec.q + 1)
        everywhere = [a.index for a in spec.elements]
        for width in (1, 2, 5):
            rows = rng.integers(0, spec.q, (30, width), dtype=np.uint8)
            vals = spec.eval_rows(rows, everywhere)
            assert vals.shape == (30, spec.q) and vals.dtype == np.uint8
            for row, got in zip(rows, vals.tolist()):
                f = Polynomial(spec, row.tolist())
                assert got == [f(a).index for a in spec.elements], row
        assert spec.eval_rows(rows, []).shape == (30, 0)

    def test_zero_counts_match_distinct_roots(self, field):
        spec = FieldSpec(*field)
        rng = random.Random(spec.q)
        pts = random_subset(spec.elements, rng)
        for d in (0, 1, 2, 3):
            rows = spec.monic_rows(d)[:700]
            got = (spec.eval_rows(rows, [a.index for a in pts]) == 0).sum(axis=1).tolist()
            assert got == [distinct_roots_in(Polynomial(spec, r), pts) for r in rows.tolist()], d

    def test_mod_rows_matches_polynomial_remainder(self, field):
        spec = FieldSpec(*field)
        rng = np.random.default_rng(spec.q + 2)
        for s in (0, 1, 3):
            mod = Polynomial(spec, [*rng.integers(0, spec.q, s).tolist(), 1])
            rows = rng.integers(0, spec.q, (30, 5), dtype=np.uint8)
            got = spec.mod_rows(rows, mod.index_coeffs())
            assert got.shape == (30, s)
            for row, rem in zip(rows, got.tolist()):
                assert rem == padded(Polynomial(spec, row.tolist()) % mod, s)

    def test_monic_rows_in_enumeration_order(self, field):
        spec = FieldSpec(*field)
        for d in range(4):
            if spec.q ** d > 1000:
                break
            want = [f.index_coeffs() for f in enumerate_monic(spec, d)]
            assert [tuple(r) for r in spec.monic_rows(d).tolist()] == want
            for max_rows in (1, spec.q, 50):
                blocks = list(spec.monic_row_blocks(d, max_rows))
                assert all(len(b) <= max_rows for b in blocks)
                assert [tuple(r) for b in blocks for r in b.tolist()] == want


# ---------------------------------------------------------------------------
# The monic-enumeration kernel against the row kernel
# ---------------------------------------------------------------------------

# (field, ell, Q): ell = 0; Q = 1, x^2 (a repeated factor), irreducible of
# degree 2 and 3; the trivial group; t + ell up to 5
ENUMERATION_GRID = [
    ((3, 1, None), 0, "x^2 + 1"),
    ((2, 1, None), 1, "1"),
    ((3, 1, None), 1, "x^2"),
    ((2, 1, None), 2, "x^3 + x + 1"),
    ((5, 1, None), 1, "x^2 + 2"),
    ((2, 2, None), 2, "1"),
    ((3, 1, None), 0, "1"),
]


def enumeration_blocks_reference(G, d, point_idx, max_rows):
    """Per block of `monic_row_blocks`: the zero counts by `eval_rows`, the
    residues by `mod_rows`, the leading digits read off the rows, and the
    classes by `classes_of`."""
    spec = G.params.spec
    ell = G.params.ell
    for rows in spec.monic_row_blocks(d, max_rows):
        zeros = (spec.eval_rows(rows, point_idx) == 0).sum(axis=1)
        residues = spec.mod_rows(rows, G.params.Q.index_coeffs()).T
        leading = np.array([rows[:, d - j] if j <= d else np.zeros(len(rows)) for j in range(1, ell + 1)])
        yield zeros, residues, leading.reshape(ell, len(rows)), G.classes_of(rows)


def assert_enumeration_matches(G, d, pts, max_rows):
    """`FieldSpec.monic_blocks` and `ClassGroup.monic_class_blocks` against
    the reference, rows in the same order.  The reference has one block per
    low prefix, q^F rows each; a block of the kernel joins max_rows // q^F
    of them in turn (the last block may hold fewer)."""
    spec, params = G.params.spec, G.params
    point_idx = [a.index for a in pts]
    want = list(enumeration_blocks_reference(G, d, point_idx, max_rows))
    got = list(spec.monic_blocks(d, point_idx, params.Q.index_coeffs(), params.ell, max_rows))
    labelled = list(G.monic_class_blocks(d, point_idx, max_rows))
    per = max(1, max_rows // len(want[0][0]))
    sizes = [sum(len(block[0]) for block in want[i:i + per]) for i in range(0, len(want), per)]
    assert [len(block[0]) for block in got] == [len(block[0]) for block in labelled] == sizes, (d, max_rows)
    assert max(sizes) <= max(max_rows, 1)

    def joined(blocks, i):
        return np.concatenate([np.asarray(block[i]).reshape(-1, len(block[0])) for block in blocks], axis=1).tolist()

    assert joined(got, 0) == joined(labelled, 1) == joined(want, 0), (d, max_rows)
    assert joined(got, 1) == joined(want, 1), (d, max_rows)
    assert joined(got, 2) == joined(want, 2), (d, max_rows)
    assert joined(labelled, 0) == joined(want, 3), (d, max_rows)


def test_consecutive_prefixes_share_a_block():
    # q = 3, ell = 1, Q = x^2: at d = 4 and max_rows = 20 the table holds the
    # 9 monic quadratics g (F = 2), and a block joins the g's of two of the
    # 9 low prefixes: 81 polynomials in 4 blocks of 18 rows and one of 9
    G = grid_group((3, 1, None), 1, "x^2")
    pts = default_point_set(G.params)
    blocks = list(G.params.spec.monic_blocks(4, [a.index for a in pts], G.params.Q.index_coeffs(), 1, 20))
    assert [len(zeros) for zeros, _, _ in blocks] == [18] * 4 + [9]
    assert_enumeration_matches(G, 4, pts, 20)


@pytest.mark.parametrize("field, ell, q_text", ENUMERATION_GRID)
def test_enumeration_kernel_matches_the_row_kernel(monkeypatch, field, ell, q_text):
    # d below and above t + ell; one block (q^d <= max_rows), several blocks
    # of the largest F with q^F <= max_rows, and F < ell (q^ell above the
    # block size); the default points, none, and a random subset; the joint
    # table in each block size against the object-level reference
    G = grid_group(field, ell, q_text)
    q = G.params.spec.q
    rng = random.Random(repr((field, ell, q_text)))
    default = default_point_set(G.params)
    for pts in (default, (), random_subset(default, rng)):
        for d in range(G.params.t + ell + 3):
            if q ** d > 800:
                break
            want = joint_zero_counts_reference(G, d, pts)
            for max_rows in (MONIC_BLOCK_ROWS, q ** d, q ** 2 - 1, q, 1):
                assert_enumeration_matches(G, d, pts, max_rows)
                monkeypatch.setattr(dist, "MONIC_BLOCK_ROWS", max_rows)
                assert joint_zero_counts(G, d, pts).tolist() == want, (d, max_rows)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_enumeration_kernel_random(data):
    field = data.draw(st.sampled_from(FIELDS), label="field")
    spec = FieldSpec(*field)
    q = spec.q
    t, ell = data.draw(
        st.sampled_from([(t, ell) for t in range(4) for ell in range(3) if q ** (t + ell) <= 125]), label="t, ell"
    )
    low = data.draw(st.lists(st.integers(0, q - 1), min_size=t, max_size=t), label="Q")
    G = ClassGroup(HayesParams(ell, Polynomial(spec, (*low, 1))))
    default = default_point_set(G.params)
    keep = data.draw(st.lists(st.booleans(), min_size=len(default), max_size=len(default)), label="D")
    pts = tuple(a for a, kept in zip(default, keep) if kept)
    d = data.draw(st.integers(0, max(d for d in range(8) if q ** d <= 700)), label="d")
    max_rows = data.draw(st.sampled_from([1, 2, 5, 64, MONIC_BLOCK_ROWS]), label="max_rows")
    assert_enumeration_matches(G, d, pts, max_rows)


# ---------------------------------------------------------------------------
# The oracles on the kernel against their object-level routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, ell, q_text", GRID)
class TestOracleRoutes:
    def test_targets_match_member_base(self, field, ell, q_text):
        G = grid_group(field, ell, q_text)
        params = G.params
        pts = default_point_set(params)
        for k in range(4):
            d = k + params.t + params.ell
            rows = G.member_base_rows(d).tolist()
            assert rows == [padded(member_base(G, eps, d), d + 1) for eps in range(G.order)], k
            assert array_targets(G, k, pts) == targets_reference(G, k, pts), k

    def test_factorization_counts_match_reference(self, field, ell, q_text):
        G = grid_group(field, ell, q_text)
        params = G.params
        rng = random.Random(repr((field, ell, q_text)))
        default = default_point_set(params)
        # default D, no points, a random subset and a pair (so that j > n occurs)
        for pts in (default, (), random_subset(default, rng), default[:2]):
            for k in range(3):
                for j in range(k + 1, k + params.t + params.ell + 1):
                    if dist.factorization_pairs(G, j, k, len(pts)) > 3000:
                        continue
                    want = factorization_counts_reference(G, j, k, pts)
                    assert factorization_counts(G, j, k, pts) == want, (len(pts), k, j)

    def test_joint_zero_counts_match_reference(self, field, ell, q_text):
        G = grid_group(field, ell, q_text)
        rng = random.Random(repr((field, ell, q_text)))
        default = default_point_set(G.params)
        q = G.params.spec.q
        for pts in (default, (), random_subset(default, rng)):
            for d in range(6):
                if q ** d > 700:
                    break
                got = joint_zero_counts(G, d, pts)
                assert got.shape == (G.order, len(pts) + 1)
                assert got.tolist() == joint_zero_counts_reference(G, d, pts), (len(pts), d)


def test_deg_g_zero_and_no_subsets():
    # deg_g = 0 (j = k + t + ell): the counts are the subset-product classes
    G = grid_group((3, 1, None), 1, "x^2 + 2*x + 1")
    pts = default_point_set(G.params)
    assert factorization_counts(G, 3, 0, pts) == factorization_counts_reference(G, 3, 0, pts)
    # j > n: no subsets, all counts zero
    assert factorization_counts(G, 3, 0, pts[:2]) == [0] * G.order


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_configurations(data):
    field = data.draw(st.sampled_from(FIELDS), label="field")
    spec = FieldSpec(*field)
    q = spec.q
    t, ell = data.draw(
        st.sampled_from([(t, ell) for t in range(4) for ell in range(3) if q ** (t + ell) <= 125]), label="t, ell"
    )
    low = data.draw(st.lists(st.integers(0, q - 1), min_size=t, max_size=t), label="Q")
    G = ClassGroup(HayesParams(ell, Polynomial(spec, (*low, 1))))
    default = default_point_set(G.params)
    keep = data.draw(st.lists(st.booleans(), min_size=len(default), max_size=len(default)), label="D")
    pts = tuple(a for a, kept in zip(default, keep) if kept)
    k = data.draw(st.integers(0, 2 if q <= 9 else 1), label="k")
    assert array_targets(G, k, pts) == targets_reference(G, k, pts)
    if t + ell:
        j = data.draw(st.integers(k + 1, k + t + ell), label="j")
        assert factorization_counts(G, j, k, pts) == factorization_counts_reference(G, j, k, pts)
    d = data.draw(st.integers(0, 3 if q <= 8 else 2), label="d")
    assert joint_zero_counts(G, d, pts).tolist() == joint_zero_counts_reference(G, d, pts)


# ---------------------------------------------------------------------------
# The agreement kernel against the per-target loop
# ---------------------------------------------------------------------------

KERNEL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]  # q = 2, 3, 4, 5, 7, 9


def kernel_cases(spec, k, rng):
    """Point sets (none, n <= k, a random subset, all of GF(q)) with random targets."""
    everywhere = list(range(spec.q))
    subsets = [[], everywhere[:k], sorted(rng.sample(everywhere, rng.randint(1, spec.q))), everywhere]
    for pts in subsets:
        m = rng.randint(1, 6)
        yield tuple(pts), np.array([rng.randrange(spec.q) for _ in range(m * len(pts))], dtype=np.uint8).reshape(m, -1)


@pytest.mark.parametrize("p, a", KERNEL_FIELDS)
def test_agreement_kernel_matches_reference(p, a):
    spec = FieldSpec(p, a)
    rng = random.Random(spec.q)
    for k in range(6):
        for pts, targets in kernel_cases(spec, k, rng):
            got = dist._agreement_histograms(spec, k, pts, targets)
            assert got.dtype == np.int64 and got.shape == (len(targets), len(pts) + 1)
            assert (got == agreement_histograms_reference(spec, k, pts, targets)).all(), (k, pts)


@pytest.mark.parametrize("p, a, k", [(3, 1, 11), (2, 2, 9)])
def test_agreement_kernel_high_shift(p, a, k):
    # q^k > 2^16: the low block holds the first coefficients, and the targets
    # are shifted once per high-coefficient tuple
    spec = FieldSpec(p, a)
    assert spec.q ** k > 1 << 16 > dist._AGREEMENT_CELLS
    rng = random.Random(k)
    for pts, targets in kernel_cases(spec, k, rng):
        got = dist._agreement_histograms(spec, k, pts, targets)
        assert (got == agreement_histograms_reference(spec, k, pts, targets)).all(), pts


def test_agreement_kernel_all_of_gf256():
    # n = 256 agreements do not fit a uint8 count: the constant target 0 agrees
    # with the zero polynomial everywhere
    spec = FieldSpec(2, 8)
    rng = np.random.default_rng(256)
    targets = np.vstack([np.zeros(256, dtype=np.uint8), rng.integers(0, 256, (3, 256), dtype=np.uint8)])
    for k in (0, 1):
        got = dist._agreement_histograms(spec, k, tuple(range(256)), targets)
        assert got[0, 256] == 1
        assert (got == agreement_histograms_reference(spec, k, tuple(range(256)), targets)).all(), k


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_agreement_kernel_random(data):
    spec = FieldSpec(*data.draw(st.sampled_from(KERNEL_FIELDS), label="field"))
    q = spec.q
    k = data.draw(st.integers(0, 5 if q <= 4 else 3), label="k")
    pts = data.draw(st.lists(st.integers(0, q - 1), unique=True, max_size=q), label="points")
    m = data.draw(st.integers(0, 8), label="targets")
    targets = np.array(
        data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=len(pts), max_size=len(pts)), min_size=m, max_size=m)),
        dtype=np.uint8,
    ).reshape(m, len(pts))
    # small cell blocks split the targets and send small q^k through the high shift
    block = data.draw(st.sampled_from([1, 2, 5, 64, 1 << 14]), label="block")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dist, "_AGREEMENT_CELLS", block)
        mp.setattr(dist, "_HISTOGRAM_CELLS", block)
        got = dist._agreement_histograms(spec, k, tuple(pts), targets)
    assert (got == agreement_histograms_reference(spec, k, tuple(pts), targets)).all()


def traced_peak(spec, k, point_idx, targets):
    """tracemalloc peak of one kernel call, and the bytes of its result."""
    tracemalloc.start()
    try:
        hists = dist._agreement_histograms(spec, k, point_idx, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, hists.nbytes


def test_agreement_kernel_memory():
    """The working set beside the result stays small.  At q = 9, k = 5,
    |G| = 72, n = 8 (the largest oracle job of the benchmark) the 2^14-cell
    agreement blocks read 0.22 MB (2^16-cell blocks 1.0 MB); at k = 0 on all
    of GF(256) the 2^16-cell histograms read 1.1 MB (2^18-cell ones 4.3 MB,
    and one histogram of all targets at once would double the result)."""
    rng = np.random.default_rng(9)
    spec = FieldSpec(3, 2)
    peak, _ = traced_peak(spec, 5, tuple(range(1, 9)), rng.integers(0, 9, (72, 8), dtype=np.uint8))
    assert peak < 3 << 18, peak
    spec = FieldSpec(2, 8)
    peak, result = traced_peak(spec, 0, tuple(range(256)), rng.integers(0, 256, (4096, 256), dtype=np.uint8))
    assert peak < result + (2 << 20), (peak, result)


def test_blocks_are_bounded(monkeypatch):
    """Small block sizes split the products (several cofactor blocks per
    subset, several subsets per block) and the monic enumeration; every
    `classes_of` call and every enumeration block stays within its block and
    the counts do not change."""
    G = grid_group((3, 1, None), 2, "x")  # q = 3, t = 1, ell = 2
    pts = default_point_set(G.params)
    want_W = {(j, k): factorization_counts(G, j, k, pts) for k in (0, 1) for j in range(k + 1, k + 4)}
    want_joint = [joint_zero_counts(G, d, pts).tolist() for d in range(5)]
    sizes = []
    classes_of = ClassGroup.classes_of
    monic_blocks = FieldSpec.monic_blocks

    def recorded(self, rows):
        sizes.append(len(rows))
        return classes_of(self, rows)

    def recorded_blocks(self, *args):
        for block in monic_blocks(self, *args):
            sizes.append(len(block[0]))
            yield block

    monkeypatch.setattr(ClassGroup, "classes_of", recorded)
    monkeypatch.setattr(FieldSpec, "monic_blocks", recorded_blocks)
    for block in (1, 2, 8):
        monkeypatch.setattr(dist, "_BLOCK_ROWS", block)
        monkeypatch.setattr(dist, "MONIC_BLOCK_ROWS", block)
        sizes.clear()
        assert {key: factorization_counts(G, *key, pts) for key in want_W} == want_W
        assert [joint_zero_counts(G, d, pts).tolist() for d in range(5)] == want_joint
        assert max(sizes) <= block  # cofactor blocks of q^deg_g = 9 rows split to 3 or 1


def test_array_routes_never_use_group_arithmetic(monkeypatch):
    """The oracles stay independent of the sieve: no class multiplication,
    quotient, convolution or subset-product table on their path."""
    G = grid_group((3, 2, None), 1, "x^2 + 1")
    pts = default_point_set(G.params)
    want = (
        [d.counts for d in enumeration_distributions_all(G, 1, pts)],
        [factorization_counts(G, j, 1, pts) for j in (2, 3, 4)],
        [joint_zero_counts(G, d, pts).tolist() for d in range(4)],
    )

    def forbidden(*args, **kwargs):
        raise AssertionError("the array routes must not use group arithmetic or the sieve")

    for name in ("quotients", "_products"):
        monkeypatch.setattr(ClassGroup, name, forbidden)
    for name in ("group_convolve", "subset_product_table", "exact_distributions_all"):
        monkeypatch.setattr(dist, name, forbidden)
    got = (
        [d.counts for d in enumeration_distributions_all(G, 1, pts)],
        [factorization_counts(G, j, 1, pts) for j in (2, 3, 4)],
        [joint_zero_counts(G, d, pts).tolist() for d in range(4)],
    )
    assert got == want
