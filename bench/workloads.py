"""Seeded job lists for the hayesdist benchmark.

Every workload is a closed loop with one client: ``run.py`` starts one
``python -m hayesdist.cli`` job, waits for it to exit, and only then starts
the next, so each job pays interpreter start, imports and field/group set-up
as a CLI user does.

The seed picks inputs only, never sizes: the root of ``Q = x - a``, the
irreducible ``Q`` among all monic irreducibles of one degree over one prime
field, received words and point subsets.  Because ``Q`` always has the same
factorization pattern and the subsets the same size, the class-group order,
the point count and therefore the amount of work are the same for every
seed.

Every workload runs every subcommand twice per pass, on two inputs of
different shape, because the benchmark reports a wall time per subcommand
on every workload and a single job per pass varies too much from pass to
pass on a shared host.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

SUBCOMMANDS = (
    "exact-dist", "approx", "rs", "weil",
    "moments-check", "series-check", "bounds-check", "kernels",
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its artifact must satisfy.

    ``expect`` holds the sizes the verifier checks against: ``q``, ``k``,
    ``ell``, ``n`` (points), ``classes`` (|G|) or ``value`` (kernels).
    """

    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------------------
# Inputs: element indices and polynomial text in the CLI's conventions
# ---------------------------------------------------------------------------

def _neg(p: int, idx: int) -> int:
    """Index of -x in GF(p^a): negate each base-p digit of the index."""
    out, scale = 0, 1
    while idx:
        idx, d = divmod(idx, p)
        out += ((p - d) % p) * scale
        scale *= p
    return out


def _text(coeffs: list[int]) -> str:
    """Polynomial text from little-endian element indices (leading one last)."""
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        if d == 0:
            terms.append(str(c))
        else:
            x = "x" if d == 1 else f"x^{d}"
            terms.append(x if c == 1 else f"{c}*{x}")
    return " + ".join(terms) if terms else "0"


def _linear(rng: random.Random, p: int, q: int) -> tuple[str, int]:
    """Q = x + c for a seeded c; returns (text, index of the root -c)."""
    c = rng.randrange(q)
    return _text([c, 1]), _neg(p, c)


def _irreducibles(p: int, t: int) -> list[list[int]]:
    """Monic irreducibles of degree 2 or 3 over the prime field GF(p): those
    without a root."""
    if t not in (2, 3):
        raise ValueError("a root test decides irreducibility only in degree 2 or 3")
    return [
        [*low, 1]
        for low in itertools.product(range(p), repeat=t)
        if all(sum(c * x ** i for i, c in enumerate((*low, 1))) % p for x in range(p))
    ]


def _irreducible(rng: random.Random, p: int, t: int) -> str:
    return _text(rng.choice(_irreducibles(p, t)))


def _word(rng: random.Random, q: int, degree: int) -> str:
    """A seeded monic received word of the given degree."""
    return _text([rng.randrange(q) for _ in range(degree)] + [1])


def _points(rng: random.Random, q: int, size: int, exclude: int | None = None) -> str:
    """A seeded --points subset of the given size."""
    pool = [x for x in range(q) if x != exclude]
    return ",".join(map(str, sorted(rng.sample(pool, size))))


def _phi(q: int, j: int, degrees: tuple[int, ...]) -> int:
    """Phi_j(Q) for Q with distinct irreducible factors of the given degrees."""
    total = 0
    for size in range(len(degrees) + 1):
        for combo in itertools.combinations(degrees, size):
            if sum(combo) <= j:
                total += (-1) ** size * q ** (j - sum(combo))
    return total


def _field(p: int, a: int) -> list[str]:
    return ["--p", str(p), "--a", str(a)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _enum_verify(rng: random.Random) -> list[Job]:
    """Small fields (q <= 25) and groups of order <= 625 (q^ell for rs): the
    enumeration kernel (k sized for 1.5*10^7 .. 2.5*10^8 byte comparisons per
    job, so that it has the largest self time of any layer) and the
    verification suites, which reach ffield and hayes one polynomial at a
    time through class_of and Polynomial products."""
    Q9, root9 = _linear(rng, 3, 9)
    Q16, _ = _linear(rng, 2, 16)
    Q7, _ = _linear(rng, 7, 7)
    Q2_3 = _irreducible(rng, 3, 2)
    Q2_7 = _irreducible(rng, 7, 2)
    pts = _points(rng, 9, 6, exclude=root9)
    seed = str(rng.randrange(1 << 16))
    return [
        Job(("approx", *_field(5, 2), "--ell", "1", "--Q", "1", "--k", "4"),
            {"q": 25, "k": 4, "n": 25, "classes": 25}),
        Job(("approx", *_field(2, 4), "--ell", "1", "--Q", Q16, "--k", "4"),
            {"q": 16, "k": 4, "n": 15, "classes": 240}),
        Job(("exact-dist", *_field(3, 2), "--ell", "1", "--Q", Q9, "--k", "6", "--points", pts),
            {"q": 9, "k": 6, "n": 6, "classes": 72}),
        Job(("exact-dist", *_field(7, 1), "--ell", "1", "--Q", Q7, "--k", "7"),
            {"q": 7, "k": 7, "n": 6, "classes": 42}),
        Job(("rs", *_field(5, 2), "--k", "5", "--ell", "2", "--word", _word(rng, 25, 7)),
            {"q": 25, "k": 5, "ell": 2}),
        Job(("rs", *_field(2, 4), "--k", "3", "--ell", "2", "--census"),
            {"q": 16, "k": 3, "ell": 2}),
        Job(("moments-check", *_field(3, 2), "--ell", "1", "--Q", Q9, "--k", "5", "--k-min", "5"), {}),
        Job(("moments-check", *_field(2, 4), "--ell", "1", "--Q", Q16, "--k", "3"), {}),
        Job(("series-check", *_field(3, 1), "--ell", "1", "--Q", Q2_3, "--d-max", "9"), {}),
        Job(("series-check", *_field(3, 2), "--ell", "1", "--Q", "1", "--d-max", "4"), {}),
        Job(("bounds-check", *_field(7, 1), "--ell", "1", "--Q", Q7, "--k", "3", "--seed", seed), {}),
        Job(("bounds-check", *_field(5, 2), "--ell", "1", "--Q", "1", "--k", "2", "--seed", seed), {}),
        Job(("weil", *_field(2, 4), "--ell", "1", "--Q", Q16), {"classes": 240}),
        Job(("weil", *_field(7, 1), "--ell", "1", "--Q", Q2_7), {"classes": 336}),
        Job(("kernels", "phi", *_field(2, 4), "--Q", Q16, "--j", "5"), {"value": _phi(16, 5, (1,))}),
        Job(("kernels", "phi", *_field(3, 2), "--Q", Q9, "--j", "4"), {"value": _phi(9, 4, (1,))}),
    ]


def _group_bigfield(rng: random.Random) -> list[Job]:
    """Table set-up: class groups of order 600 and 620 (t = 2, 3) at small k,
    and fields of order 128, 243 and 256 with ell <= 1, Q = 1 or x - a and
    k <= 2.  Q of degree t >= 2 is drawn among the monic irreducibles of that
    degree over GF(3) or GF(5).

    The census runs at q = 128: at q = 243, k = 2 it exits 2 because
    rs_census budgets the q^(k+ell) words it never enumerates.  Q = 1 on the
    group-based jobs at large q keeps |G| = q under the class budget, and
    weil runs there at ell = 0 because its L-polynomials at ell = 1 enumerate
    all q^3 monic cubics."""
    Q2_5 = _irreducible(rng, 5, 2)
    Q3_5 = _irreducible(rng, 5, 3)
    Q2_3 = _irreducible(rng, 3, 2)
    Q256, _ = _linear(rng, 2, 256)
    pts = _points(rng, 256, 6)
    return [
        Job(("weil", *_field(5, 1), "--ell", "2", "--Q", Q2_5), {"classes": 600}),
        Job(("weil", *_field(2, 8), "--ell", "0", "--Q", "1"), {"classes": 1}),
        Job(("exact-dist", *_field(5, 1), "--ell", "1", "--Q", Q3_5, "--k", "1"),
            {"q": 5, "k": 1, "n": 5, "classes": 620}),
        Job(("exact-dist", *_field(2, 8), "--ell", "1", "--Q", "1", "--k", "1", "--points", pts),
            {"q": 256, "k": 1, "n": 6, "classes": 256}),
        Job(("rs", *_field(3, 5), "--k", "2", "--ell", "1", "--word", _word(rng, 243, 3)),
            {"q": 243, "k": 2, "ell": 1}),
        Job(("rs", *_field(2, 7), "--k", "1", "--ell", "1", "--census"),
            {"q": 128, "k": 1, "ell": 1}),
        Job(("kernels", "phi", *_field(2, 8), "--Q", Q256, "--j", "3"), {"value": _phi(256, 3, (1,))}),
        Job(("kernels", "phi", *_field(5, 1), "--Q", Q2_5, "--j", "4"), {"value": _phi(5, 4, (2,))}),
        Job(("approx", *_field(2, 7), "--ell", "1", "--Q", "1", "--k", "1"),
            {"q": 128, "k": 1, "n": 128, "classes": 128}),
        Job(("approx", *_field(3, 1), "--ell", "2", "--Q", Q2_3, "--k", "1"),
            {"q": 3, "k": 1, "n": 3, "classes": 72}),
        Job(("moments-check", *_field(2, 8), "--ell", "1", "--Q", "1", "--k", "0"), {}),
        Job(("moments-check", *_field(3, 1), "--ell", "2", "--Q", Q2_3, "--k", "0"), {}),
        Job(("series-check", *_field(2, 7), "--ell", "1", "--Q", "1", "--d-max", "1"), {}),
        Job(("series-check", *_field(3, 1), "--ell", "2", "--Q", Q2_3, "--d-max", "4"), {}),
        Job(("bounds-check", *_field(2, 7), "--ell", "1", "--Q", "1", "--k", "0"), {}),
        Job(("bounds-check", *_field(3, 1), "--ell", "2", "--Q", Q2_3, "--k", "0"), {}),
    ]


WORKLOADS = {
    "enum_verify": _enum_verify,
    "group_bigfield": _group_bigfield,
}


def jobs(workload: str, seed: int) -> list[Job]:
    """The job list of a workload; the same (workload, seed) gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
