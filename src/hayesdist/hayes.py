"""Hayes equivalence of monic polynomials over GF(q).

Two monic polynomials f, g coprime to a fixed monic Q are Hayes equivalent
(with respect to ell and Q) when their reciprocals agree mod x^(ell+1) --
i.e. they share the ell coefficients just below the leading one -- and
f = g mod Q.  The classes form a finite abelian group of order
q^ell * Phi_t(Q), t = deg Q, under <f><g> = <fg>.

A class is recorded as its *signature*: the ell reciprocal coefficients of
x^1..x^ell (zero-padded when deg f < ell) together with the residue f mod Q.
Each class has exactly one monic member of degree t + ell; that canonical
representative fixes the class indexing used everywhere: classes are numbered
by the enumeration order of their representatives.

Phi_j(Q) counts monic degree-j polynomials coprime to Q; it is computed by
inclusion-exclusion over the distinct irreducible factors of Q, and the same
factorization drives the coprimality checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DEFAULT_CLASS_BUDGET, BudgetExceededError, check_budget
from .ffield import FieldSpec, FqElement, Polynomial, enumerate_below_degree, enumerate_monic


@dataclass(frozen=True)
class HayesParams:
    """The pair (ell, Q) defining the equivalence; t = deg Q is derived."""

    ell: int
    Q: Polynomial

    def __post_init__(self):
        if self.ell < 0:
            raise ValueError("ell must be >= 0")
        if not self.Q.is_monic:
            raise ValueError("Q must be monic (and nonzero)")

    @property
    def t(self) -> int:
        return self.Q.degree  # Q monic, so never None

    @property
    def spec(self) -> FieldSpec:
        return self.Q.spec

    @property
    def degenerate(self) -> bool:
        """ell = 0 and Q = 1: a single class containing every monic polynomial."""
        return self.ell == 0 and self.t == 0


@dataclass(frozen=True)
class HayesSignature:
    """Class label: ell reciprocal coefficients and the residue mod Q."""

    leading: tuple[FqElement, ...]
    residue: Polynomial


def signature(f: Polynomial, params: HayesParams) -> HayesSignature | None:
    """Signature of a monic f, or None when gcd(f, Q) != 1 (the <f> = 0 case)."""
    if not f.is_monic:
        raise ValueError("signatures are defined for monic polynomials")
    spec = params.spec
    if not f.gcd(params.Q).is_one:
        return None
    d = f.degree
    leading = tuple(f.coefficient(d - j) if d - j >= 0 else spec.zero for j in range(1, params.ell + 1))
    return HayesSignature(leading, f % params.Q)


def equivalent(f: Polynomial, g: Polynomial, params: HayesParams) -> bool:
    """True iff both are coprime to Q and share a signature."""
    sf = signature(f, params)
    sg = signature(g, params)
    return sf is not None and sf == sg


def distinct_irreducible_factors(Q: Polynomial) -> tuple[Polynomial, ...]:
    """Distinct monic irreducible factors of Q, via trial division up to deg(Q)/2.

    Whatever survives after dividing out every factor of degree <= t/2 has a
    single irreducible factor left, so it is appended whole.
    """
    if not Q.is_monic:
        raise ValueError("Q must be monic")
    spec = Q.spec
    t = Q.degree
    out = []
    rem = Q
    for d in range(1, t // 2 + 1):
        for cand in spec.monic_irreducibles(d):
            if (rem % cand).is_zero:
                out.append(cand)
                while (rem % cand).is_zero:
                    rem = rem // cand
    if rem.degree >= 1:
        out.append(rem)
    return tuple(out)


def phi(j: int, Q: Polynomial) -> int:
    """Number of monic degree-j polynomials coprime to Q (inclusion-exclusion)."""
    if j < 0:
        raise ValueError("degree must be >= 0")
    q = Q.spec.q
    degrees = [P.degree for P in distinct_irreducible_factors(Q)]
    total = 0
    for size in range(len(degrees) + 1):
        for combo in itertools.combinations(degrees, size):
            drop = sum(combo)
            if drop <= j:
                total += (-1) ** size * q ** (j - drop)
    return total


def phi_relative_gap(j: int, Q: Polynomial) -> Fraction:
    """|Phi_j(Q)/q^j - 1| as an exact rational (bounded by sum over factors of q^-d_i)."""
    q = Q.spec.q
    return abs(Fraction(phi(j, Q), q ** j) - 1)


class ClassGroup:
    """The group of Hayes classes, with dense multiplication table.

    Classes are indexed 0..n-1 in the enumeration order of their canonical
    representatives (the unique monic member of degree t + ell).  The whole
    structure is immutable after construction; queries are pure.
    """

    def __init__(self, params: HayesParams, max_classes: int | None = None):
        limit = DEFAULT_CLASS_BUDGET if max_classes is None else max_classes
        spec = params.spec
        expected = spec.q ** params.ell * phi(params.t, params.Q)
        if expected > limit:
            raise BudgetExceededError("class group order", expected, limit)
        self.params = params
        self.degenerate = params.degenerate
        self._spec = spec
        self._q = spec.q
        self._ell = params.ell
        self._t = params.t
        self._Q_idx = params.Q.index_coeffs()
        self._mul_i = spec._mul_i
        self._sub_i = spec._sub_i
        self._add_i = spec._add_i

        reps: list[Polynomial] = []
        sigs: list[HayesSignature] = []
        key_to_index: dict[tuple, int] = {}
        for f in enumerate_monic(spec, params.t + params.ell):
            sig = signature(f, params)
            if sig is None:
                continue
            key = self._key_of_signature(sig)
            if key in key_to_index:
                raise RuntimeError("duplicate canonical representative")  # impossible
            key_to_index[key] = len(reps)
            reps.append(f)
            sigs.append(sig)
        if len(reps) != expected:
            raise RuntimeError(f"class count {len(reps)} != q^ell * Phi_t(Q) = {expected}")
        self.reps = tuple(reps)
        self.signatures = tuple(sigs)
        self._key_to_index = key_to_index
        self._keys = tuple(key_to_index)
        self._build_mul_table()
        one_sig = signature(Polynomial.one(spec), params)
        self.identity = key_to_index[self._key_of_signature(one_sig)]
        self.inverse = np.argmax(self.mul_table == self.identity, axis=1).astype(np.int32)
        self._counts_cache: dict[int, tuple[list[int], int]] = {}

    # -- fast signature keys ---------------------------------------------------

    def _key_of_signature(self, sig: HayesSignature) -> tuple:
        res = sig.residue.index_coeffs()
        res = res + (0,) * (self._t - len(res))
        return tuple(c.index for c in sig.leading) + res

    def _key_of_index_coeffs(self, fidx: tuple[int, ...]) -> tuple:
        """Signature key of a monic polynomial given as an index-coefficient tuple."""
        d = len(fidx) - 1
        ell, t = self._ell, self._t
        lead = tuple(fidx[d - j] if d - j >= 0 else 0 for j in range(1, ell + 1))
        if t == 0:
            return lead
        rem = list(fidx) + [0] * max(t - len(fidx), 0)
        mul_i, sub_i, Qi = self._mul_i, self._sub_i, self._Q_idx
        for i in range(d, t - 1, -1):
            c = rem[i]
            if c:
                rem[i] = 0
                row = mul_i[c]
                for jj in range(t):
                    qj = Qi[jj]
                    if qj:
                        rem[i - t + jj] = sub_i[rem[i - t + jj]][row[qj]]
        return lead + tuple(rem[:t])

    def _mul_keys(self, k1: tuple, k2: tuple) -> tuple:
        """Key of the product class: reciprocal series multiply mod x^(ell+1),
        residue multiply mod Q."""
        ell, t = self._ell, self._t
        mul_i, add_i, sub_i = self._mul_i, self._add_i, self._sub_i
        s1 = (1,) + k1[:ell]
        s2 = (1,) + k2[:ell]
        lead = []
        for m in range(1, ell + 1):
            acc = 0
            for i in range(m + 1):
                a, b = s1[i], s2[m - i]
                if a and b:
                    acc = add_i[acc][mul_i[a][b]]
            lead.append(acc)
        if t == 0:
            return tuple(lead)
        r1 = k1[ell:]
        r2 = k2[ell:]
        conv = [0] * (2 * t - 1)
        for i, a in enumerate(r1):
            if a:
                row = mul_i[a]
                for j, b in enumerate(r2):
                    if b:
                        conv[i + j] = add_i[conv[i + j]][row[b]]
        Qi = self._Q_idx
        for i in range(len(conv) - 1, t - 1, -1):
            c = conv[i]
            if c:
                conv[i] = 0
                row = mul_i[c]
                for jj in range(t):
                    qj = Qi[jj]
                    if qj:
                        conv[i - t + jj] = sub_i[conv[i - t + jj]][row[qj]]
        return tuple(lead) + tuple(conv[:t])

    def _build_mul_table(self) -> None:
        n = len(self.reps)
        table = np.empty((n, n), dtype=np.int32)
        keys = self._keys
        lookup = self._key_to_index
        for i in range(n):
            ki = keys[i]
            row = table[i]
            for j in range(i, n):
                idx = lookup[self._mul_keys(ki, keys[j])]
                row[j] = idx
                table[j, i] = idx
        self.mul_table = table

    # -- queries ----------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.reps)

    def __len__(self) -> int:
        return len(self.reps)

    def mul(self, i: int, j: int) -> int:
        return int(self.mul_table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    def translation(self, c: int) -> np.ndarray:
        """Index array of i -> i*c over all classes, so that v[translation(c)]
        is the class function eps -> v(eps * c)."""
        return self.mul_table[c]

    def class_of(self, f: Polynomial) -> int | None:
        """Class index of a monic f, or None when gcd(f, Q) != 1."""
        if not f.is_monic:
            raise ValueError("class_of expects a monic polynomial")
        return self._key_to_index.get(self._key_of_index_coeffs(f.index_coeffs()))

    def index_of_signature(self, sig: HayesSignature) -> int:
        return self._key_to_index[self._key_of_signature(sig)]

    def member_base(self, eps: int, d: int) -> Polynomial:
        """A monic degree-d member of class eps: x^k * rep, residue-corrected."""
        k = d - self._t - self._ell
        if k < 0:
            raise ValueError(f"degree must be >= t + ell = {self._t + self._ell}")
        spec = self._spec
        rep = self.reps[eps]
        f0 = rep * Polynomial.monomial(spec, k)
        if self._t > 0:
            f0 = f0 + (rep % self.params.Q) - (f0 % self.params.Q)
        return f0

    def members(self, eps: int, d: int):
        """All q^(d - t - ell) monic degree-d members of class eps.

        The members are exactly base + h*Q over all h of degree < k: adding
        h*Q (degree <= d - ell - 1) touches neither the ell leading
        coefficients nor the residue mod Q.
        """
        base = self.member_base(eps, d)
        k = d - self._t - self._ell
        Q = self.params.Q
        for h in enumerate_below_degree(self._spec, k):
            yield base + h * Q

    def monic_class_counts(self, d: int, budget: int | None = None) -> list[int]:
        """Counts of monic degree-d polynomials per class (coprime ones only)."""
        if d not in self._counts_cache:
            check_budget(f"monic enumeration q^{d}", self._q ** d, budget)
            counts = [0] * len(self.reps)
            dropped = 0
            lookup = self._key_to_index
            key_of = self._key_of_index_coeffs
            for low in itertools.product(range(self._q), repeat=d):
                idx = lookup.get(key_of((*low, 1)))
                if idx is None:
                    dropped += 1
                else:
                    counts[idx] += 1
            self._counts_cache[d] = (counts, dropped)
        return list(self._counts_cache[d][0])

    def noncoprime_count(self, d: int) -> int:
        """Number of monic degree-d polynomials with gcd(f, Q) != 1."""
        self.monic_class_counts(d)
        return self._counts_cache[d][1]

    def export_classes(self) -> list[dict]:
        """Stable class-index <-> canonical-representative mapping."""
        return [{"eps": i, "rep": rep.to_text()} for i, rep in enumerate(self.reps)]

    def __repr__(self) -> str:
        return (
            f"ClassGroup(q={self._q}, ell={self._ell}, Q={self.params.Q.to_text()!r}, "
            f"order={len(self.reps)})"
        )


def class_group(params: HayesParams, max_classes: int | None = None) -> ClassGroup:
    return ClassGroup(params, max_classes=max_classes)
