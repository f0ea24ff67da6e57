"""Chart function algebra of an N-graded chart.

Functions are finite sums of graded monomials: a polynomial coefficient in
the base coordinates times a canonically ordered product of positive-degree
generators.  Odd-degree generators square to zero; reordering picks up one
sign per swap of two odd factors.  Canonical generator order is (degree,
declared index), which makes equality structural.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import DegreeOverflow, SignatureMismatch, UnknownGenerator
from .exactnum import Poly

GenId = Tuple[int, int]  # (degree, declared index), both 0-based index
Gens = Tuple[GenId, ...]


class GradedSignature:
    """Chart data: base coordinate names plus graded generators in degrees 1..n."""

    __slots__ = ("n", "base_names", "gen_names", "max_degree", "_by_name")

    def __init__(self, n: int, base_names: Sequence[str], gen_names: Sequence[Sequence[str]],
                 max_degree: Optional[int] = None):
        if n < 0:
            raise ValueError("degree bound must be non-negative")
        if len(gen_names) != n:
            raise ValueError("need one generator name list per degree 1..n")
        self.n = n
        self.base_names = tuple(base_names)
        self.gen_names = tuple(tuple(names) for names in gen_names)
        self.max_degree = max_degree if max_degree is not None else max(3 * n, 1)
        by_name: Dict[str, GenId] = {}
        seen = set(self.base_names)
        if len(seen) != len(self.base_names):
            raise ValueError("duplicate base coordinate name")
        for deg0, names in enumerate(self.gen_names):
            for idx, name in enumerate(names):
                if name in seen:
                    raise ValueError(f"duplicate coordinate name {name!r}")
                seen.add(name)
                by_name[name] = (deg0 + 1, idx)
        self._by_name = by_name

    @property
    def m0(self) -> int:
        return len(self.base_names)

    def rank(self, degree: int) -> int:
        return len(self.gen_names[degree - 1])

    def gen_ids(self) -> list:
        return [(d, i) for d in range(1, self.n + 1) for i in range(self.rank(d))]

    def gen_name(self, g: GenId) -> str:
        d, i = g
        return self.gen_names[d - 1][i]

    def gen_by_name(self, name: str) -> GenId:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownGenerator(f"unknown generator {name!r}") from None

    def has_gen(self, g: GenId) -> bool:
        d, i = g
        return 1 <= d <= self.n and 0 <= i < self.rank(d)

    def parity(self, g: GenId) -> int:
        return g[0] & 1

    def truncate(self, r: int) -> "GradedSignature":
        if not 0 <= r <= self.n:
            raise ValueError("truncation level out of range")
        return GradedSignature(r, self.base_names, self.gen_names[:r], self.max_degree)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedSignature)
            and self.n == other.n
            and self.base_names == other.base_names
            and self.gen_names == other.gen_names
        )

    def __repr__(self):
        dims = "|".join(str(len(g)) for g in ((self.base_names,) + self.gen_names))
        return f"GradedSignature({dims})"


def braiding_sign(perm: Sequence[int], parities: Sequence[int]) -> int:
    """Sign of the graded braiding action of a permutation on homogeneous factors.

    `perm[s]` is the position factor s moves to.  One sign per inversion whose
    two factors are both odd.
    """
    sign = 1
    L = len(perm)
    for s in range(L):
        if not parities[s]:
            continue
        for t in range(s + 1, L):
            if parities[t] and perm[s] > perm[t]:
                sign = -sign
    return sign


def koszul_sort(word: Iterable[GenId]):
    """Koszul-canonical form of a word of graded elements (degree, index).

    Returns (sign, sorted tuple).  The sign is -1 to the number of inversions
    between odd factors; it is 0 when an odd factor repeats.
    """
    word = tuple(word)
    odd_seen = set()
    for g in word:
        if g[0] & 1:
            if g in odd_seen:
                return 0, ()
            odd_seen.add(g)
    order = sorted(range(len(word)), key=lambda s: (word[s], s))
    perm = [0] * len(word)
    for pos, s in enumerate(order):
        perm[s] = pos
    sign = braiding_sign(perm, [g[0] & 1 for g in word])
    return sign, tuple(sorted(word))


def normalize(sig: GradedSignature, gens: Iterable[GenId]):
    """`koszul_sort` of a generator word, after checking it lies in the signature."""
    word = tuple(gens)
    for g in word:
        if not sig.has_gen(g):
            raise UnknownGenerator(f"generator {g!r} not in signature")
    return koszul_sort(word)


def monomials_of_degree(gens: Sequence[GenId], degree: int,
                        parity=lambda g: g[0] & 1) -> list:
    """All canonical generator words of the given total degree, in lex order.

    Odd generators appear at most once; even generators may repeat.
    """
    gens = sorted(gens)
    out: list = []

    def rec(start: int, remaining: int, acc: list):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for t in range(start, len(gens)):
            g = gens[t]
            d = g[0]
            if d > remaining:
                continue
            nxt = t + 1 if parity(g) else t
            acc.append(g)
            rec(nxt, remaining - d, acc)
            acc.pop()

    rec(0, degree, [])
    out.sort()
    return out


class GradedFunction:
    """Element of the chart algebra in canonical form.

    `terms` maps canonical generator words to nonzero polynomial coefficients
    in the base coordinates.
    """

    __slots__ = ("sig", "terms")

    def __init__(self, sig: GradedSignature, terms: Dict[Gens, Poly]):
        self.sig = sig
        self.terms = terms

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, sig: GradedSignature) -> "GradedFunction":
        return cls(sig, {})

    @classmethod
    def from_poly(cls, sig: GradedSignature, p: Poly) -> "GradedFunction":
        if p.nvars != sig.m0:
            raise SignatureMismatch("coefficient over wrong base variable count")
        return cls(sig, {} if p.is_zero() else {(): p})

    @classmethod
    def constant(cls, sig: GradedSignature, c) -> "GradedFunction":
        return cls.from_poly(sig, Poly.const(sig.m0, c))

    @classmethod
    def one(cls, sig: GradedSignature) -> "GradedFunction":
        return cls.constant(sig, 1)

    @classmethod
    def base_var(cls, sig: GradedSignature, alpha: int) -> "GradedFunction":
        return cls.from_poly(sig, Poly.var(sig.m0, alpha))

    @classmethod
    def from_gen(cls, sig: GradedSignature, g: GenId) -> "GradedFunction":
        if not sig.has_gen(g):
            raise UnknownGenerator(f"generator {g!r} not in signature")
        return cls(sig, {(g,): Poly.one(sig.m0)})

    @classmethod
    def monomial(cls, sig: GradedSignature, word: Gens, coeff: Poly) -> "GradedFunction":
        sign, canon = normalize(sig, word)
        if sign == 0 or coeff.is_zero():
            return cls.zero(sig)
        return cls(sig, {canon: coeff.scale(sign)})

    # --- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def monomial_degree(self, word: Gens) -> int:
        return sum(g[0] for g in word)

    def degrees(self) -> set:
        return {self.monomial_degree(w) for w in self.terms}

    def homogeneous_degree(self) -> Optional[int]:
        """Degree when homogeneous (zero counts as any degree, returns None)."""
        ds = self.degrees()
        if len(ds) == 1:
            return ds.pop()
        return None

    def is_homogeneous(self, degree: Optional[int] = None) -> bool:
        ds = self.degrees()
        if not ds:
            return True
        if degree is None:
            return len(ds) == 1
        return ds == {degree}

    def component(self, degree: int) -> "GradedFunction":
        return GradedFunction(
            self.sig,
            {w: c for w, c in self.terms.items() if self.monomial_degree(w) == degree},
        )

    def degree_components(self) -> dict:
        out: dict = {}
        for w, c in self.terms.items():
            out.setdefault(self.monomial_degree(w), {})[w] = c
        return {d: GradedFunction(self.sig, t) for d, t in sorted(out.items())}

    # --- arithmetic ---------------------------------------------------

    def _check(self, other: "GradedFunction"):
        if self.sig != other.sig:
            raise SignatureMismatch("operands live on different charts")

    def add(self, other: "GradedFunction") -> "GradedFunction":
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w)
            s = c if s is None else s.add(c)
            if s.is_zero():
                terms.pop(w, None)
            else:
                terms[w] = s
        return GradedFunction(self.sig, terms)

    def neg(self) -> "GradedFunction":
        return GradedFunction(self.sig, {w: c.neg() for w, c in self.terms.items()})

    def sub(self, other: "GradedFunction") -> "GradedFunction":
        return self.add(other.neg())

    def scale(self, c) -> "GradedFunction":
        if isinstance(c, Poly):
            return self.mul(GradedFunction.from_poly(self.sig, c))
        c = Fraction(c)
        if c == 0:
            return GradedFunction.zero(self.sig)
        return GradedFunction(self.sig, {w: p.scale(c) for w, p in self.terms.items()})

    def mul(self, other: "GradedFunction") -> "GradedFunction":
        self._check(other)
        sig = self.sig
        terms: Dict[Gens, Poly] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                sign, canon = normalize(sig, w1 + w2)
                if sign == 0:
                    continue
                total = self.monomial_degree(canon)
                if total > sig.max_degree:
                    raise DegreeOverflow(
                        f"product of degree {total} exceeds cap {sig.max_degree}"
                    )
                c = c1.mul(c2).scale(sign)
                s = terms.get(canon)
                s = c if s is None else s.add(c)
                if s.is_zero():
                    terms.pop(canon, None)
                else:
                    terms[canon] = s
        return GradedFunction(sig, terms)

    def pow(self, k: int) -> "GradedFunction":
        result = GradedFunction.one(self.sig)
        for _ in range(k):
            result = result.mul(self)
        return result

    # --- evaluation and calculus ---------------------------------------

    def body(self) -> Poly:
        """Degree-zero component as a base polynomial."""
        return self.terms.get((), Poly.zero(self.sig.m0))

    def body_eval(self, point: Sequence) -> Fraction:
        return self.body().eval(point)

    def derivative_base(self, alpha: int) -> "GradedFunction":
        terms = {}
        for w, c in self.terms.items():
            d = c.derivative(alpha)
            if not d.is_zero():
                terms[w] = d
        return GradedFunction(self.sig, terms)

    def derivative_gen(self, g: GenId) -> "GradedFunction":
        """Left derivative along a generator.

        Acts as a derivation of degree -|g|: passing over a factor of odd
        degree flips the sign when |g| is odd.
        """
        sig = self.sig
        gp = sig.parity(g)
        out = GradedFunction.zero(sig)
        for w, c in self.terms.items():
            passed_parity = 0
            for t, factor in enumerate(w):
                if factor == g:
                    rest = w[:t] + w[t + 1:]
                    sign = -1 if (gp and passed_parity & 1) else 1
                    out = out.add(GradedFunction(sig, {rest: c.scale(sign)}))
                passed_parity += sig.parity(factor)
        return out

    def substitute(self, target: GradedSignature, base_map: Sequence["GradedFunction"],
                   gen_map: Dict[GenId, "GradedFunction"]) -> "GradedFunction":
        """Ring homomorphism determined by images of coordinates.

        base_map[alpha] must be a degree-0 function on the target chart; each
        generator image must be homogeneous of the generator's degree.
        """
        if len(base_map) != self.sig.m0:
            raise SignatureMismatch("base substitution has wrong length")
        out = GradedFunction.zero(target)
        for w, c in self.terms.items():
            # compose the polynomial coefficient with the base images
            term = GradedFunction.constant(target, 0)
            for exps, coeff in c.terms.items():
                piece = GradedFunction.constant(target, coeff)
                for alpha, e in enumerate(exps):
                    for _ in range(e):
                        piece = piece.mul(base_map[alpha])
                term = term.add(piece)
            for g in w:
                img = gen_map.get(g)
                if img is None:
                    raise UnknownGenerator(f"no image for generator {g!r}")
                term = term.mul(img)
            out = out.add(term)
        return out

    def truncate_to(self, target: GradedSignature) -> "GradedFunction":
        """Project onto the subalgebra generated by coordinates of the target chart."""
        terms = {}
        for w, c in self.terms.items():
            if all(g[0] <= target.n for g in w):
                terms[w] = c
        return GradedFunction(target, terms)

    # --- dunder ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedFunction)
            and self.sig == other.sig
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset((w, frozenset(c.terms.items())) for w, c in self.terms.items()))

    def __repr__(self):
        return f"GradedFunction({self.to_string()})"

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        sig = self.sig
        parts = []
        for w, c in sorted(self.terms.items(), key=lambda kv: (self.monomial_degree(kv[0]), kv[0])):
            factors = []
            t = 0
            while t < len(w):
                run = 1
                while t + run < len(w) and w[t + run] == w[t]:
                    run += 1
                name = sig.gen_name(w[t])
                factors.append(name if run == 1 else f"{name}^{run}")
                t += run
            cs = c.to_string(sig.base_names)
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            elif cs == "-1":
                parts.append("-" + "*".join(factors))
            elif ("+" in cs) or (" - " in cs):
                parts.append("(" + cs + ")*" + "*".join(factors))
            else:
                parts.append(cs + "*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def dim_symmetric_component(gen_degrees: Sequence[int], level: int) -> int:
    """Dimension of the degree-`level` component of the free graded-commutative
    algebra on generators of the given degrees (odd square to zero)."""
    return len(monomials_of_degree([(d, i) for i, d in enumerate(gen_degrees)], level))
