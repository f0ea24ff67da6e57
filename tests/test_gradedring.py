import itertools
import random
import sys
from fractions import Fraction

import pytest

from gradman.errors import DegreeOverflow, NumberTooLong, SignatureMismatch, UnknownGenerator
from gradman.exactnum import Poly
from gradman.gradedring import (
    GradedFunction,
    GradedSignature,
    braiding_sign,
    dim_symmetric_component,
    koszul_merge,
    koszul_sort,
    monomials_of_degree,
    normalize,
)
from randchart import (
    CHART_PROFILES,
    partition_count,
    random_signature,
    reference_mul,
    reference_substitute,
)


def bubble_normalize(sig, word):
    """Independent oracle: sort by adjacent transpositions, counting one sign
    per swap of two odd factors; zero once an odd factor repeats."""
    word = list(word)
    for g in word:
        if sig.parity(g) and word.count(g) > 1:
            return 0, ()
    sign = 1
    changed = True
    while changed:
        changed = False
        for t in range(len(word) - 1):
            if word[t] > word[t + 1]:
                if sig.parity(word[t]) and sig.parity(word[t + 1]):
                    sign = -sign
                word[t], word[t + 1] = word[t + 1], word[t]
                changed = True
    return sign, tuple(word)


SIG = GradedSignature(3, ("x", "y"), [("e1", "f1"), ("p1", "p2"), ("q",)])


def gf_gen(name):
    return GradedFunction.from_gen(SIG, SIG.gen_by_name(name))


def rand_coeff(rng):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        exps = (rng.randint(0, 2), rng.randint(0, 2))
        terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(2, {e: c for e, c in terms.items() if c != 0})


def rand_function(rng, homogeneous=None, max_total=4):
    gens = SIG.gen_ids()
    out = GradedFunction.zero(SIG)
    for _ in range(rng.randint(1, 3)):
        if homogeneous is None:
            degree = rng.randint(0, max_total)
        else:
            degree = homogeneous
        words = monomials_of_degree(gens, degree)
        if not words:
            continue
        w = words[rng.randrange(len(words))]
        out = out.add(GradedFunction.monomial(SIG, w, rand_coeff(rng)))
    return out


class TestNormalize:
    def test_odd_square_vanishes(self):
        e = SIG.gen_by_name("e1")
        assert normalize(SIG, [e, e]) == (0, ())

    def test_two_odd_swap(self):
        e, f = SIG.gen_by_name("e1"), SIG.gen_by_name("f1")
        assert normalize(SIG, [f, e]) == (-1, (e, f))

    def test_even_past_odd_is_free(self):
        e, p = SIG.gen_by_name("e1"), SIG.gen_by_name("p1")
        assert normalize(SIG, [p, e]) == (1, (e, p))

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            normalize(SIG, [(9, 0)])

    def test_agrees_with_bubble_oracle_up_to_length_6(self):
        # full enumeration over the degree profile 1,1,2,2,3
        sig = GradedSignature(3, (), [("a", "b"), ("u", "v"), ("w",)], max_degree=30)
        gens = sig.gen_ids()
        total = 0
        for length in range(0, 7):
            for word in itertools.product(gens, repeat=length):
                assert normalize(sig, word) == bubble_normalize(sig, word)
                total += 1
        assert total == sum(5**k for k in range(7))

    def test_braiding_sign_matches_normalize_on_sorted_words(self):
        sig = GradedSignature(2, (), [("a", "b"), ("u",)])
        word = [sig.gen_by_name(n) for n in ("u", "b", "a")]
        perm_sorted = sorted(range(3), key=lambda s: word[s])
        perm = [0, 0, 0]
        for pos, s in enumerate(perm_sorted):
            perm[s] = pos
        sign = braiding_sign(perm, [sig.parity(g) for g in word])
        assert (sign,) + (tuple(sorted(word)),) == normalize(sig, word)


class TestKoszulSort:
    def test_matches_odd_inversion_count_on_seeded_words(self):
        rng = random.Random(17)
        factors = [(d, i) for d in range(1, 5) for i in range(3)]
        repeats = 0
        for _ in range(2000):
            word = [rng.choice(factors) for _ in range(rng.randint(0, 7))]
            odd = [g for g in word if g[0] & 1]
            if len(set(odd)) < len(odd):
                repeats += 1
                assert koszul_sort(word) == (0, ())
                continue
            inversions = sum(
                1 for s in range(len(word)) for t in range(s + 1, len(word))
                if word[s][0] & 1 and word[t][0] & 1 and word[s] > word[t]
            )
            assert koszul_sort(word) == ((-1) ** inversions, tuple(sorted(word)))
        assert 0 < repeats < 2000

    def test_normalize_is_checked_koszul_sort(self):
        word = [SIG.gen_by_name(n) for n in ("p1", "f1", "e1")]
        assert normalize(SIG, word) == koszul_sort(word) == (-1, tuple(sorted(word)))


def rand_chart_function(rng, sig, max_total=4):
    """A few random terms on any chart, words of degree up to max_total."""
    words = [w for k in range(max_total + 1) for w in monomials_of_degree(sig.gen_ids(), k)]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 2) for _ in range(sig.m0))
        coeff = Poly(sig.m0, {exps: Fraction(rng.randint(-3, 3), rng.randint(1, 2))})
        terms[rng.choice(words)] = coeff
    return GradedFunction(sig, terms)


class TestMergedProduct:
    def test_merge_equals_sort_on_all_canonical_pairs(self):
        # every pair of canonical words up to degree 5 over odd generators in
        # degrees 1 and 3 and even ones in degree 2
        gens = [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]
        words = [w for k in range(6) for w in monomials_of_degree(gens, k)]
        signs = set()
        for w1 in words:
            for w2 in words:
                got = koszul_merge(w1, w2)
                assert got == koszul_sort(w1 + w2), (w1, w2)
                signs.add(got[0])
        assert signs == {-1, 0, 1}

    def test_mul_equals_reference_on_seeded_charts(self):
        rng = random.Random(1401)
        shared = 0
        for _ in range(300):
            sig = random_signature(rng)
            f, g = rand_chart_function(rng, sig, 3), rand_chart_function(rng, sig, 3)
            assert f.mul(g) == reference_mul(f, g)
            shared += any(koszul_sort(w1 + w2)[0] == 0 for w1 in f.terms for w2 in g.terms)
        assert shared > 20

    @pytest.mark.parametrize("profile", [p for p in CHART_PROFILES if ("p", 2) in p])
    def test_overflow_matches_reference(self, profile):
        # a product of degree max_degree + 1, built from the even generator p
        # and, for an odd degree, the odd e1
        by_deg = {}
        for name, d in profile:
            by_deg.setdefault(d, []).append(name)
        n = max(by_deg)
        sig = GradedSignature(n, ("x",), [tuple(by_deg.get(i, ())) for i in range(1, n + 1)])
        top = sig.max_degree + 1
        e, p = sig.gen_by_name("e1"), sig.gen_by_name("p")
        one = Poly.one(1)
        left = GradedFunction.monomial(sig, (e,) * (top % 2) + (p,) * (top // 2 - 1), one)
        right = GradedFunction.monomial(sig, (p,), Poly.var(1, 0))
        with pytest.raises(DegreeOverflow) as want:
            reference_mul(left, right)
        with pytest.raises(DegreeOverflow) as got:
            left.mul(right)
        assert str(got.value) == str(want.value) == (
            f"product of degree {top} exceeds cap {sig.max_degree}")


class TestRingLaws:
    def test_graded_commutativity_randomized(self):
        rng = random.Random(23)
        for _ in range(200):
            df = rng.randint(0, 3)
            dg = rng.randint(0, 3)
            f = rand_function(rng, homogeneous=df)
            g = rand_function(rng, homogeneous=dg)
            lhs = f.mul(g)
            rhs = g.mul(f).scale((-1) ** (df * dg))
            assert lhs == rhs

    def test_associativity_randomized(self):
        rng = random.Random(29)
        for _ in range(120):
            f, g, h = (rand_function(rng, max_total=2) for _ in range(3))
            assert f.mul(g).mul(h) == f.mul(g.mul(h))

    def test_unit(self):
        rng = random.Random(31)
        for _ in range(20):
            g = rand_function(rng)
            assert GradedFunction.one(SIG).mul(g) == g

    def test_odd_anticommute(self):
        e, f = gf_gen("e1"), gf_gen("f1")
        assert e.mul(f) == f.mul(e).neg()

    def test_coefficient_generator_separation(self):
        x = GradedFunction.base_var(SIG, 0)
        y = GradedFunction.base_var(SIG, 1)
        e, f = gf_gen("e1"), gf_gen("f1")
        lhs = x.mul(e).mul(y.mul(f))
        rhs = x.mul(y).mul(e.mul(f))
        assert lhs == rhs

    def test_degree_cap(self):
        sig = GradedSignature(2, (), [("a",), ("p",)], max_degree=2)
        p = GradedFunction.from_gen(sig, (2, 0))
        with pytest.raises(DegreeOverflow):
            p.mul(p)
        # products that vanish by oddness never trip the cap
        a = GradedFunction.from_gen(sig, (1, 0))
        assert a.mul(a).is_zero()


class TestOperators:
    def test_operators_and_truth_value_agree_with_named_methods(self):
        rng = random.Random(47)
        for _ in range(80):
            f, g = rand_function(rng), rand_function(rng, homogeneous=rng.randint(0, 3))
            assert f + g == f.add(g) and -f == f.neg()
            assert bool(f) == (not f.is_zero()) and bool(g) == (not g.is_zero())
            assert f + (-f) == GradedFunction.zero(SIG) and not f + (-f)
        assert not GradedFunction.zero(SIG) and GradedFunction.one(SIG)
        assert not GradedFunction.monomial(SIG, (SIG.gen_by_name("e1"),) * 2, Poly.one(2))


class TestPow:
    # a 1|1|1 chart whose cap lets p^8 through
    R111 = GradedSignature(2, ("x",), [("e",), ("p",)], max_degree=17)

    def chart_function(self):
        sig = self.R111
        x, e, p = (GradedFunction.base_var(sig, 0), GradedFunction.from_gen(sig, (1, 0)),
                   GradedFunction.from_gen(sig, (2, 0)))
        return x.add(GradedFunction.constant(sig, Fraction(1, 2))).add(e).add(p.scale(3))

    def test_pow_matches_the_k_fold_product(self):
        f = self.chart_function()
        prod = GradedFunction.one(self.R111)
        for k in range(6):
            assert f.pow(k) == prod, k
            prod = prod.mul(f)

    def test_pow_makes_no_product_by_one_and_no_unread_square(self, monkeypatch):
        f = self.chart_function()
        calls = []
        mul = GradedFunction.mul
        monkeypatch.setattr(GradedFunction, "mul", lambda a, b: calls.append(1) or mul(a, b))
        for k, products in ((1, 0), (2, 1), (8, 3)):
            calls.clear()
            f.pow(k)
            assert len(calls) == products, k
        calls.clear()
        assert f.pow(0) == GradedFunction.one(self.R111) and calls == []


class TestCanonicalConstruction:
    XSIG = GradedSignature(1, ("x",), [("e1", "e2")])
    E1, E2 = (1, 0), (1, 1)

    def test_zero_coefficient_is_dropped(self):
        assert GradedFunction(self.XSIG, {(): Poly.zero(1)}).is_zero()

    def test_unsorted_word_is_koszul_sorted(self):
        sig = self.XSIG
        e2e1 = GradedFunction(sig, {(self.E2, self.E1): Poly.one(1)})
        e1e2 = GradedFunction.from_gen(sig, self.E1).mul(GradedFunction.from_gen(sig, self.E2))
        assert e2e1 == e1e2.neg()

    def test_repeated_odd_generator_is_zero(self):
        assert GradedFunction(self.XSIG, {(self.E1, self.E1): Poly.one(1)}).is_zero()

    def test_coinciding_words_merge(self):
        sig = self.XSIG
        f = GradedFunction(sig, {(self.E1, self.E2): Poly.one(1),
                                 (self.E2, self.E1): Poly.one(1)})
        assert f.is_zero()


class TestRepr:
    def test_repr_of_an_unprintable_coefficient_names_the_refusal(self):
        f = GradedFunction.constant(SIG, 10**5000).add(gf_gen("e1"))
        text = (f"coefficient of 5001 digits exceeds the limit of "
                f"{sys.get_int_max_str_digits()} digits for decimal output")
        assert repr(f) == f"GradedFunction(<{text}>)"
        with pytest.raises(NumberTooLong, match=f"^{text}$"):
            f.to_string()

    def test_repr_of_a_printable_function(self):
        assert repr(gf_gen("e1").scale(2)) == "GradedFunction(2*e1)"


class TestEvaluation:
    def test_body_eval_keeps_degree_zero_only(self):
        f = (
            GradedFunction.constant(SIG, 3)
            .add(GradedFunction.base_var(SIG, 0))
            .add(gf_gen("e1").mul(gf_gen("f1")))
        )
        assert f.body_eval([2, 0]) == Fraction(5)

    def test_positive_degree_evaluates_to_zero(self):
        f = gf_gen("e1").mul(gf_gen("p1"))
        assert f.body_eval([1, 1]) == 0

    def test_constant(self):
        assert GradedFunction.constant(SIG, 7).body_eval([0, 0]) == 7


class TestDerivatives:
    def test_left_derivative_basic(self):
        e, p = gf_gen("e1"), gf_gen("p1")
        assert e.mul(p).derivative_gen(SIG.gen_by_name("e1")) == p

    def test_even_power(self):
        p = gf_gen("p1")
        assert p.mul(p).derivative_gen(SIG.gen_by_name("p1")) == p.scale(2)

    def test_sign_when_passing_odd_factor(self):
        e, f = gf_gen("e1"), gf_gen("f1")
        d = e.mul(f).derivative_gen(SIG.gen_by_name("f1"))
        assert d == e.neg()

    def test_leibniz_randomized(self):
        rng = random.Random(37)
        g_id = SIG.gen_by_name("e1")
        for _ in range(60):
            df = rng.randint(0, 2)
            f = rand_function(rng, homogeneous=df)
            g = rand_function(rng, max_total=2)
            lhs = f.mul(g).derivative_gen(g_id)
            rhs = f.derivative_gen(g_id).mul(g).add(
                f.mul(g.derivative_gen(g_id)).scale((-1) ** df)
            )
            assert lhs == rhs


class TestDimensions:
    def test_monomial_counts_match_partition_enumeration(self):
        profiles = [(1, 1, 2), (1, 2, 2, 3), (1, 1, 1), (2, 2), (1, 2, 3, 3)]
        for degrees in profiles:
            gens = [(d, i) for i, d in enumerate(degrees)]
            for level in range(0, 9):
                assert len(monomials_of_degree(gens, level)) == partition_count(degrees, level)

    def test_dim_helper(self):
        assert dim_symmetric_component((1, 1), 2) == 1
        assert dim_symmetric_component((1,), 2) == 0
        assert dim_symmetric_component((2,), 4) == 1


class TestSubstitution:
    def test_substitute_identity(self):
        rng = random.Random(41)
        base = [GradedFunction.base_var(SIG, a) for a in range(2)]
        gens = {g: GradedFunction.from_gen(SIG, g) for g in SIG.gen_ids()}
        for _ in range(20):
            f = rand_function(rng)
            assert f.substitute(SIG, base, gens) == f

    def test_substitute_is_ring_map(self):
        rng = random.Random(43)
        base = [
            GradedFunction.base_var(SIG, 0).add(GradedFunction.base_var(SIG, 1)),
            GradedFunction.base_var(SIG, 1),
        ]
        gen_map = {g: GradedFunction.from_gen(SIG, g) for g in SIG.gen_ids()}
        # p1 -> p1 + e1*f1 is a degree-preserving change
        gen_map[SIG.gen_by_name("p1")] = gf_gen("p1").add(gf_gen("e1").mul(gf_gen("f1")))
        for _ in range(30):
            f = rand_function(rng, max_total=2)
            g = rand_function(rng, max_total=2)
            lhs = f.mul(g).substitute(SIG, base, gen_map)
            rhs = f.substitute(SIG, base, gen_map).mul(g.substitute(SIG, base, gen_map))
            assert lhs == rhs

    @staticmethod
    def rand_poly(rng, nv, terms, max_exp):
        """Several terms with exponents up to max_exp, so one power of a base
        image serves several terms."""
        return Poly(nv, {tuple(rng.randint(0, max_exp) for _ in range(nv)):
                         Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(terms)})

    def rand_substitution(self, rng, source, target):
        """Polynomial base images and homogeneous generator images, none of
        them the identity in general."""
        base = [GradedFunction.from_poly(target, self.rand_poly(rng, target.m0, 3, 2))
                for _ in range(source.m0)]
        gens = {}
        for g in source.gen_ids():
            words = monomials_of_degree(target.gen_ids(), g[0])
            gens[g] = GradedFunction(target, {rng.choice(words):
                                              self.rand_poly(rng, target.m0, 2, 1)
                                              for _ in range(2)})
        return base, gens

    def test_substitute_matches_per_exponent_products(self):
        rng = random.Random(53)
        for m0_source, m0_target in [(1, 1), (2, 2), (1, 2), (2, 1), (0, 1), (0, 2), (0, 0)]:
            for _ in range(12):
                gen_names = random_signature(rng).gen_names
                source = GradedSignature(len(gen_names), [f"x{a}" for a in range(m0_source)],
                                         gen_names)
                target = GradedSignature(len(gen_names), [f"y{a}" for a in range(m0_target)],
                                         gen_names)
                base, gens = self.rand_substitution(rng, source, target)
                words = [w for k in range(4) for w in monomials_of_degree(source.gen_ids(), k)]
                f = GradedFunction(source, {rng.choice(words): self.rand_poly(rng, m0_source, 4, 3)
                                            for _ in range(3)})
                got = f.substitute(target, base, gens)
                assert got == reference_substitute(f, target, base, gens)
                assert got.sig == target and all(c.nvars == m0_target for c in got.terms.values())

    def test_base_images_must_match_the_charts(self):
        base = [GradedFunction.base_var(SIG, a) for a in range(2)]
        gens = {g: GradedFunction.from_gen(SIG, g) for g in SIG.gen_ids()}
        other = GradedSignature(3, ("u", "v"), SIG.gen_names)
        f = GradedFunction.base_var(SIG, 0)
        for bad in (base[:1], [GradedFunction.base_var(other, 0), base[1]]):
            with pytest.raises(SignatureMismatch):
                f.substitute(SIG, bad, gens)

    def test_truncate_to(self):
        t = SIG.truncate(1)
        f = gf_gen("e1").add(gf_gen("p1"))
        assert f.truncate_to(t) == GradedFunction.from_gen(t, (1, 0))


class TestMonomialCount:
    def test_count_equals_the_listed_words(self):
        rng = random.Random(25)
        for _ in range(60):
            degrees = [rng.randint(1, 6) for _ in range(rng.randint(0, 6))]
            gens = [(d, i) for i, d in enumerate(degrees)]
            for level in range(10):
                assert dim_symmetric_component(degrees, level) == \
                    len(monomials_of_degree(gens, level)), (degrees, level)
        assert dim_symmetric_component([1, 2], -1) == len(monomials_of_degree([(1, 0), (2, 0)], -1))
