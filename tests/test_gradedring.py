import itertools
import random
from fractions import Fraction

import pytest

from gradman.errors import DegreeOverflow, UnknownGenerator
from gradman.exactnum import Poly
from gradman.gradedring import (
    GradedFunction,
    GradedSignature,
    braiding_sign,
    dim_symmetric_component,
    koszul_sort,
    monomials_of_degree,
    normalize,
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


def partition_count(degrees, level):
    """Independent dimension oracle: coefficient of t^level in
    prod over odd gens (1 + t^d) * prod over even gens 1/(1 - t^d)."""
    coeffs = [0] * (level + 1)
    coeffs[0] = 1
    for d in degrees:
        if d % 2 == 1:
            nxt = coeffs[:]
            for k in range(level + 1 - d):
                nxt[k + d] += coeffs[k]
            coeffs = nxt
        else:
            for k in range(d, level + 1):
                coeffs[k] += coeffs[k - d]
    return coeffs[level]


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

    def test_truncate_to(self):
        t = SIG.truncate(1)
        f = gf_gen("e1").add(gf_gen("p1"))
        assert f.truncate_to(t) == GradedFunction.from_gen(t, (1, 0))
