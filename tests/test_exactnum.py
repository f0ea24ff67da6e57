import random
import sys
from fractions import Fraction

import pytest

from gradman import exactnum
from gradman.errors import NumberTooLong
from gradman.exactnum import (
    Poly,
    PolyMatrix,
    kernel_basis,
    poly_inverse,
    poly_solve,
    primitive_vector,
    rank_at,
    rank_generic,
    rat_inverse,
    rat_kernel,
    rat_rank,
    rat_solve,
)

eliminate = exactnum._eliminate


def P(nvars, terms):
    """Build a Poly from {exps: coeff}."""
    return Poly(nvars, {tuple(e): Fraction(c) for e, c in terms.items()})


def rand_poly(rng, nvars=2, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if c != 0:
            terms[exps] = terms.get(exps, Fraction(0)) + c
    return Poly(nvars, {e: c for e, c in terms.items() if c != 0})


class TestPolyRepr:
    def test_repr_of_an_unprintable_coefficient_names_the_refusal(self):
        p = Poly.const(0, 10**5000)
        text = (f"coefficient of 5001 digits exceeds the limit of "
                f"{sys.get_int_max_str_digits()} digits for decimal output")
        assert repr(p) == f"Poly(<{text}>)"
        assert repr(Poly(1, {(1,): Fraction(1, 10**5000)})) == f"Poly(<{text}>)"
        with pytest.raises(NumberTooLong, match=f"^{text}$"):
            p.to_string([])

    def test_repr_of_a_printable_poly(self):
        assert repr(Poly(2, {(1, 0): 3, (0, 0): -1})) == "Poly(3*x0 - 1)"


class TestPolyArith:
    def test_difference_of_squares(self):
        x = Poly.var(1, 0)
        one = Poly.one(1)
        lhs = x.add(one).mul(x.sub(one))
        assert lhs == x.mul(x).sub(one)

    def test_additive_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            p = rand_poly(rng)
            assert p.add(Poly.zero(2)) == p

    def test_monomial_product_against_dense_oracle(self):
        # dense-array multiplication oracle on two variables, degree <= 4
        def dense(p, size=9):
            a = [[Fraction(0)] * size for _ in range(size)]
            for (i, j), c in p.terms.items():
                a[i][j] += c
            return a

        def dense_mul(a, b):
            size = len(a)
            out = [[Fraction(0)] * size for _ in range(size)]
            for i in range(size):
                for j in range(size):
                    if a[i][j] == 0:
                        continue
                    for k in range(size - i):
                        for l in range(size - j):
                            out[i + k][j + l] += a[i][j] * b[k][l]
            return out

        rng = random.Random(7)
        for _ in range(30):
            p, q = rand_poly(rng, max_deg=4), rand_poly(rng, max_deg=4)
            got = dense(p.mul(q), 18)
            want = dense_mul(dense(p, 18), dense(q, 18))
            assert got == want
        # separated coefficients: (2x) * (3y) = 6xy
        two_x = P(2, {(1, 0): 2})
        three_y = P(2, {(0, 1): 3})
        assert two_x.mul(three_y) == P(2, {(1, 1): 6})

    def test_ring_axioms_randomized(self):
        rng = random.Random(11)
        for _ in range(60):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert a.mul(b.mul(c)) == a.mul(b).mul(c)
            assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
            assert a.add(b) == b.add(a)

    def test_operators_are_the_named_methods(self):
        rng = random.Random(12)
        for _ in range(40):
            a, b = rand_poly(rng), rand_poly(rng)
            assert a + b == a.add(b) and -a == a.neg() and a * b == a.mul(b)
            assert bool(a) is not a.is_zero()
        assert not Poly.zero(2) and not Poly(2, {(1, 0): Fraction(0)})
        assert Poly.const(0, Fraction(1, 2))

    def test_div_exact(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        p = x.add(y).mul(x.sub(y))
        assert p.div_exact(x.add(y)) == x.sub(y)
        assert p.div_exact(x) is None

    def test_compose_and_eval(self):
        x, y = Poly.var(2, 0), Poly.var(2, 1)
        p = x.mul(x).add(y.scale(3))
        q = p.compose([y, x])  # swap variables
        assert q == y.mul(y).add(x.scale(3))
        assert p.eval([2, 5]) == Fraction(19)

    def test_derivative_antiderivative(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rand_poly(rng)
            assert p.antiderivative(0).derivative(0) == p


# --- canonical coefficients against a Fraction-only reference ----------------


def ref(p):
    """The terms of a Poly as a plain {exponents: Fraction} dict."""
    return {e: Fraction(c) for e, c in p.terms.items()}


def ref_clean(terms):
    return {e: c for e, c in terms.items() if c != 0}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return ref_clean(out)


def ref_scale(a, c):
    return ref_clean({e: Fraction(c) * v for e, v in a.items()})


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_pow(a, k, nvars):
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_compose(a, subs, nvars):
    out = {}
    for exps, c in a.items():
        term = {(0,) * nvars: c}
        for sub, k in zip(subs, exps):
            term = ref_mul(term, ref_pow(sub, k, nvars))
        out = ref_add(out, term)
    return out


def ref_derivative(a, i):
    out = {}
    for exps, c in a.items():
        if exps[i]:
            e = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
            out[e] = out.get(e, Fraction(0)) + c * exps[i]
    return ref_clean(out)


def ref_antiderivative(a, i):
    return {exps[:i] + (exps[i] + 1,) + exps[i + 1:]: c / (exps[i] + 1)
            for exps, c in a.items()}


def ref_eval(a, point):
    total = Fraction(0)
    for exps, c in a.items():
        v = c
        for x, k in zip(point, exps):
            v *= Fraction(x) ** k
        total += v
    return total


def canonical_poly(rng, nvars=2, integral=False):
    """A random Poly built through the public constructors only; with
    `integral` every coefficient is an integer."""
    p = Poly.zero(nvars)
    for _ in range(rng.randint(0, 4)):
        c = Fraction(rng.randint(-6, 6), 1 if integral else rng.randint(1, 3))
        mono = Poly.const(nvars, c)
        for i in range(nvars):
            mono = mono.mul(Poly.var(nvars, i).pow(rng.randint(0, 2)))
        p = p.add(mono)
    return p


def assert_canonical(p):
    for c in p.terms.values():
        assert c != 0
        assert type(c) in (int, Fraction), type(c)
        assert (type(c) is int) == (Fraction(c).denominator == 1), c
    return ref(p)


class TestCanonicalCoefficients:
    def pairs(self, seed):
        rng = random.Random(seed)
        for t in range(80):
            yield (canonical_poly(rng, integral=t % 2 == 0),
                   canonical_poly(rng, integral=t % 3 == 0))

    def test_ring_operations_match_fraction_reference(self):
        rng = random.Random(21)
        for a, b in self.pairs(20):
            ra, rb = assert_canonical(a), assert_canonical(b)
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert assert_canonical(a.add(b)) == ref_add(ra, rb)
            assert assert_canonical(a.sub(b)) == ref_add(ra, ref_scale(rb, -1))
            assert assert_canonical(a.neg()) == ref_scale(ra, -1)
            assert assert_canonical(a.mul(b)) == ref_mul(ra, rb)
            assert assert_canonical(a.scale(c)) == ref_scale(ra, c)
            assert assert_canonical(a.scale(2)) == ref_scale(ra, 2)
            for k in range(6):
                assert assert_canonical(a.pow(k)) == ref_pow(ra, k, 2)
            subs = [b, a.add(Poly.var(2, 0))]
            assert assert_canonical(a.compose(subs)) == ref_compose(ra, [ref(s) for s in subs], 2)

    def test_pow_makes_no_product_by_one_and_no_unread_square(self, monkeypatch):
        p = Poly.var(2, 0).add(Poly.const(2, Fraction(1, 2)))
        calls = []
        mul = Poly.mul
        monkeypatch.setattr(Poly, "mul", lambda a, b: calls.append(1) or mul(a, b))
        for k, products in ((1, 0), (2, 1), (8, 3)):
            calls.clear()
            assert ref(p.pow(k)) == ref_pow(ref(p), k, 2)
            assert len(calls) == products, k
        calls.clear()
        assert p.pow(0) == Poly.one(2) and calls == []

    def test_calculus_and_division_match_fraction_reference(self):
        for a, b in self.pairs(22):
            ra, rb = ref(a), ref(b)
            for i in range(2):
                assert assert_canonical(a.derivative(i)) == ref_derivative(ra, i)
                assert assert_canonical(a.antiderivative(i)) == ref_antiderivative(ra, i)
            if b.is_zero():
                continue
            q = a.mul(b).div_exact(b)
            assert assert_canonical(q) == ra
            q = a.div_exact(b)
            if q is not None:
                assert ref_mul(assert_canonical(q), rb) == ra

    def test_eval_and_extracted_values_are_fractions(self):
        rng = random.Random(23)
        for a, _ in self.pairs(24):
            point = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)]
            got = a.eval(point)
            assert type(got) is Fraction and got == ref_eval(ref(a), point)
            assert type(a.eval([1, 2])) is Fraction
            if not a.is_zero():
                exps, lc = a.leading()
                assert type(lc) is Fraction and lc == a.terms[exps]
        for c in (0, 3, Fraction(6, 2), Fraction(-1, 2)):
            p = Poly.const(2, c)
            assert type(p.constant_value()) is Fraction and p.constant_value() == c
            assert_canonical(p)
        # integral products and quotients of integral data stay int
        two = Poly.const(1, Fraction(4, 2))
        assert two.terms == {(0,): 2} and type(two.terms[(0,)]) is int
        half = Poly.const(1, Fraction(1, 2))
        assert type(half.mul(two).terms[(0,)]) is int
        assert type(Poly.var(1, 0).scale(2).div_exact(two).terms[(1,)]) is int
        assert assert_canonical(Poly.var(1, 0).div_exact(Poly.const(1, 3))) == {(1,): Fraction(1, 3)}

    def test_monomial_product_drops_a_zero_coefficient(self):
        # the constructor drops a zero coefficient, so a product never meets one
        zero_term = Poly(2, {(1, 0): 0})
        assert zero_term.terms == {} and zero_term.is_zero()
        assert Poly.var(2, 1).mul(zero_term).is_zero()
        assert zero_term.mul(Poly.var(2, 1)).terms == {}

    def test_constructor_is_canonical(self):
        zeros = Poly(2, {(1, 0): 0, (0, 1): Fraction(0), (0, 0): 0.0, (2, 0): Fraction(0, 5)})
        assert zeros.terms == {} and zeros.is_zero() and zeros == Poly.zero(2)
        assert Poly(0, {(): Fraction(0)}).is_zero()
        p = Poly(2, {(0, 0): Fraction(6, 2), (1, 0): Fraction(1, 2), (0, 1): 0.25, (1, 1): -4.0})
        assert p.terms == {(0, 0): 3, (1, 0): Fraction(1, 2), (0, 1): Fraction(1, 4), (1, 1): -4}
        assert [type(c) for c in p.terms.values()] == [int, Fraction, Fraction, int]
        assert_canonical(p)
        # equal to, and hashing with, its twin built by the named constructors
        for c in (3, Fraction(6, 2), Fraction(1, 2), -2.5, True):
            hand, twin = Poly(1, {(0,): c}), Poly.const(1, c)
            assert hand == twin and hash(hand) == hash(twin) and hand.terms == twin.terms
            assert all(type(a) is type(b) for a, b in zip(hand.terms.values(), twin.terms.values()))
        assert Poly.const(1, True).to_string(["x"]) == "1" and Poly(1, {(0,): False}).is_zero()
        hand, twin = Poly(3, {(0, 1, 0): Fraction(1)}), Poly.var(3, 1)
        assert hand == twin and hash(hand) == hash(twin)
        assert type(hand.terms[(0, 1, 0)]) is int
        # the constructor copies: later edits to the input dict do not reach it
        terms = {(1,): Fraction(2)}
        q = Poly(1, terms)
        terms[(1,)] = 5
        assert q.terms == {(1,): 2}


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        m = PolyMatrix.identity(3, 1)
        assert kernel_basis(m) == []

    def test_zero_matrix_kernel(self):
        m = PolyMatrix.zero(2, 2, 1)
        basis = kernel_basis(m)
        assert len(basis) == 2
        for v, flag in basis:
            assert flag

    def test_one_by_two_kernel(self):
        x = Poly.var(1, 0)
        m = PolyMatrix(1, 2, [[x, Poly.const(1, -1)]], 1)
        basis = kernel_basis(m)
        assert len(basis) == 1
        v, flag = basis[0]
        assert flag
        # M v = 0 identically
        assert m.entries[0][0].mul(v[0]).add(m.entries[0][1].mul(v[1])).is_zero()
        # spans (1, x)
        assert v[1].mul(Poly.one(1)) == v[0].mul(x)

    def test_kernel_vectors_annihilated(self):
        rng = random.Random(5)
        for _ in range(10):
            rows, cols = rng.randint(1, 3), rng.randint(1, 4)
            m = PolyMatrix(
                rows, cols,
                [[rand_poly(rng, nvars=1, max_deg=2, max_terms=2) for _ in range(cols)]
                 for _ in range(rows)],
                1,
            )
            for v, _ in kernel_basis(m):
                for i in range(rows):
                    s = Poly.zero(1)
                    for j in range(cols):
                        s = s.add(m.entries[i][j].mul(v[j]))
                    assert s.is_zero()


class TestRank:
    def test_identity_rank(self):
        m = PolyMatrix.identity(2, 1)
        assert rank_generic(m) == 2
        assert rank_at(m, [Fraction(3)]) == 2

    def test_single_variable_entry(self):
        m = PolyMatrix(1, 1, [[Poly.var(1, 0)]], 1)
        assert rank_generic(m) == 1
        assert rank_at(m, [Fraction(0)]) == 0

    def test_dependent_rows(self):
        x = Poly.var(1, 0)
        m = PolyMatrix(2, 2, [[x, x], [Poly.one(1), Poly.one(1)]], 1)
        # row reduction by hand: second column minus first column is zero
        assert rank_generic(m) == 1

    def test_generic_rank_dominates_point_rank(self):
        rng = random.Random(13)
        for _ in range(15):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = PolyMatrix(
                rows, cols,
                [[rand_poly(rng, nvars=2, max_deg=2, max_terms=2) for _ in range(cols)]
                 for _ in range(rows)],
                2,
            )
            g = rank_generic(m)
            for _ in range(4):
                pt = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
                assert g >= rank_at(m, pt)


class TestFractionField:
    def test_poly_solve_consistency(self):
        x = Poly.var(1, 0)
        m = PolyMatrix(2, 2, [[x, Poly.one(1)], [Poly.zero(1), x]], 1)
        sol, bad = poly_solve(m, [x.mul(x), x])
        assert bad is None
        # second coordinate solves x * c = x, so c = 1; first: x*a + 1 = x^2
        assert sol[1] == Poly.one(1)
        assert sol[0] is None  # a = (x^2 - 1)/x is not polynomial

    def test_poly_solve_inconsistent(self):
        m = PolyMatrix.zero(1, 1, 1)
        sol, bad = poly_solve(m, [Poly.one(1)])
        assert sol is None and bad == 0

    def test_poly_solve_leaves_rows_with_a_zero_pivot_entry(self, monkeypatch):
        # unit upper-triangular with x above the diagonal: every pivot and
        # every previous pivot is 1, so a row with a zero entry in the pivot
        # column stays as it is; only the k rows above pivot k are updated,
        # each by 2 products per entry of the n + 1 columns
        n = 5
        x, one, zero = Poly.var(1, 0), Poly.one(1), Poly.zero(1)
        m = PolyMatrix(n, n, [[one if c == r else x if c > r else zero for c in range(n)]
                              for r in range(n)], 1)
        b = [Poly.const(1, r + 1) for r in range(n)]
        calls = []
        mul = Poly.mul
        monkeypatch.setattr(Poly, "mul", lambda p, q: calls.append(1) or mul(p, q))
        sol, bad = poly_solve(m, b)
        monkeypatch.undo()
        assert bad is None and m.mul(PolyMatrix(n, 1, [[v] for v in sol], 1)).col(0) == b
        assert len(calls) == 2 * (n + 1) * n * (n - 1) // 2

    def test_poly_inverse(self):
        x = Poly.var(1, 0)
        m = PolyMatrix(2, 2, [[Poly.one(1), x], [Poly.zero(1), Poly.one(1)]], 1)
        inv = poly_inverse(m)
        assert inv is not None
        assert m.mul(inv) == PolyMatrix.identity(2, 1)
        bad = PolyMatrix(1, 1, [[x]], 1)
        assert poly_inverse(bad) is None

    def test_inverse_of_identity_needs_no_elimination(self, monkeypatch):
        # the elimination result is what `rat_inverse` gives on the numbers
        calls = []
        monkeypatch.setattr(exactnum, "_eliminate",
                            lambda *args, **kw: calls.append(1) or eliminate(*args, **kw))
        for n in range(5):
            for nv in range(3):
                m = PolyMatrix.identity(n, nv)
                want = PolyMatrix.from_rat(n, n, rat_inverse(m.to_rat()), nv)
                calls.clear()
                got = poly_inverse(m)
                assert calls == [] and got == want == PolyMatrix.identity(n, nv), (n, nv)
                assert got is not m and got.entries is not m.entries and got.nvars == nv
                if n:
                    got.entries[0][0] = Poly.var(nv, 0) if nv else Poly.zero(nv)
                    assert m == PolyMatrix.identity(n, nv)
        # a matrix one entry away from I is still eliminated
        x, one, zero = Poly.var(1, 0), Poly.one(1), Poly.zero(1)
        calls.clear()
        inv = poly_inverse(PolyMatrix(2, 2, [[one, x], [zero, one]], 1))
        assert calls and inv == PolyMatrix(2, 2, [[one, x.neg()], [zero, one]], 1)


class TestPrimitiveVector:
    def test_plain_numbers_come_back_as_primitive_ints(self):
        got = primitive_vector([Fraction(2, 3), 4, 0, Fraction(-8, 3)])
        assert got == [1, 6, 0, -4] and all(type(v) is int for v in got)
        assert primitive_vector([0, 0]) == [0, 0]
        assert primitive_vector([Fraction(-1, 2)]) == [-1]

    def test_matches_the_poly_vector(self):
        rng = random.Random(13)
        for _ in range(40):
            vec = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
            polys = primitive_vector([Poly.const(1, v) for v in vec])
            assert [Poly.const(1, v) for v in primitive_vector(vec)] == polys


class TestRatHelpers:
    def test_rank_and_kernel(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert rat_rank(m) == 1
        k = rat_kernel(m)
        assert len(k) == 1
        v = k[0]
        assert m[0][0] * v[0] + m[0][1] * v[1] == 0

    def test_solve_and_inverse(self):
        m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        x, bad = rat_solve(m, [Fraction(3), Fraction(2)])
        assert bad is None and x == [Fraction(1), Fraction(1)]
        inv = rat_inverse(m)
        assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]


def linear_matrix(rng, rows, cols, nvars):
    """Entries a0 + a1*x1 (+ a2*x2) with integer coefficients in [-3, 3]."""
    def entry():
        p = Poly.const(nvars, rng.randint(-3, 3))
        for i in range(nvars):
            p = p.add(Poly.var(nvars, i).scale(rng.randint(-3, 3)))
        return p
    return PolyMatrix(rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)], nvars)


def mat_vec(m, v):
    out = []
    for row in m.entries:
        s = Poly.zero(m.nvars)
        for a, b in zip(row, v):
            s = s.add(a.mul(b))
        out.append(s)
    return out


class TestCramerBound:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("rows,cols,nvars", [(4, 6, 1), (3, 5, 2)])
    def test_kernel_entries_within_cramer_bound(self, seed, rows, cols, nvars):
        # fraction-free kernel entries are minors of size rank, so their degree
        # is at most rank times the largest entry degree
        m = linear_matrix(random.Random(seed), rows, cols, nvars)
        rank = rank_generic(m)
        bound = rank * max(e.total_degree() for row in m.entries for e in row)
        basis = kernel_basis(m)
        assert len(basis) == cols - rank
        for v, flag in basis:
            assert flag
            assert all(s.is_zero() for s in mat_vec(m, v))
            assert max(p.total_degree() for p in v) <= bound


class TestSympyOracle:
    """Differential checks against sympy's matrices over Q and Q(x)."""

    @staticmethod
    def to_sympy(rows, xs):
        """sympy DomainMatrix over the fraction field, from rows of Polys."""
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        def conv(p):
            return sum((sympy.Rational(c.numerator, c.denominator)
                        * sympy.Mul(*[x**e for x, e in zip(xs, exps)])
                        for exps, c in p.terms.items()), sympy.Integer(0))
        sm = sympy.Matrix([[conv(p) for p in row] for row in rows])
        return DomainMatrix.from_Matrix(sm).to_field(), conv

    @staticmethod
    def sample(rng, nvars, constant):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        if constant:
            return PolyMatrix(rows, cols, [
                [Poly.const(nvars, Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
                 if rng.random() < 0.8 else Poly.zero(nvars) for _ in range(cols)]
                for _ in range(rows)], nvars)
        m = linear_matrix(rng, rows, cols, nvars)
        if rows > 1 and rng.random() < 0.6:  # a rank drop over Q(x)
            f = linear_matrix(rng, 1, 1, nvars).entries[0][0]
            m.entries[-1] = [p.mul(f) for p in m.entries[0]]
        return m

    @pytest.mark.parametrize("constant", [True, False])
    def test_rank_and_kernel_dimension(self, constant):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(21 + constant)
        for _ in range(40):
            nvars = rng.randint(1, 2)
            m = self.sample(rng, nvars, constant)
            dm, _ = self.to_sympy(m.entries, sympy.symbols(f"x0:{nvars}"))
            rank = rank_generic(m)
            assert rank == dm.rank()
            basis = kernel_basis(m)
            assert len(basis) == dm.nullspace().shape[0]
            for v, _ in basis:
                assert all(s.is_zero() for s in mat_vec(m, v))
            for _ in range(3):
                pt = [Fraction(rng.randint(-2, 2)) for _ in range(nvars)]
                assert rank >= rank_at(m, pt)

    @pytest.mark.parametrize("constant", [True, False])
    def test_poly_solve_against_sympy(self, constant):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(31 + constant)
        for _ in range(40):
            nvars = rng.randint(1, 2)
            m = self.sample(rng, nvars, constant)
            xs = sympy.symbols(f"x0:{nvars}")
            if rng.random() < 0.7:  # consistent right-hand side m * x0
                x0 = [Poly.const(nvars, rng.randint(-2, 2)).add(
                    Poly.var(nvars, 0).scale(rng.randint(-1, 1))) for _ in range(m.cols)]
                b = mat_vec(m, x0)
            else:
                b = [Poly.const(nvars, rng.randint(-2, 2)) for _ in range(m.rows)]
            sol, bad = poly_solve(m, b)
            aug, conv = self.to_sympy([row + [b[r]] for r, row in enumerate(m.entries)], xs)
            rref, pivots = aug.rref()
            if m.cols in pivots:
                assert sol is None and 0 <= bad < m.rows
                continue
            assert bad is None
            # the particular solution with every free variable zero
            want = [sympy.Integer(0)] * m.cols
            rref = rref.to_Matrix()
            for r, p in enumerate(pivots):
                want[p] = rref[r, m.cols]
            for p, w in zip(sol, want):
                num, den = sympy.fraction(sympy.cancel(w))
                if p is None:
                    assert sympy.Poly(den, *xs).total_degree() > 0
                else:
                    assert sympy.expand(conv(p) - w) == 0
            if all(p is not None for p in sol):
                assert mat_vec(m, sol) == b

    def test_poly_inverse(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(41)
        for _ in range(15):
            n, nvars = rng.randint(1, 3), rng.randint(1, 2)
            xs = sympy.symbols(f"x0:{nvars}")
            # unit lower times unit upper triangular, then scaled: a constant
            # nonzero determinant, so a polynomial inverse exists
            lo = PolyMatrix.identity(n, nvars)
            up = PolyMatrix.identity(n, nvars)
            for i in range(n):
                for j in range(i):
                    lo.entries[i][j] = linear_matrix(rng, 1, 1, nvars).entries[0][0]
                    up.entries[j][i] = linear_matrix(rng, 1, 1, nvars).entries[0][0]
            m = lo.mul(up).scale(Fraction(rng.choice([-2, 1, 3]), 2))
            inv = poly_inverse(m)
            assert inv is not None
            assert inv.mul(m) == PolyMatrix.identity(n, nvars)
            # adding x0 to a corner can make the determinant non-constant
            bad = PolyMatrix(n, n, [row[:] for row in m.entries], nvars)
            bad.entries[0][0] = bad.entries[0][0].add(Poly.var(nvars, 0))
            dm, _ = self.to_sympy(bad.entries, xs)
            det = sympy.Poly(dm.domain.to_sympy(dm.det()), *xs)
            assert (poly_inverse(bad) is None) == (det.total_degree() != 0)
