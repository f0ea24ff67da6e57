import random
from fractions import Fraction

import pytest

from gradman import fields
from gradman.coalgebra import CoalgebraBundle, split_coalgebra, wedge_coalgebra
from gradman.errors import DegreeMismatch
from gradman.exactnum import Poly, rat_rank
from gradman.fields import (
    ChartMap,
    CompatDerivation,
    VectorField,
    all_coords,
    base_coord,
    bracket,
    compat_bracket,
    compat_check,
    gen_coord,
    is_homological,
    homological_witness,
    linearly_independent,
    restrict_truncation,
    tangent_at,
    theta_action,
    to_compat_derivation,
    transform_field,
)
from gradman.geometrize import geometrize
from gradman.gradedring import GradedFunction, GradedSignature, monomials_of_degree
from randchart import (
    assert_as_constructed,
    conjugate_frames,
    full_after,
    full_is_identity,
    full_substitute,
    full_transform_field,
    partly_fixed_substitution,
    rand_function,
    random_signature,
    random_triangular_substitution,
    reference_compat_check,
    reference_compat_compose,
    reference_theta_action,
)

SIG = GradedSignature(3, ("x",), [("e1", "e2"), ("p",), ("q",)])
R11 = GradedSignature(1, ("x",), [("e",)])
R011 = GradedSignature(2, (), [("e",), ("p",)])


def gen(sig, name):
    return GradedFunction.from_gen(sig, sig.gen_by_name(name))


def dd(sig, name):
    if name in sig.base_names:
        return VectorField.coordinate_field(sig, base_coord(sig.base_names.index(name)))
    return VectorField.coordinate_field(sig, gen_coord(sig.gen_by_name(name)))


def rand_coeff(rng, sig):
    exps = tuple(rng.randint(0, 1) for _ in range(sig.m0))
    c = rng.randint(-3, 3)
    return Poly(sig.m0, {exps: c} if c else {})


def rand_field(rng, sig, degree):
    actions = {}
    for c in all_coords(sig):
        target = (0 if c[0] == "x" else c[1][0]) + degree
        if target < 0 or rng.random() < 0.4:
            continue
        words = monomials_of_degree(sig.gen_ids(), target)
        if not words:
            continue
        w = words[rng.randrange(len(words))]
        f = GradedFunction.monomial(sig, w, rand_coeff(rng, sig))
        if not f.is_zero():
            actions[c] = f
    return VectorField(sig, degree, actions)


class TestValidation:
    def test_inhomogeneous_action_rejected(self):
        mixed = GradedFunction.one(SIG).add(gen(SIG, "p"))
        with pytest.raises(DegreeMismatch):
            VectorField(SIG, 0, {gen_coord(SIG.gen_by_name("p")): mixed.mul(gen(SIG, "e1"))})

    def test_negative_target_rejected(self):
        with pytest.raises(DegreeMismatch):
            VectorField(SIG, -1, {base_coord(0): GradedFunction.one(SIG)})


class TestAdd:
    def test_cancelling_actions_are_dropped(self):
        rng = random.Random(57)
        for _ in range(40):
            k = rng.choice([-2, -1, 0])
            x, y = rand_field(rng, SIG, k), rand_field(rng, SIG, k)
            assert x.add(y.sub(x)) == y and x.add(x.neg()).actions == {}
            for c, f in x.add(y).actions.items():
                assert f and f == x.action(c).add(y.action(c))

    def test_one_cancelling_coordinate(self):
        e1, e2 = gen_coord(SIG.gen_by_name("e1")), gen_coord(SIG.gen_by_name("e2"))
        one = GradedFunction.one(SIG)
        x = VectorField(SIG, -1, {e1: one, e2: one})
        y = VectorField(SIG, -1, {e1: one.neg(), e2: one})
        assert x.add(y).actions == {e2: one.scale(2)}


class TestApply:
    def test_leibniz_on_product_example(self):
        # d/de1 applied to e1*p gives p
        f = gen(SIG, "e1").mul(gen(SIG, "p"))
        assert dd(SIG, "e1").apply(f) == gen(SIG, "p")

    def test_foreign_coordinate(self):
        assert dd(SIG, "e1").apply(gen(SIG, "e2")).is_zero()

    def test_shifted_generator_field(self):
        # (d/de + e d/dp)(p) = e on the 0|1|1 chart
        d = dd(R011, "e").add(dd(R011, "p").scale(gen(R011, "e")))
        assert d.apply(gen(R011, "p")) == gen(R011, "e")
        assert d.apply(gen(R011, "e")) == GradedFunction.one(R011)

    def test_derivation_rule_randomized(self):
        rng = random.Random(51)
        for _ in range(80):
            k = rng.choice([-2, -1, 0, 1])
            x = rand_field(rng, SIG, k)
            df = rng.randint(0, 2)
            words = monomials_of_degree(SIG.gen_ids(), df)
            f = GradedFunction.monomial(SIG, words[rng.randrange(len(words))], rand_coeff(rng, SIG))
            g_words = monomials_of_degree(SIG.gen_ids(), rng.randint(0, 2))
            g = GradedFunction.monomial(SIG, g_words[rng.randrange(len(g_words))], rand_coeff(rng, SIG))
            sign = -1 if (df * k) % 2 else 1
            lhs = x.apply(f.mul(g))
            rhs = x.apply(f).mul(g).add(f.mul(x.apply(g)).scale(sign))
            assert lhs == rhs


class TestBracket:
    def test_constant_coordinate_fields_commute(self):
        assert bracket(dd(SIG, "x"), dd(SIG, "e1")).is_zero()

    def test_odd_self_bracket_gives_double_square(self):
        d = dd(R011, "e").add(dd(R011, "p").scale(gen(R011, "e")))
        b = bracket(d, d)
        expect = dd(R011, "p").scale(2)
        assert b == expect

    def test_nonabelian_ce_differential_squares_to_zero(self):
        sig = GradedSignature(1, (), [("al", "be")])
        q = VectorField(sig, 1, {
            gen_coord(sig.gen_by_name("be")): gen(sig, "al").mul(gen(sig, "be")).neg(),
        })
        assert bracket(q, q).is_zero()

    def test_antisymmetry_randomized(self):
        rng = random.Random(57)
        for _ in range(60):
            kx, ky = rng.choice([-2, -1, 0, 1]), rng.choice([-1, 0, 1])
            x, y = rand_field(rng, SIG, kx), rand_field(rng, SIG, ky)
            sign = -1 if (kx * ky) % 2 else 1
            assert bracket(x, y) == bracket(y, x).scale(-sign)

    def test_jacobi_randomized(self):
        rng = random.Random(61)
        for _ in range(40):
            degs = [rng.choice([-2, -1, 0, 1]) for _ in range(3)]
            x, y, z = (rand_field(rng, SIG, d) for d in degs)
            kx, ky, kz = degs

            def sgn(a, b):
                return -1 if (a * b) % 2 else 1

            t1 = bracket(x, bracket(y, z)).scale(sgn(kx, kz))
            t2 = bracket(y, bracket(z, x)).scale(sgn(ky, kx))
            t3 = bracket(z, bracket(x, y)).scale(sgn(kz, ky))
            total = t1.add(t2).add(t3)
            assert total.is_zero()

    def test_bracket_acts_as_commutator(self):
        rng = random.Random(63)
        for _ in range(25):
            x = rand_field(rng, SIG, rng.choice([-1, 0]))
            y = rand_field(rng, SIG, rng.choice([-1, 0, 1]))
            f_words = monomials_of_degree(SIG.gen_ids(), rng.randint(0, 2))
            f = GradedFunction.monomial(SIG, f_words[rng.randrange(len(f_words))],
                                        rand_coeff(rng, SIG))
            sign = -1 if (x.degree * y.degree) % 2 else 1
            lhs = bracket(x, y).apply(f)
            rhs = x.apply(y.apply(f)).sub(y.apply(x.apply(f)).scale(sign))
            assert lhs == rhs


class TestTangent:
    def test_equal_tangents_different_fields(self):
        x = dd(R11, "x")
        y = dd(R11, "x").add(dd(R11, "e").scale(gen(R11, "e")))
        for p in range(10):
            assert tangent_at(x, [p]).components == tangent_at(y, [p]).components
        assert x != y

    def test_zero_field(self):
        assert tangent_at(VectorField.zero(R11, -1), [0]).is_zero()

    def test_body_evaluation_kills_generator_coefficients(self):
        fields = [dd(R11, "e"), dd(R11, "e").scale(gen(R11, "e"))]
        assert not linearly_independent(fields, [[Fraction(0)], [Fraction(2)]])

    def test_tangent_scaling_by_body_value(self):
        rng = random.Random(67)
        for _ in range(20):
            x = rand_field(rng, SIG, rng.choice([-1, 0]))
            coeff = rand_coeff(rng, SIG)
            f = GradedFunction.from_poly(SIG, coeff)
            p = [Fraction(rng.randint(-2, 2))]
            scaled = tangent_at(x.scale(f), p)
            base = tangent_at(x, p)
            lam = coeff.eval(p)
            assert all(scaled.components[c] == lam * base.components[c]
                       for c in scaled.components)

    def test_independence(self):
        assert linearly_independent([dd(SIG, "x"), dd(SIG, "e1")], [[Fraction(0)]])
        assert not linearly_independent([dd(SIG, "e1"), dd(SIG, "e1")], [[Fraction(0)]])


class TestHomological:
    def test_zero_field(self):
        assert is_homological(VectorField.zero(SIG, 1))

    def test_ce_differential_of_nonabelian_two_dim(self):
        sig = GradedSignature(1, (), [("al", "be")])
        q = VectorField(sig, 1, {
            gen_coord(sig.gen_by_name("be")): gen(sig, "al").mul(gen(sig, "be")).neg(),
        })
        assert is_homological(q)

    def test_sl2_sign_flip_fails_with_witness(self):
        # CE differential of sl2: flipping one structure sign breaks the
        # square-zero identity with a visible cubic witness
        sig = GradedSignature(1, (), [("ee", "ff", "hh")])
        ee, ff, hh = (gen(sig, n) for n in ("ee", "ff", "hh"))
        good = VectorField(sig, 1, {
            gen_coord(sig.gen_by_name("hh")): ee.mul(ff).neg(),
            gen_coord(sig.gen_by_name("ee")): hh.mul(ee).scale(-2),
            gen_coord(sig.gen_by_name("ff")): hh.mul(ff).scale(2),
        })
        assert is_homological(good)
        flipped = VectorField(sig, 1, {
            gen_coord(sig.gen_by_name("hh")): ee.mul(ff).neg(),
            gen_coord(sig.gen_by_name("ee")): hh.mul(ee).scale(-2),
            gen_coord(sig.gen_by_name("ff")): hh.mul(ff).scale(-2),
        })
        assert not is_homological(flipped)
        w = homological_witness(flipped)
        assert w is not None and not w.is_zero()

    def test_wrong_degree(self):
        with pytest.raises(DegreeMismatch):
            is_homological(VectorField.zero(SIG, -1))


class TestRestriction:
    def test_full_restriction_is_identity_table(self):
        rng = random.Random(71)
        x = rand_field(rng, SIG, -1)
        r = restrict_truncation(x, 3)
        assert {c: f.terms for c, f in r.actions.items()} == {
            c: f.terms for c, f in x.actions.items()
        }

    def test_top_degree_fields_restrict_to_zero(self):
        z = dd(SIG, "q")  # degree -3
        assert restrict_truncation(z, 2).is_zero()

    def test_degree_zero_restricts_to_symbol(self):
        x = dd(SIG, "x").scale(GradedFunction.base_var(SIG, 0)).add(
            dd(SIG, "e1").scale(gen(SIG, "e1"))
        )
        r = restrict_truncation(x, 0)
        assert list(r.actions) == [base_coord(0)]

    def test_pair_determines_field(self):
        # a non-positive field is pinned by its truncation plus its action on
        # top-degree coordinates, and the two agree on products of lower ones
        rng = random.Random(73)
        for _ in range(10):
            k = rng.choice([-1, 0])
            x = rand_field(rng, SIG, k)
            res = restrict_truncation(x, 2)
            top = {c: x.action(c) for c in all_coords(SIG) if c[0] == "g" and c[1][0] == 3}
            rebuilt_actions = {}
            for c, f in res.actions.items():
                lifted = GradedFunction(SIG, dict(f.terms))
                rebuilt_actions[c] = lifted
            for c, f in top.items():
                if not f.is_zero():
                    rebuilt_actions[c] = f
            rebuilt = VectorField(SIG, k, rebuilt_actions)
            assert rebuilt == x
            # agreement on degree-3 products of lower-degree coordinates
            e1p = gen(SIG, "e1").mul(gen(SIG, "p"))
            lift = x.apply(e1p)
            truncated_value = res.apply(e1p.truncate_to(res.sig))
            assert lift.truncate_to(res.sig) == truncated_value


class TestChartMap:
    def test_transform_flattens_shifted_field(self):
        sig = GradedSignature(2, (), [("e1", "e2"), ("ph",)])
        e1, e2, ph = gen(sig, "e1"), gen(sig, "e2"), gen(sig, "ph")
        y = dd(sig, "e1").add(dd(sig, "ph").scale(e2))
        new_in_old = ChartMap(
            sig, sig,
            [],
            {
                sig.gen_by_name("e1"): e1,
                sig.gen_by_name("e2"): e2,
                sig.gen_by_name("ph"): ph.sub(e1.mul(e2)),
            },
        )
        old_in_new = ChartMap(
            sig, sig,
            [],
            {
                sig.gen_by_name("e1"): e1,
                sig.gen_by_name("e2"): e2,
                sig.gen_by_name("ph"): ph.add(e1.mul(e2)),
            },
        )
        assert new_in_old.after(old_in_new).is_identity()
        flat = transform_field(y, new_in_old, old_in_new)
        assert flat == dd(sig, "e1")

    def test_compose_with_base_change(self):
        sig = GradedSignature(1, ("x", "y"), [("e",)])
        fx = GradedFunction.base_var(sig, 0)
        fy = GradedFunction.base_var(sig, 1)
        fwd = ChartMap(sig, sig, [fx.add(fy), fy],
                       {sig.gen_by_name("e"): gen(sig, "e")})
        bwd = ChartMap(sig, sig, [fx.sub(fy), fy],
                       {sig.gen_by_name("e"): gen(sig, "e")})
        assert fwd.after(bwd).is_identity()
        assert bwd.after(fwd).is_identity()


def same_map(a, b):
    return (a.source == b.source and a.target == b.target
            and a.base == b.base and a.gens == b.gens)


def moved_coords(m):
    """The source coordinates that m does not fix, in chart order."""
    return [c for c in all_coords(m.source) if not m.fixes(c)]


def shear_identity(rng, sig):
    """An identity map edited in place, one coordinate shifted by terms free
    of it: a base shift x_b + c*x_b2 + k, or a generator shift g + sum of
    words in other generators."""
    m = ChartMap.identity(sig)
    assert m.is_identity()
    if sig.m0 and rng.random() < 0.4:
        b = rng.randrange(sig.m0)
        b2 = (b + 1) % sig.m0
        shift = GradedFunction.constant(sig, rng.randint(-1, 1))
        if b2 != b:
            shift = shift.add(GradedFunction.base_var(sig, b2).scale(rng.choice([-1, 1])))
        m.base[b] = m.base[b].add(shift)
        return m
    g = rng.choice(sig.gen_ids())
    words = [w for w in monomials_of_degree(sig.gen_ids(), g[0]) if g not in w]
    for w in rng.sample(words, min(len(words), 2)):
        m.gens[g] = m.gens[g].add(GradedFunction.monomial(sig, w, rand_coeff(rng, sig)))
    return m


class TestMovedCoordinates:
    """Composition, application and field transport skip the coordinates a
    map fixes; each must equal the full substitution."""

    def check_fixes(self, m):
        """A coordinate is fixed exactly when its image is the identity's."""
        ident = ChartMap.identity(m.source)
        for c in all_coords(m.source):
            assert m.fixes(c) == (m.image(c) == ident.image(c)), c

    def check_against_full(self, rng, sig, a, b):
        self.check_fixes(a)
        self.check_fixes(b)
        assert a.is_identity() == full_is_identity(a)
        assert same_map(a.after(b), full_after(a, b))
        assert same_map(b.after(a), full_after(b, a))
        for _ in range(3):
            x = rand_field(rng, sig, rng.randint(-sig.n, 0))
            assert transform_field(x, a, b) == full_transform_field(x, a, b)
            assert transform_field(x, b, a) == full_transform_field(x, b, a)
            for c in all_coords(sig):
                f = x.action(c)
                assert a.apply_to(f) == full_substitute(a, f)

    def test_identity_edited_after_construction(self):
        # fixed coordinates are read at use time, so edits into .base and .gens of
        # an identity map (queried once before the edit) are seen
        rng = random.Random(1404)
        moved = 0
        for _ in range(40):
            sig = random_signature(rng)
            a = shear_identity(rng, sig)
            moved += not a.is_identity()
            self.check_against_full(rng, sig, a, random_triangular_substitution(rng, sig))
            self.check_against_full(rng, sig, a, shear_identity(rng, sig))
        assert moved > 30

    def test_random_triangular_substitutions(self):
        rng = random.Random(1405)
        for _ in range(30):
            sig = random_signature(rng)
            self.check_against_full(rng, sig, random_triangular_substitution(rng, sig),
                                    random_triangular_substitution(rng, sig))

    def test_identity_edited_back_is_identity(self):
        sig = SIG
        m = ChartMap.identity(sig)
        e1 = gen(sig, "e1")
        m.gens[(1, 0)] = e1.add(gen(sig, "e2"))
        assert moved_coords(m) == [gen_coord((1, 0))] and not m.is_identity()
        m.gens[(1, 0)] = e1
        assert not moved_coords(m) and m.is_identity()
        del m.gens[(3, 0)]
        assert moved_coords(m) == [gen_coord((3, 0))] and not m.is_identity()

    def test_one_term_images_next_to_the_identity(self):
        # each image has one term and differs from the identity's in the
        # base exponents, the word or the coefficient alone
        sig = GradedSignature(1, ("x", "y"), [("e1", "e2")])
        x, y = (GradedFunction.base_var(sig, a) for a in range(2))
        e1 = gen(sig, "e1")
        for c, image in [(base_coord(0), x.mul(y)), (base_coord(0), y),
                         (base_coord(0), x.scale(2)), (gen_coord((1, 0)), e1.mul(x)),
                         (gen_coord((1, 0)), gen(sig, "e2")),
                         (gen_coord((1, 0)), e1.scale(-1))]:
            m = ChartMap.identity(sig)
            (m.base if c[0] == "x" else m.gens)[c[1]] = image
            assert moved_coords(m) == [c]
            self.check_fixes(m)

    def test_map_between_charts_moves_every_coordinate(self):
        # same shape, other names: the images live on another chart, so even
        # a constant image is rewritten onto it
        other = GradedSignature(3, ("y",), [("f1", "f2"), ("u",), ("v",)])
        m = ChartMap(SIG, other, [GradedFunction.base_var(other, 0)],
                     {g: GradedFunction.from_gen(other, g) for g in SIG.gen_ids()})
        assert moved_coords(m) == all_coords(SIG)
        self.check_fixes(m)
        assert not m.is_identity() and not full_is_identity(m)
        for f in (GradedFunction.constant(SIG, 3), GradedFunction.zero(SIG),
                  gen(SIG, "e1").mul(gen(SIG, "p"))):
            assert m.apply_to(f) == full_substitute(m, f)
            assert m.apply_to(f).sig == other
        back = ChartMap(other, SIG, [GradedFunction.base_var(SIG, 0)],
                        {g: GradedFunction.from_gen(SIG, g) for g in SIG.gen_ids()})
        self.check_fixes(back)
        assert same_map(m.after(back), full_after(m, back))
        assert m.after(back).is_identity()


class TestApplyToOracle:
    """`apply_to` substitutes only the terms that involve a moved coordinate;
    each result must equal the substitution of the whole function."""

    def check(self, rng, m, sig):
        for _ in range(6):
            f = rand_function(rng, sig)
            got = m.apply_to(f)
            assert got == f.substitute(m.target, m.base, m.gens) and got.sig == m.target

    def test_maps_that_fix_some_coordinates(self):
        rng = random.Random(2401)
        seen = set()
        for _ in range(40):
            sig = random_signature(rng)
            seen.add(sig.m0)
            self.check(rng, partly_fixed_substitution(rng, sig), sig)
        assert seen == {1, 2}

    def test_images_assigned_or_restored_after_construction(self):
        rng = random.Random(2402)
        seen = set()
        for _ in range(40):
            sig = random_signature(rng)
            seen.add(sig.m0)
            m = shear_identity(rng, sig)
            self.check(rng, m, sig)
            m = random_triangular_substitution(rng, sig)
            self.check(rng, m, sig)
            ident = ChartMap.identity(sig)
            for c in rng.sample(all_coords(sig), 2):
                (m.base if c[0] == "x" else m.gens)[c[1]] = ident.image(c)
            self.check(rng, m, sig)
        assert seen == {1, 2}

    def test_chart_changing_maps(self):
        rng = random.Random(2403)
        for m0 in (1, 2):
            sig = GradedSignature(2, [f"x{a + 1}" for a in range(m0)], [("e1", "e2"), ("p",)])
            other = GradedSignature(2, [f"y{a + 1}" for a in range(m0)], [("f1", "f2"), ("u",)])
            for _ in range(10):
                full = random_triangular_substitution(rng, other)
                m = ChartMap(sig, other, full.base, full.gens)
                self.check(rng, m, sig)
                const = GradedFunction.constant(sig, 3)
                assert m.apply_to(const) == GradedFunction.constant(other, 3)


class TestUncheckedBuilds:
    """`identity` and `after` build through `_chart_map`, which checks no
    image; each map they build must be the one the constructor builds."""

    def test_identity_and_composites_on_the_oracle_maps(self, monkeypatch):
        built = []
        chart_map = fields._chart_map
        monkeypatch.setattr(fields, "_chart_map",
                            lambda *a: built.append(chart_map(*a)) or built[-1])
        rng = random.Random(2401)
        for _ in range(40):
            sig = random_signature(rng)
            a, b = partly_fixed_substitution(rng, sig), random_triangular_substitution(rng, sig)
            built.clear()
            ident = ChartMap.identity(sig)
            maps = [ident, a.after(b), b.after(a), a.after(ident), ident.after(a)]
            assert maps[0].is_identity() and same_map(maps[3], a) and same_map(maps[4], a)
            assert built == maps
            for m in maps:
                assert_as_constructed(m, rng)
        for m0 in (1, 2):
            sig = GradedSignature(2, [f"x{a + 1}" for a in range(m0)], [("e1", "e2"), ("p",)])
            other = GradedSignature(2, [f"y{a + 1}" for a in range(m0)], [("f1", "f2"), ("u",)])
            full = random_triangular_substitution(rng, other)
            there = ChartMap(sig, other, full.base, full.gens)
            back = ChartMap(other, sig, [GradedFunction.base_var(sig, a) for a in range(m0)],
                            {g: GradedFunction.from_gen(sig, g) for g in other.gen_ids()})
            for m in (there.after(back), back.after(there)):
                assert_as_constructed(m, rng)

    def test_the_constructor_refuses_inhomogeneous_images(self):
        sig = GradedSignature(2, ("x",), [("e1", "e2"), ("p",)])
        ident = ChartMap.identity(sig)
        x, e1, p = GradedFunction.base_var(sig, 0), gen(sig, "e1"), gen(sig, "p")
        with pytest.raises(DegreeMismatch, match="^base coordinate image must have degree 0$"):
            ChartMap(sig, sig, [x.add(e1)], ident.gens)
        for g, image, name in [((1, 0), e1.add(x), "e1 must have degree 1"),
                               ((2, 0), e1, "p must have degree 2"),
                               ((2, 0), p.add(e1.mul(gen(sig, "e2"))).add(x), "p must")]:
            with pytest.raises(DegreeMismatch, match=f"^image of {name}"):
                ChartMap(sig, sig, ident.base, {**ident.gens, g: image})
        # a zero image has every degree
        assert not ChartMap(sig, sig, ident.base, {**ident.gens, (2, 0): x.scale(0)}).is_identity()


class TestCompatDerivations:
    def test_to_compat_passes_check_on_corpus(self):
        rng = random.Random(83)
        # the frame-conjugated bundles have non-identity splittings
        conjugated = [conjugate_frames(random.Random(seed), split_coalgebra(list(profile)))
                      for seed, profile in enumerate([(2, 1), (2, 2, 1), (1, 1, 1)])]
        for e in [split_coalgebra([2, 1]), wedge_coalgebra(2, 2)] + conjugated:
            chart = geometrize(e)
            for _ in range(8):
                k = rng.choice([-2, -1, 0])
                x = rand_field(rng, chart.sig, k)
                d = to_compat_derivation(x, e, chart)
                assert compat_check(d, e), (e, k)

    def test_hand_made_incompatible_fails(self):
        e = wedge_coalgebra(2, 2)
        # degree 0 map acting as identity on degree 1 frames but zero on the
        # degree 2 frame violates multiplicativity
        nv = 0
        d = CompatDerivation(0, e, {
            1: [[Poly.one(nv), Poly.zero(nv)], [Poly.zero(nv), Poly.one(nv)]],
            2: [[Poly.zero(nv)]],
        }, symbol=[])
        assert not compat_check(d, e)

    def test_symbol_acts_on_varying_structure_constants(self):
        # comultiplication scaled by 1 + x: the only compatible derivations
        # with symbol (1 + x) d/dx balance the derivative of the scale factor
        from gradman.coalgebra import CoalgebraBundle
        from gradman.exactnum import PolyMatrix

        x = Poly.var(1, 0)
        scale = Poly.one(1).add(x)
        block = PolyMatrix.zero(4, 1, 1)
        block.entries[1][0] = scale
        block.entries[2][0] = scale.neg()
        e = CoalgebraBundle(2, ("x",), {1: 2, 2: 1}, {2: {(1, 1): block}})
        zero, one = Poly.zero(1), Poly.one(1)
        good = CompatDerivation(0, e, {
            1: [[one, zero], [zero, zero]],
            2: [[zero]],
        }, symbol=[scale])
        assert compat_check(good, e)
        bad = CompatDerivation(0, e, {
            1: [[one, zero], [zero, zero]],
            2: [[one]],
        }, symbol=[scale])
        assert not compat_check(bad, e)

    def test_top_degree_space_has_kernel_dimension(self):
        # constant frame derivations of lowest degree form the kernel of the
        # top comultiplication: check the linear system dimension
        for profile in [(2, 1), (1, 1, 1), (2, 2, 1)]:
            e = split_coalgebra(profile)
            n = e.n
            rank_top = e.rank(n)
            rows = []
            for i in range(1, n):
                j = n - i
                for a in range(e.rank(i)):
                    for b in range(e.rank(j)):
                        from gradman.fields import _mu_entry

                        rows.append([
                            _mu_entry(e, i, j, a, b, c).constant_value()
                            for c in range(rank_top)
                        ])
            dim = rank_top - rat_rank(rows) if rows else rank_top
            kernel_rank = len([g for g in e.split.gens if g[0] == n])
            assert dim == kernel_rank

    def test_symbol_of_degree_zero_field(self):
        e = split_coalgebra([2, 1], base_names=("x",))
        chart = geometrize(e)
        x = dd(chart.sig, "x").scale(GradedFunction.base_var(chart.sig, 0))
        d = to_compat_derivation(x, e, chart)
        assert d.symbol == [Poly.var(1, 0)]
        # restriction to the base recovers the symbol
        r = restrict_truncation(x, 0)
        assert r.action(base_coord(0)).body() == Poly.var(1, 0)

    def test_theta_matches_function_scaling(self):
        e = split_coalgebra([2, 1])
        chart = geometrize(e)
        rng = random.Random(89)
        for _ in range(10):
            k = rng.choice([-1, -2])
            x = rand_field(rng, chart.sig, k)
            d = to_compat_derivation(x, e, chart)
            for i in range(1, e.n + 1):
                if k + i > 0:
                    continue
                for a in range(e.rank(i)):
                    fe = chart.embeddings[i][a]
                    lhs = theta_action((i, a), d, e)
                    rhs = to_compat_derivation(x.scale(fe), e, chart)
                    assert lhs.matrices == rhs.matrices, (i, a, k)

    def test_bracket_preserved(self):
        e = split_coalgebra([2, 1])
        chart = geometrize(e)
        rng = random.Random(91)
        for _ in range(10):
            kx, ky = rng.choice([-2, -1, 0]), rng.choice([-1, 0])
            x, y = rand_field(rng, chart.sig, kx), rand_field(rng, chart.sig, ky)
            lhs = to_compat_derivation(bracket(x, y), e, chart)
            rhs = compat_bracket(
                to_compat_derivation(x, e, chart),
                to_compat_derivation(y, e, chart),
                e,
            )
            assert lhs.matrices == {j: m for j, m in rhs.matrices.items() if j in lhs.matrices} or lhs.matrices == rhs.matrices
            for j, m in rhs.matrices.items():
                if j not in lhs.matrices:
                    assert all(p.is_zero() for row in m for p in row)
                else:
                    assert lhs.matrices[j] == m
            if lhs.symbol is not None or rhs.symbol is not None:
                assert (lhs.symbol or []) == (rhs.symbol or [])


class TestIndependenceOverTheRing:
    def test_no_nonzero_relation_for_independent_fields(self):
        # pointwise independent homogeneous fields admit no function-linear
        # relation: the stacked coefficient system has full column rank
        sig = GradedSignature(2, ("x",), [("e1", "e2"), ("p",)])
        fields = [dd(sig, "x"), dd(sig, "e1"), dd(sig, "p")]
        assert linearly_independent(fields, [[Fraction(0)], [Fraction(1)]])
        # relation layer: constants against each coordinate action
        rows = []
        for c in all_coords(sig):
            rows.append([f.action(c).body_eval([Fraction(0)]) for f in fields])
        assert rat_rank(rows) == len(fields)


# --- frame derivations on dual-algebra elements against the expanded bodies ---


def random_poly(rng, nv):
    """Zero half the time, else up to two terms of degree <= 1 per variable."""
    if rng.random() < 0.5:
        return Poly.zero(nv)
    return Poly(nv, {tuple(rng.randint(0, 1) for _ in range(nv)): rng.randint(-2, 2)
                     for _ in range(rng.randint(1, 2))})


def perturbed_bundle(rng, e):
    """e with a random polynomial added to some comultiplication entries: in
    general not a coalgebra, with x-dependent structure constants."""
    mu = {i: {bk: m.map_entries(lambda p: p.add(random_poly(rng, e.nvars))
                                if rng.random() < 0.3 else p)
              for bk, m in blocks.items()} for i, blocks in e.mu.items()}
    return CoalgebraBundle(e.n, e.base_names, dict(e.ranks), mu)


def random_compat(rng, e, k):
    """Frame matrices for every degree with a target in degrees >= 0 (one row
    when the target is degree 0), and a symbol in degree 0."""
    mats = {i: [[random_poly(rng, e.nvars) for _ in range(e.rank(i))]
                for _ in range(e.rank(i + k) if i + k else 1)]
            for i in range(1, e.n + 1) if i + k >= 0}
    symbol = [random_poly(rng, e.nvars) for _ in range(e.nvars)] if k == 0 else None
    return CompatDerivation(k, e, mats, symbol)


class TestCompatReference:
    """`compat_check`, `theta_action` and `compat_compose` on dual-algebra
    elements equal the bodies that expanded every degree by hand."""

    PROFILES = [(2, 1), (1, 1, 1), (2, 2, 1), (3,), (2, 0, 1), (1, 1, 0, 1)]

    def derivations(self):
        """(bundle, derivations): random ones on split and perturbed bundles
        over 0-2 base variables, and fields read through a geometrized chart."""
        rng = random.Random(97)
        for profile in self.PROFILES:
            for base in [(), ("x",), ("x", "y")]:
                s = split_coalgebra(list(profile), base_names=base)
                chart = geometrize(s)
                positives = [to_compat_derivation(rand_field(rng, chart.sig, k), s, chart)
                             for k in (-2, -1, 0, 0)]
                for e in (s, perturbed_bundle(rng, s)):
                    yield e, positives + [random_compat(rng, e, k) for k in (-2, -1, 0, 0, -1)]

    def test_matches_the_expanded_bodies(self, monkeypatch):
        verdicts, thetas = [], 0
        for e, ds in self.derivations():
            for d in ds:
                verdicts.append(compat_check(d, e))
                assert verdicts[-1] == reference_compat_check(d, e), (e, d.degree)
                for i in range(1, -d.degree + 1):
                    for a in range(e.rank(i)):
                        got = theta_action((i, a), d, e)
                        assert got == reference_theta_action((i, a), d, e), (e, i, a)
                        assert got.symbol is None
                        thetas += 1
            for d1 in ds:
                for d2 in ds[::3]:
                    for x, y in ((d1, d2), (d2, d1)):
                        got = fields.compat_compose(x, y, e)
                        want = reference_compat_compose(x, y, e)
                        assert got == want and got.matrices.keys() == want.matrices.keys()
                        assert (got.symbol is None) == (want.symbol is None)
                        bracket = compat_bracket(x, y, e)
                        with monkeypatch.context() as m:
                            m.setattr(fields, "compat_compose", reference_compat_compose)
                            assert bracket == compat_bracket(x, y, e), (e, x.degree, y.degree)
        assert True in verdicts and False in verdicts
        assert thetas > 100
