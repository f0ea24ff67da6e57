import random
from fractions import Fraction

import pytest

from gradman.coalgebra import (
    CoalgebraMorphism,
    dvb_coalgebra,
    morphism_check,
    split_coalgebra,
    splitting_iso,
    wedge_coalgebra,
)
from gradman.errors import DegreeOverflow, NotAdmissible
from gradman.exactnum import Poly, PolyMatrix
from gradman.geometrize import (
    functor_on_morphism,
    geometrize,
    reduce_product,
    roundtrip,
)
from gradman.gradedring import GradedFunction
from randchart import (
    compose_morphisms,
    compose_pullbacks,
    conjugate_frames,
    full_mu,
    is_identity_shaped,
    morphism_inverse,
    partition_count,
    split_morphism_from_linear,
)


CORPUS = [
    split_coalgebra([2, 1]),
    split_coalgebra([1, 1, 1]),
    split_coalgebra([2, 2, 1]),
    wedge_coalgebra(2, 2),
    wedge_coalgebra(3, 3),
    dvb_coalgebra(2, 2, 0, 4, PolyMatrix.identity(4, 0), 2),
]

# split bundles under random frame changes: their splittings are not
# identities, so an embedded frame element reads a row of the inverse
# splitting that differs from its column
CONJUGATED = [conjugate_frames(random.Random(seed), split_coalgebra(list(profile)))
              for seed, profile in enumerate([(2, 1), (2, 2, 1), (1, 1, 1), (3, 1, 1)])]


class TestGeometrize:
    def test_generator_counts_are_kernel_ranks(self):
        chart = geometrize(split_coalgebra([2, 1]))
        assert chart.gen_counts() == [2, 1]
        chart = geometrize(wedge_coalgebra(2, 2))
        assert chart.gen_counts() == [2, 0]

    def test_split_input_gives_free_algebra_dimensions(self):
        for profile in [(2, 1), (1, 1, 1), (2, 2, 1)]:
            chart = geometrize(split_coalgebra(profile))
            degrees = [d + 1 for d, r in enumerate(profile) for _ in range(r)]
            for level in range(0, len(profile) + 2):
                assert chart.dimension_of_degree(level) == partition_count(degrees, level)

    def test_degree_one_bundle_free_odd_algebra(self):
        from gradman.coalgebra import CoalgebraBundle

        chart = geometrize(CoalgebraBundle(1, (), {1: 3}, {}))
        assert chart.gen_counts() == [3]
        assert all(not rules for rules in chart.rewrite_rules.values())

    def test_wedge_rewrites_top_frame_to_product(self):
        chart = geometrize(wedge_coalgebra(2, 2))
        rules = chart.rewrite_rules[2]
        assert len(rules) == 1
        e1 = GradedFunction.from_gen(chart.sig, (1, 0))
        e2 = GradedFunction.from_gen(chart.sig, (1, 1))
        assert rules[0].normal_form == e1.mul(e2)
        # the embedded degree-2 frame element reduces to e1*e2
        assert reduce_product(chart, [(2, 0)]) == e1.mul(e2)

    def test_quotient_dims_on_corpus(self):
        for e in CORPUS:
            chart = geometrize(e)
            degrees = [d for d, _ in chart.iso.target.split.gens]
            for level in range(0, chart.n + 2):
                assert chart.dimension_of_degree(level) == partition_count(degrees, level)

    def test_rejects_non_admissible(self):
        from gradman.coalgebra import CoalgebraBundle

        with pytest.raises(NotAdmissible):
            geometrize(CoalgebraBundle(2, (), {1: 2, 2: 1}, {2: {}}))


class TestReduce:
    def test_products_respect_the_ideal(self):
        # multiplying two embedded frame elements equals embedding their
        # dual-product expansion: the defining relations of the quotient
        for e in CORPUS + CONJUGATED:
            chart = geometrize(e)
            n = e.n
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    if i + j > n:
                        continue
                    m = full_mu(e, i + j)
                    pairs = e.tensor_basis(2, i + j)
                    pair_index = {p: r for r, p in enumerate(pairs)}
                    for a in range(e.rank(i)):
                        for b in range(e.rank(j)):
                            lhs = chart.embeddings[i][a].mul(chart.embeddings[j][b])
                            row = pair_index[((i, a), (j, b))]
                            cov = [m.entries[row][c] for c in range(e.rank(i + j))]
                            rhs = chart.embed_covector(i + j, cov)
                            assert lhs == rhs, (i, j, a, b)

    def test_kernel_dual_generator_reduces_to_itself(self):
        chart = geometrize(split_coalgebra([2, 1]))
        # split bundles embed identically: frame = monomial basis
        f = reduce_product(chart, [(1, 0)])
        assert f == GradedFunction.from_gen(chart.sig, (1, 0))

    def test_reduce_is_idempotent(self):
        chart = geometrize(wedge_coalgebra(3, 3))
        f = reduce_product(chart, [(2, 0), (1, 2)])
        g = chart.decompose(f, 3)
        assert chart.embed_covector(3, g) == f
        # decomposing an embedded frame element gives back its unit covector
        for e in CONJUGATED:
            chart = geometrize(e)
            for i in range(1, e.n + 1):
                for a, f in enumerate(chart.embeddings[i]):
                    g = chart.decompose(f, i)
                    assert g == [Poly.const(0, int(b == a)) for b in range(e.rank(i))]
                    assert chart.embed_covector(i, g) == f

    def test_degree_overflow(self):
        chart = geometrize(wedge_coalgebra(2, 2), max_degree=3)
        with pytest.raises(DegreeOverflow):
            reduce_product(chart, [(2, 0), (2, 0)])


class TestRoundTrip:
    def test_reconstruction_is_isomorphic_on_corpus(self):
        for e in CORPUS:
            f, phi = roundtrip(e)
            assert morphism_check(phi, e, f), e
            inv = morphism_inverse(phi)
            assert is_identity_shaped(compose_morphisms(inv, phi))

    def test_reconstruction_on_randomly_conjugated_bundles(self):
        # admissible bundles that are not split-presented: random frame
        # changes exercise the kernel and complement choices for real
        from randchart import conjugate_frames
        from gradman.coalgebra import check_admissible, check_coalgebra

        rng = random.Random(140)
        for _ in range(12):
            profile = rng.choice([(2, 1), (1, 1, 1), (2, 2, 1), (1, 2), (1, 1, 1, 1)])
            e = conjugate_frames(rng, split_coalgebra(list(profile)))
            assert check_coalgebra(e).ok
            assert check_admissible(e, [()]).admissible
            f, phi = roundtrip(e)
            assert morphism_check(phi, e, f)
            assert is_identity_shaped(compose_morphisms(morphism_inverse(phi), phi))

    def test_split_chart_gives_split_bundle(self):
        e = split_coalgebra([2, 1])
        f, phi = roundtrip(e)
        assert f == e  # identical ranks and comultiplication entries
        assert is_identity_shaped(phi)

    def test_degree_one(self):
        from gradman.coalgebra import CoalgebraBundle

        e = CoalgebraBundle(1, (), {1: 3}, {})
        f, phi = roundtrip(e)
        assert f.rank(1) == 3 and morphism_check(phi, e, f)


class TestFunctorOnMorphisms:
    def test_identity_pullback(self):
        e = split_coalgebra([2, 1])
        ident = CoalgebraMorphism(e, e, {
            1: PolyMatrix.identity(2, 0),
            2: PolyMatrix.identity(2, 0),
        })
        chart = geometrize(e)
        table = functor_on_morphism(ident, chart, chart)
        for (i, t), f in table.items():
            assert f == GradedFunction.from_gen(chart.sig, (i, t))

    def test_scaling_pullback_scales_by_degree(self):
        e = wedge_coalgebra(2, 2)
        lam = Fraction(3)
        phi = CoalgebraMorphism(e, e, {
            1: PolyMatrix.identity(2, 0).scale(lam),
            2: PolyMatrix.identity(1, 0).scale(lam * lam),
        })
        assert morphism_check(phi, e, e)
        chart = geometrize(e)
        table = functor_on_morphism(phi, chart, chart)
        for (i, t), f in table.items():
            expect = GradedFunction.from_gen(chart.sig, (i, t)).scale(lam**i)
            assert f == expect

    def test_splitting_iso_pullback_is_algebra_iso(self):
        e = dvb_coalgebra(2, 2, 0, 4, PolyMatrix.identity(4, 0), 2)
        iso = splitting_iso(e)
        chart_src = geometrize(e)
        chart_tgt = geometrize(iso.target)
        table = functor_on_morphism(iso, chart_src, chart_tgt)
        # multiplicativity on a pair of degree-1 coordinates
        sig_t = chart_tgt.sig
        for t1 in range(sig_t.rank(1)):
            for t2 in range(t1 + 1, sig_t.rank(1)):
                prod_then_pull = None  # products of degree-1 gens live in degree 2
                f1, f2 = table[(1, t1)], table[(1, t2)]
                assert f1.mul(f2).is_homogeneous(2)

    def test_composition_preserved(self):
        rng = random.Random(97)
        s = split_coalgebra([2, 1])
        for _ in range(10):
            def rand_linear():
                lin = {}
                for g in [(1, 0), (1, 1)]:
                    lin[g] = {
                        (1, 0): Fraction(rng.randint(-2, 2)),
                        (1, 1): Fraction(rng.randint(-2, 2)),
                    }
                lin[(2, 0)] = {(2, 0): Fraction(rng.randint(1, 3))}
                return lin

            psi = split_morphism_from_linear(rand_linear(), s, s)  # E -> F
            phi = split_morphism_from_linear(rand_linear(), s, s)  # F -> G
            if not morphism_check(psi, s, s) or not morphism_check(phi, s, s):
                continue
            chart = geometrize(s)
            composite = compose_morphisms(phi, psi)
            t_comp = functor_on_morphism(composite, chart, chart)
            t_phi = functor_on_morphism(phi, chart, chart)
            t_psi = functor_on_morphism(psi, chart, chart)
            merged = compose_pullbacks(t_phi, t_psi, chart)
            assert merged == t_comp
