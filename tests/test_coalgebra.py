import itertools
import random
from fractions import Fraction

import pytest

from gradman.coalgebra import (
    CoalgebraBundle,
    CoalgebraMorphism,
    check_admissible,
    check_coalgebra,
    compute_K,
    dvb_coalgebra,
    morphism_check,
    permute_column,
    split_coalgebra,
    split_morphism_from_linear,
    splitting_iso,
    truncate,
    wedge_coalgebra,
)
from gradman.errors import DvbNotExact, NotAdmissible, UnsupportedXDependence
from gradman.exactnum import Poly, PolyMatrix, rat_rank, span_rank

ORIGIN = [()]


def partition_count(degrees, level):
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


# a corpus of split rank profiles within ranks <= 3, n <= 4
SPLIT_PROFILES = [
    (1,),
    (3,),
    (2, 1),
    (3, 3),
    (1, 2),
    (2, 2, 1),
    (1, 1, 1),
    (3, 1, 2),
    (1, 1, 1, 1),
    (2, 1, 0, 1),
    (2, 2, 1, 1),
]


def zero_mu_bundle():
    """Ranks 2|1 with vanishing comultiplication: the canonical non-admissible case."""
    return CoalgebraBundle(2, (), {1: 2, 2: 1}, {2: {}})


class TestCheckCoalgebra:
    def test_degree_one_bundle_trivially_passes(self):
        e = CoalgebraBundle(1, (), {1: 3}, {})
        rep = check_coalgebra(e)
        assert rep.cocommutative and rep.coassociative

    def test_split_bundles_pass(self):
        for profile in SPLIT_PROFILES:
            rep = check_coalgebra(split_coalgebra(profile))
            assert rep.ok, profile

    def test_non_antisymmetric_odd_block_fails_cocommutativity(self):
        block = PolyMatrix.zero(4, 1, 0)
        block.entries[1][0] = Poly.one(0)  # e1 (x) e2 without the mirror term
        e = CoalgebraBundle(2, (), {1: 2, 2: 1}, {2: {(1, 1): block}})
        rep = check_coalgebra(e)
        assert not rep.cocommutative
        assert rep.witnesses[0][0] == "cocommutativity"

    def test_dvb_bundle_passes(self):
        phi = PolyMatrix.identity(4, 0)
        e = dvb_coalgebra(2, 2, 0, 4, phi, 2)
        assert check_coalgebra(e).ok

    def test_coassociativity_failure_has_witness(self):
        # ranks 2|1|1 with the wedge square in degree -2 but a degree -3
        # component pairing the deep frame against one odd letter only:
        # the two iterated expansions land in different tensor slots
        b2 = PolyMatrix.zero(4, 1, 0)
        b2.entries[1][0] = Poly.one(0)
        b2.entries[2][0] = Poly.const(0, -1)
        b3 = PolyMatrix.zero(2, 1, 0)
        b3.entries[0][0] = Poly.one(0)
        e = CoalgebraBundle(3, (), {1: 2, 2: 1, 3: 1},
                            {2: {(1, 1): b2}, 3: {(1, 2): b3}})
        rep = check_coalgebra(e)
        assert rep.cocommutative
        assert not rep.coassociative
        assert rep.witnesses[0] == ("coassociativity", -3, 0)


class TestConstraintSpace:
    def test_degree_minus_two_is_wedge_square(self):
        e = wedge_coalgebra(2, 2)
        ks = compute_K(e, -2)
        assert ks.dim == 1

    def test_wedge_dim_counts(self):
        for m1 in (2, 3):
            e = wedge_coalgebra(m1, 2)
            assert compute_K(e, -2).dim == m1 * (m1 - 1) // 2

    def test_degree_minus_three_matches_preimage_formula(self):
        # independent oracle: dim of the preimage of the alternating cube
        # under (Id (x) mu_{-2}), computed with plain rational linear algebra
        # the constraint space sits inside E_{-1} (x) E_{-2}: cocommutativity
        # pins the mirrored component, so the preimage is taken there
        e = wedge_coalgebra(3, 3)
        r1 = e.rank(1)
        pairs = [p for p in e.tensor_basis(2, 3) if p[0][0] == 1]
        triples = e.tensor_basis(3, 3)
        t_index = {t: i for i, t in enumerate(triples)}
        cols = []
        for (u, v) in pairs:
            col = [Fraction(0)] * len(triples)
            for pr, q in e.mu_columns(2)[v[1]].items():
                col[t_index[(u,) + pr]] += q.constant_value()
            cols.append(col)
        f = [[cols[c][r] for c in range(len(pairs))] for r in range(len(triples))]
        # antisymmetrized basis of the cube
        alt = []
        for comb in itertools.combinations(range(r1), 3):
            vec = [Fraction(0)] * len(triples)
            for perm in itertools.permutations(comb):
                sgn = perm_sign(perm, comb)
                vec[t_index[tuple((1, s) for s in perm)]] += sgn
            alt.append(vec)
        rank_w = rat_rank(alt)
        stacked = [row[:] for row in zip(*f)]  # columns of f as rows
        rank_fw = rat_rank(stacked + alt)
        preimage_dim = len(pairs) - (rank_fw - rank_w)
        assert compute_K(e, -3).dim == preimage_dim == 1

    def test_split_constraint_dims_match_enumeration(self):
        for profile in SPLIT_PROFILES:
            n = len(profile)
            e = split_coalgebra(profile)
            for i in range(2, n + 1):
                # generators of degree strictly above -i only
                degrees = [d + 1 for d, r in enumerate(profile) for _ in range(r) if d + 1 <= i - 1]
                assert compute_K(e, -i).dim == partition_count(degrees, i), (profile, i)


def perm_sign(perm, base):
    pos = {v: i for i, v in enumerate(base)}
    seq = [pos[v] for v in perm]
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class TestExpandedForm:
    def test_mirrored_pairs_carry_koszul_sign(self):
        one = lambda v: PolyMatrix.from_rat(1, 1, [[Fraction(v)]], 0)
        e = CoalgebraBundle(4, (), {1: 1, 2: 1, 3: 1, 4: 1}, {
            3: {(1, 2): one(5)},
            4: {(1, 3): one(7), (2, 2): one(2)},
        })
        u, v, w = (1, 0), (2, 0), (3, 0)
        const = lambda c: Poly.const(0, c)
        assert e.mu_columns(3) == [{(u, v): const(5), (v, u): const(5)}]
        assert e.mu_columns(4) == [{(u, w): const(7), (v, v): const(2), (w, u): const(-7)}]
        pairs = e.tensor_basis(2, 4)
        assert e.full_mu(4).col(0) == [e.mu_columns(4)[0].get(p, Poly.zero(0)) for p in pairs]


class TestPermuteColumn:
    FACTORS = [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]

    def columns(self, rng, length):
        """Seeded columns mixing odd and even factors, with repeated ones."""
        cols = []
        for _ in range(4):
            col = {}
            for _ in range(3):
                T = tuple(rng.choice(self.FACTORS) for _ in range(length))
                col[T] = Poly.const(0, rng.choice([-3, -1, 1, 2, 5]))
            cols.append(col)
        cols.append({((2, 0),) * length: Poly.const(0, 1)})
        cols.append({((2, 0), (1, 0), (2, 0), (1, 1))[:length]: Poly.const(0, 4)})
        return cols

    def test_group_action(self):
        rng = random.Random(41)
        for length in range(1, 5):
            perms = list(itertools.permutations(range(length)))
            for col in self.columns(rng, length):
                assert permute_column(col, tuple(range(length))) == col
                for p in perms:
                    once = permute_column(col, p)
                    for q in perms:
                        composed = [p[q[j]] for j in range(length)]
                        assert permute_column(once, q) == permute_column(col, composed), (
                            col, p, q)

    def test_sign_counts_only_odd_pairs(self):
        col = {((1, 0), (2, 0), (1, 1)): Poly.const(0, 3)}
        assert permute_column(col, (2, 1, 0)) == {((1, 1), (2, 0), (1, 0)): Poly.const(0, -3)}
        assert permute_column(col, (1, 0, 2)) == {((2, 0), (1, 0), (1, 1)): Poly.const(0, 3)}


class TestAdmissibility:
    def test_split_bundles_admissible(self):
        for profile in SPLIT_PROFILES:
            rep = check_admissible(split_coalgebra(profile), ORIGIN)
            assert rep.admissible, profile

    def test_zero_mu_not_admissible(self):
        rep = check_admissible(zero_mu_bundle(), ORIGIN)
        assert not rep.admissible
        deg = rep.per_degree[-2]
        assert deg.im_rank == 0 and deg.k_rank == 1 and not deg.equal

    def test_wedge_rank3_admissible_with_unit_top_rank(self):
        e = wedge_coalgebra(3, 3)
        rep = check_admissible(e, ORIGIN)
        assert rep.admissible
        assert rep.per_degree[-3].im_rank == 1

    def test_truncation_preserves_admissibility(self):
        for profile in [(2, 1), (1, 1, 1), (2, 2, 1)]:
            e = split_coalgebra(profile)
            for k in range(1, len(profile) + 1):
                rep = check_admissible(truncate(e, k), ORIGIN)
                assert rep.admissible

    def test_dvb_identity_splitting_admissible(self):
        phi = PolyMatrix.identity(4, 0)
        e = dvb_coalgebra(2, 2, 0, 4, phi, 2)
        assert check_admissible(e, ORIGIN).admissible

    def test_x_dependent_scaling_keeps_generic_constraints(self):
        # scaling every block by 1 + x multiplies each coherence variant of a
        # fixed tensor length by the same power, so generic dims are unchanged
        # while the rank drops at the root
        for profile in [(2, 1), (1, 1, 1), (2, 2, 1)]:
            s = split_coalgebra(list(profile), base_names=("x",))
            scale = Poly.one(1).add(Poly.var(1, 0))
            mu = {i: {bk: m.map_entries(lambda p: p.mul(scale))
                      for bk, m in blocks.items()}
                  for i, blocks in s.mu.items()}
            e = CoalgebraBundle(s.n, ("x",), dict(s.ranks), mu)
            assert check_coalgebra(e).ok
            for i in range(2, e.n + 1):
                assert compute_K(e, -i).dim == compute_K(s, -i).dim
            assert check_admissible(e, [[Fraction(0)], [Fraction(1)]]).admissible
            assert not check_admissible(e, [[Fraction(-1)]]).admissible

    def test_x_dependent_rank_drop_reported_per_point(self):
        # comultiplication scaled by 1 + x: spans agree generically, but the
        # image rank drops at x = -1, so the verdict depends on the samples
        x = Poly.var(1, 0)
        scale = Poly.one(1).add(x)
        block = PolyMatrix.zero(4, 1, 1)
        block.entries[1][0] = scale
        block.entries[2][0] = scale.neg()
        e = CoalgebraBundle(2, ("x",), {1: 2, 2: 1}, {2: {(1, 1): block}})
        good = check_admissible(e, [[Fraction(0)], [Fraction(2)]])
        assert good.admissible and good.per_degree[-2].equal
        bad = check_admissible(e, [[Fraction(0)], [Fraction(-1)]])
        assert not bad.admissible
        assert bad.per_degree[-2].equal and not bad.per_degree[-2].constant_rank


class TestSplitConstruction:
    def test_degree_one_concentration_gives_trivial_mu(self):
        e = split_coalgebra([3])
        assert e.n == 1 and e.rank(1) == 3 and not e.mu

    def test_odd_square_vanishes_in_symmetric_powers(self):
        e = split_coalgebra([1, 1])
        assert e.rank(2) == 1  # only the new degree-2 generator survives

    def test_rank_two_odd_gives_wedge_square(self):
        e = split_coalgebra([2])
        assert e.n == 1
        e2 = split_coalgebra([2, 0])
        assert e2.rank(2) == 1

    def test_wedge_of_rank_one_is_empty_above_top(self):
        e = wedge_coalgebra(1, 2)
        assert e.rank(2) == 0

    def test_wedge_m1_2_block(self):
        e = wedge_coalgebra(2, 2)
        assert e.rank(2) == 1
        col = e.mu_columns(2)[0]
        assert col[((1, 0), (1, 1))].constant_value() == 1
        assert col[((1, 1), (1, 0))].constant_value() == -1

    def test_split_dims_match_enumeration(self):
        for profile in SPLIT_PROFILES:
            e = split_coalgebra(profile)
            degrees = [d + 1 for d, r in enumerate(profile) for _ in range(r)]
            for i in range(1, len(profile) + 1):
                assert e.rank(i) == partition_count(degrees, i)


class TestDvb:
    def test_rejects_non_exact_data(self):
        phi = PolyMatrix.identity(4, 0)
        with pytest.raises(DvbNotExact):
            dvb_coalgebra(2, 2, 1, 4, phi, 2)
        with pytest.raises(DvbNotExact):
            dvb_coalgebra(2, 2, 0, 4, PolyMatrix.zero(4, 4, 0), 2)

    def test_higher_degree_variant(self):
        phi = PolyMatrix.identity(6, 0)
        e = dvb_coalgebra(3, 2, 0, 6, phi, 3)
        assert check_coalgebra(e).ok
        assert check_admissible(e, ORIGIN).admissible

    def test_nontrivial_core(self):
        # Omega = C (+) A(x)B with the projection as phi
        rows = []
        for r in range(4):
            rows.append([Poly.const(0, 1 if c == r + 1 else 0) for c in range(5)])
        phi = PolyMatrix(4, 5, rows, 0)
        e = dvb_coalgebra(2, 2, 1, 5, phi, 2)
        assert check_coalgebra(e).ok
        assert check_admissible(e, ORIGIN).admissible


class TestTruncation:
    def test_full_truncation_is_identity(self):
        e = split_coalgebra([2, 1, 1])
        assert truncate(e, 3) == e

    def test_level_one_drops_comultiplication(self):
        e = split_coalgebra([2, 1])
        t = truncate(e, 1)
        assert t.n == 1 and t.rank(1) == 2 and not t.mu

    def test_constraint_space_stable_under_truncation(self):
        e = split_coalgebra([2, 1, 1])
        for k in (2, 3):
            t = truncate(e, k)
            for i in range(2, min(k + 1, e.n) + 1):
                ka = compute_K(e, -i)
                kb = compute_K(t, -i)
                assert ka.dim == kb.dim
                both = list(ka.vectors) + list(kb.vectors)
                assert span_rank(both, 0) == ka.dim


class TestSplittingIso:
    def test_split_input_gives_identity_shaped_morphism(self):
        e = split_coalgebra([2, 1])
        iso = splitting_iso(e)
        assert iso.is_identity_shaped()
        assert morphism_check(iso, e, iso.target)

    def test_wedge_two_two(self):
        e = wedge_coalgebra(2, 2)
        iso = splitting_iso(e)
        assert iso.target.rank(1) == 2 and iso.target.rank(2) == 1
        # no new degree-2 generators: kernel of the wedge dual is zero
        assert len([g for g in iso.target.split.gens if g[0] == 2]) == 0
        assert morphism_check(iso, e, iso.target)

    def test_rank_nullity_on_admissible_two_bundles(self):
        for profile in [(2, 1), (3, 3), (2, 2)]:
            e = split_coalgebra(profile[:2])
            iso = splitting_iso(e)
            m1 = e.rank(1)
            wedge_dim = m1 * (m1 - 1) // 2
            kernel_rank = len([g for g in iso.target.split.gens if g[0] == 2])
            assert e.rank(2) == kernel_rank + wedge_dim

    def test_inverse_composes_to_identity(self):
        e = dvb_coalgebra(2, 2, 0, 4, PolyMatrix.identity(4, 0), 2)
        iso = splitting_iso(e)
        assert morphism_check(iso, e, iso.target)
        comp = iso.inverse().compose(iso)
        assert comp.is_identity_shaped()

    def test_rejects_non_admissible(self):
        with pytest.raises(NotAdmissible):
            splitting_iso(zero_mu_bundle())

    def test_rejects_x_dependent_without_point(self):
        x = Poly.var(1, 0)
        block = PolyMatrix.zero(4, 1, 1)
        block.entries[1][0] = Poly.one(1)
        block.entries[2][0] = Poly.const(1, -1)
        e = CoalgebraBundle(2, ("x",), {1: 2, 2: 1}, {2: {(1, 1): block}})
        # make it x-dependent by scaling a harmless entry
        block.entries[1][0] = Poly.one(1).add(x.mul(Poly.zero(1)))
        e2 = CoalgebraBundle(2, ("x",), {1: 2, 2: 1},
                             {2: {(1, 1): block.map_entries(lambda p: p.mul(x.add(Poly.one(1))))}})
        with pytest.raises(UnsupportedXDependence):
            splitting_iso(e2)
        iso = splitting_iso(e2, at_point=[Fraction(0)])
        assert iso.target.rank(2) == 0 or iso.target.rank(2) >= 0  # fiberwise fallback runs


class TestMorphisms:
    def test_identity_morphism(self):
        e = split_coalgebra([2, 1])
        ident = CoalgebraMorphism(e, e, {
            1: PolyMatrix.identity(e.rank(1), 0),
            2: PolyMatrix.identity(e.rank(2), 0),
        })
        assert morphism_check(ident, e, e)

    def test_scaling_must_be_quadratic_in_degree_two(self):
        e = wedge_coalgebra(2, 2)
        lam = Fraction(2)
        good = CoalgebraMorphism(e, e, {
            1: PolyMatrix.identity(2, 0).scale(lam),
            2: PolyMatrix.identity(1, 0).scale(lam * lam),
        })
        bad = CoalgebraMorphism(e, e, {
            1: PolyMatrix.identity(2, 0).scale(lam),
            2: PolyMatrix.identity(1, 0),
        })
        assert morphism_check(good, e, e)
        assert not morphism_check(bad, e, e)

    def test_linear_extension_is_always_a_morphism(self):
        s = split_coalgebra([2, 1])
        t = split_coalgebra([2, 1])
        linear = {
            (1, 0): {(1, 0): Fraction(1), (1, 1): Fraction(2)},
            (1, 1): {(1, 1): Fraction(1)},
            (2, 0): {(2, 0): Fraction(3)},
        }
        phi = split_morphism_from_linear(linear, s, t)
        assert morphism_check(phi, s, t)

    def test_image_containment_in_constraint_space(self):
        # coherence constraints contain the comultiplication image exactly
        for profile in [(2, 1), (1, 1, 1)]:
            e = split_coalgebra(profile)
            for i in range(2, len(profile) + 1):
                ks = compute_K(e, -i)
                m = e.full_mu(i)
                cols = [m.col(c) for c in range(m.cols)]
                assert span_rank(cols + list(ks.vectors), 0) == ks.dim
