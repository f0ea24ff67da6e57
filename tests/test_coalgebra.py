import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from gradman import coalgebra, exactnum
from gradman.coalgebra import (
    AdmissibilityDegree,
    AdmissibilityReport,
    CoalgebraBundle,
    CoalgebraMorphism,
    _variant_pair_columns,
    check_admissible,
    check_coalgebra,
    compute_K,
    dvb_coalgebra,
    morphism_check,
    permute_column,
    push_column,
    split_coalgebra,
    splitting_iso,
    truncate,
    wedge_coalgebra,
)
from gradman.errors import DvbNotExact, NotAdmissible, UnsupportedXDependence
from gradman.exactnum import (
    Poly,
    PolyMatrix,
    kernel_basis,
    poly_inverse,
    primitive_vector,
    rank_at,
    rank_generic,
    rat_inverse,
    rat_kernel,
    rat_pivots,
    rat_rank,
    rat_rref,
    rat_solve,
)
from randchart import (
    SPLIT_CORPUS,
    bench_pool,
    compose_morphisms,
    conjugate_frames,
    dense_vectors,
    eager_split_blocks,
    frontier_bundle,
    full_mu,
    is_identity_shaped,
    morphism_inverse,
    partition_count,
    poly_check_coalgebra,
    poly_morphism_check,
    poly_splitting_iso,
    reference_check_admissible,
    reference_compute_K,
    reference_dvb_coalgebra,
    reference_fiber,
    reference_splitting_iso,
    reference_truncate,
    span_rank,
    split_morphism_from_linear,
    tensor_square,
)

ORIGIN = [()]


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

    def test_explicit_zero_entry_is_zero(self):
        # Fraction(0) placed in the all-zero second column of the (1, 1) block
        s = split_coalgebra([2, 1])
        for row in range(4):
            entries = [list(r) for r in s.mu[2][(1, 1)].entries]
            entries[row][1] = Poly(0, {(): Fraction(0)})
            e = CoalgebraBundle(2, (), dict(s.ranks),
                                {2: {(1, 1): PolyMatrix(4, 2, entries, 0)}})
            rep = check_coalgebra(e)
            assert rep.ok and not rep.witnesses, (row, rep.witnesses)
            assert e == s

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
        assert full_mu(e, 4).col(0) == [e.mu_columns(4)[0].get(p, Poly.zero(0)) for p in pairs]


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

    def test_matches_reference_construction(self):
        rng = random.Random(12)
        refused = built_over_x = 0
        for n, rk_a, rk_b, rk_c, nv in itertools.product(
                range(2, 6), range(5), range(3), range(2), range(3)):
            surjective = rng.random() < 0.75
            phi = random_dvb_phi(rng, rk_a, rk_b, rk_c, nv, surjective)
            args = (rk_a, rk_b, rk_c, rk_c + rk_a * rk_b, phi, n, ("x", "y")[:nv])
            got = dvb_outcome(dvb_coalgebra, *args)
            assert got == dvb_outcome(reference_dvb_coalgebra, *args), args[:4] + args[5:]
            refused += got[0] == "DvbNotExact"
            built_over_x += got[0] == n and nv > 0 and rk_a * rk_b > 0
        assert refused > 20 and built_over_x > 50


def dvb_outcome(build, *args):
    """The built bundle's data, or the type and message of the refusal."""
    try:
        e = build(*args)
    except (DvbNotExact, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return e.n, e.base_names, e.ranks, e.mu, e.split is None


def random_dvb_phi(rng, rk_a, rk_b, rk_c, nv, surjective):
    """phi = [core columns | upper triangular on A(x)B], entries affine in the
    base variables.  The diagonal is 1 or a base variable, so a surjective
    phi may still drop rank at a point; a non-surjective one repeats its
    first row, times a base variable when there is one, or zeroes its row."""
    x = [Poly.var(nv, v) for v in range(nv)]

    def entry():
        p = Poly.const(nv, rng.randint(-2, 2))
        for v in x:
            p = p.add(v.scale(rng.randint(-1, 1)))
        return p

    rows = rk_a * rk_b
    diag = [Poly.one(nv)] + x
    ent = [[entry() for _ in range(rk_c)]
           + [rng.choice(diag) if c == r else entry() if c > r else Poly.zero(nv)
              for c in range(rows)]
           for r in range(rows)]
    if not surjective and rows:
        scale = x[0] if x else Poly.zero(nv)
        ent[-1] = [p.mul(scale) for p in ent[0]]
    return PolyMatrix(rows, rk_c + rows, ent, nv)


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
                both = dense_vectors(ka, 0) + dense_vectors(kb, 0)
                assert span_rank(both, 0) == ka.dim


class TestSplittingIso:
    def test_split_input_gives_identity_shaped_morphism(self):
        e = split_coalgebra([2, 1])
        iso = splitting_iso(e)
        assert is_identity_shaped(iso)
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
        comp = compose_morphisms(morphism_inverse(iso), iso)
        assert is_identity_shaped(comp)

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
                m = full_mu(e, i)
                cols = [m.col(c) for c in range(m.cols)]
                assert span_rank(cols + dense_vectors(ks, 0), 0) == ks.dim


# --- the constraint space against its definition ---------------------------


def all_permutations_K(e, degree):
    """K by its definition: for every tensor length L, the kernel of
    tau.(mu^k (x) mu^l) - (mu^0 (x) mu^(L-2)) for every split (k, l) and every
    signed permutation tau in S_L, intersected one variant at a time.
    (L - 1) * L! - 1 variants per length; a slow oracle for compute_K."""
    d = -degree
    pairs = e.tensor_basis(2, d)
    nv = e.nvars
    vecs = [[Poly.one(nv) if s == t else Poly.zero(nv) for s in range(len(pairs))]
            for t in range(len(pairs))]
    for length in range(2, d + 1):
        ref = _variant_pair_columns(e, d, 0, length - 2)
        identity = tuple(range(length))
        for k in range(length - 1):
            for perm in itertools.permutations(range(length)):
                if not vecs:
                    return []
                if k == 0 and perm == identity:
                    continue
                var = [permute_column(col, perm)
                       for col in _variant_pair_columns(e, d, k, length - 2 - k)]
                diff: dict = {}
                for p in range(len(pairs)):
                    for T, c in var[p].items():
                        row = diff.setdefault(T, [Poly.zero(nv)] * len(pairs))
                        row[p] = row[p].add(c)
                    for T, c in ref[p].items():
                        row = diff.setdefault(T, [Poly.zero(nv)] * len(pairs))
                        row[p] = row[p].sub(c)
                if not diff:
                    continue
                b = PolyMatrix(len(pairs), len(vecs), [list(r) for r in zip(*vecs)], nv)
                m = PolyMatrix(len(diff), len(pairs), list(diff.values()), nv).mul(b)
                vecs = [primitive_vector(b.mul(PolyMatrix(len(kv), 1, [[c] for c in kv], nv)).col(0))
                        for kv, _ in kernel_basis(m)]
    return vecs


def transport_frames(e, frames):
    """e carried through fiberwise frame changes P_i with polynomial inverses:
    mu_i becomes (P (x) P)_i mu_i P_i^-1, an isomorphic bundle."""
    phi = CoalgebraMorphism(e, e, frames)
    mu = {}
    for i in range(2, e.n + 1):
        mu[i] = {}
        if not e.rank(i):
            continue
        full = tensor_square(phi, i).mul(full_mu(e, i)).mul(poly_inverse(frames[i]))
        index = {p: r for r, p in enumerate(e.tensor_basis(2, i))}
        for j in range(1, i // 2 + 1):
            k = i - j
            rows = [full.entries[index[((j, a), (k, b))]]
                    for a in range(e.rank(j)) for b in range(e.rank(k))]
            m = PolyMatrix(len(rows), e.rank(i), rows, e.nvars)
            if rows and not m.is_zero():
                mu[i][(j, k)] = m
    return CoalgebraBundle(e.n, e.base_names, dict(e.ranks), mu)


def unit_triangular_frame(rng, rank, nv):
    """Unit lower-triangular frame whose entries below the diagonal are
    small integer combinations of 1 and the base variables."""
    rows = [[Poly.one(nv) if r == c else Poly.zero(nv) for c in range(rank)]
            for r in range(rank)]
    for r in range(rank):
        for c in range(r):
            terms = {}
            for a in range(-1, nv):
                coeff = rng.randint(-2, 2)
                if coeff:
                    terms[tuple(int(v == a) for v in range(nv))] = Fraction(coeff)
            rows[r][c] = Poly(nv, terms)
    return PolyMatrix(rank, rank, rows, nv)


def random_constant_bundle(rng, profile):
    """Ranks from `profile`, every block entry a random integer: in general
    not a coalgebra, so K is cut down by splits and transpositions alike."""
    ranks = {i + 1: r for i, r in enumerate(profile)}
    n = len(profile)
    mu = {}
    for i in range(2, n + 1):
        mu[i] = {}
        for j in range(1, i // 2 + 1):
            rows = ranks[j] * ranks[i - j]
            if rows and ranks[i]:
                mu[i][(j, i - j)] = PolyMatrix.from_rat(
                    rows, ranks[i],
                    [[Fraction(rng.randint(-2, 2)) for _ in range(ranks[i])]
                     for _ in range(rows)], 0)
    return CoalgebraBundle(n, (), ranks, mu)


def oracle_corpus():
    rng = random.Random(5)
    yield from (split_coalgebra(list(p)) for p in SPLIT_CORPUS)
    for profile in [(2, 1), (1, 1, 1), (2, 2, 1), (1, 1, 1, 1), (2, 1, 0, 1), (3, 3, 3)]:
        yield conjugate_frames(rng, split_coalgebra(list(profile)))
    yield dvb_coalgebra(2, 2, 0, 4, PolyMatrix.identity(4, 0), 2)
    yield dvb_coalgebra(3, 2, 0, 6, PolyMatrix.identity(6, 0), 3)
    yield dvb_coalgebra(2, 2, 1, 5, PolyMatrix(4, 5, [
        [Poly.const(0, 1 if c == r + 1 else 0) for c in range(5)] for r in range(4)], 0), 2)
    for profile, base in [((2, 1), ("x",)), ((1, 1, 1), ("x",)), ((2, 1, 1), ("x", "y")),
                          ((1, 1, 1, 1), ("x",)), ((1, 1, 1, 1, 1), ("x",)),
                          ((2, 2), ("x", "y")), ((1, 0, 1, 0, 1), ("x", "y"))]:
        s = split_coalgebra(list(profile), base_names=base)
        frames = {i: unit_triangular_frame(rng, s.rank(i), len(base))
                  for i in range(1, s.n + 1)}
        yield transport_frames(s, frames)
    for profile in [(2, 1), (2, 2), (1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 1, 1)]:
        yield random_constant_bundle(rng, profile)


class TestConstraintGenerators:
    def test_matches_all_permutations(self):
        for e in oracle_corpus():
            for i in range(2, e.n + 1):
                fast = dense_vectors(compute_K(e, -i), e.nvars)
                slow = all_permutations_K(e, -i)
                assert len(fast) == len(slow) == span_rank(fast + slow, e.nvars), (e, i)

    def test_builds_two_l_minus_three_variants_per_length(self, monkeypatch):
        calls = []
        pair_columns = coalgebra._variant_pair_columns
        permute = coalgebra.permute_column

        def spy_pairs(E, degree, k, l):
            calls.append(("split", k + l + 2, k))
            return pair_columns(E, degree, k, l)

        def spy_permute(col, perm):
            calls.append(("swap", len(perm), tuple(perm)))
            return permute(col, perm)

        monkeypatch.setattr(coalgebra, "_variant_pair_columns", spy_pairs)
        monkeypatch.setattr(coalgebra, "permute_column", spy_permute)
        e = split_coalgebra([1] * 6)
        assert compute_K(e, -6).dim == partition_count([1, 2, 3, 4, 5], 6)
        columns = len(e.tensor_basis(2, 6))
        # length 2 has only the swap, whose kernel is the closed-form start
        assert {L for _, L, _ in calls} == set(range(3, 7))
        for length in range(3, 7):
            splits = sorted(k for kind, L, k in calls if kind == "split" and L == length)
            swaps = Counter(p for kind, L, p in calls if kind == "swap" and L == length)
            assert splits == list(range(length - 1))  # the reference, then L - 2 splits
            assert swaps == {tuple(range(a)) + (a + 1, a) + tuple(range(a + 2, length)): columns
                             for a in range(length - 1)}
            assert len(splits) - 1 + len(swaps) == 2 * length - 3

    def test_degree_eight_dims_match_enumeration(self):
        one8 = split_coalgebra([1] * 8)
        cases = [((1,) * 8, one8),
                 ((0, 1, 1, 0, 0, 0, 0, 1), split_coalgebra([0, 1, 1, 0, 0, 0, 0, 1])),
                 ((1,) * 8, conjugate_frames(random.Random(8), one8))]
        for profile, e in cases:
            for i in range(2, 9):
                degrees = [d + 1 for d, r in enumerate(profile) for _ in range(r) if d + 1 <= i - 1]
                assert compute_K(e, -i).dim == partition_count(degrees, i), (profile, i)


class TestIntegerPath:
    """`compute_K` on constant bundles runs on ints; the Poly-only reference
    pins its output on both paths."""

    def bundles(self):
        # oracle_corpus opens with the SPLIT_CORPUS bundles; the same profiles
        # over a base variable are constant bundles with one variable
        yield from oracle_corpus()
        yield from (split_coalgebra(list(p), base_names=("x",)) for p in SPLIT_CORPUS)

    def test_matches_the_poly_reference_exactly(self):
        paths = Counter()
        for e in self.bundles():
            paths[e.is_constant()] += 1
            for i in range(2, e.n + 1):
                got, want = compute_K(e, -i), reference_compute_K(e, -i)
                dense = dense_vectors(got, e.nvars)
                assert got.pair_basis == want.pair_basis, (e, i)
                assert dense == want.vectors, (e, i)
                assert got.contains_image == want.contains_image, (e, i)
                assert [[(p.nvars, [type(c) for c in p.terms.values()]) for p in v]
                        for v in dense] == \
                    [[(p.nvars, [type(c) for c in p.terms.values()]) for p in v]
                     for v in want.vectors], (e, i)
        assert paths[True] and paths[False]

    def poly_products(self, monkeypatch, e):
        """Poly.mul calls made by compute_K over every degree of a fresh bundle."""
        calls = []
        mul = exactnum.Poly.mul

        def counting(p, q):
            calls.append(1)
            return mul(p, q)

        monkeypatch.setattr(exactnum.Poly, "mul", counting)
        for i in range(2, e.n + 2):
            compute_K(e, -i)
        monkeypatch.setattr(exactnum.Poly, "mul", mul)
        return len(calls)

    def test_constant_bundles_make_no_poly_products(self, monkeypatch):
        assert self.poly_products(monkeypatch, split_coalgebra([1] * 6)) == 0
        e = conjugate_frames(random.Random(3), split_coalgebra([2, 1, 1]))
        assert e.is_constant()
        assert self.poly_products(monkeypatch, e) == 0

    def test_bundles_over_a_base_variable_multiply_polys(self, monkeypatch):
        e = next(e for e in oracle_corpus() if not e.is_constant())
        assert e.nvars and self.poly_products(monkeypatch, e) > 0

    def test_integer_view_scales_every_column_by_one_denominator(self):
        e = conjugate_frames(random.Random(3), split_coalgebra([2, 1, 1]))
        view = e.integer_view()
        assert view is e.integer_view()
        ratios = set()
        for i in range(2, e.n + 1):
            for col, icol in zip(e.mu_columns(i), view.mu_columns(i)):
                assert icol.keys() == col.keys()
                assert all(type(c) is int for c in icol.values())
                ratios |= {icol[pair] / p.constant_value() for pair, p in col.items()}
        lam, = ratios
        assert lam.denominator == 1 and lam > 1


# --- the closed-form start of the constraint space ---------------------------


def swap_matrix(pairs, nv):
    """The length-2 swap s_0 - id as an explicit |pairs| x |pairs| matrix: the
    column of pair (u, v) is its signed mirror minus itself."""
    index = {p: t for t, p in enumerate(pairs)}
    rows = [[Poly.zero(nv)] * len(pairs) for _ in pairs]
    for t, (u, v) in enumerate(pairs):
        m = index[(v, u)]
        rows[m][t] = rows[m][t].add(Poly.const(nv, -1 if u[0] & v[0] & 1 else 1))
        rows[t][t] = rows[t][t].sub(Poly.one(nv))
    return PolyMatrix(len(pairs), len(pairs), rows, nv)


def symmetry_broken_bundles():
    """SPLIT_CORPUS bundles, constant and over x, with one off-diagonal entry
    of their lowest square block (j, j) raised by 1 or by x: the entry at one
    pair (u, v) changes and the one at its mirror (v, u) does not, so mu is
    no longer cocommutative at degree -2j."""
    for profile in SPLIT_CORPUS:
        for base in ((), ("x",)):
            e = split_coalgebra(list(profile), base_names=base)
            j = next((j for j in range(1, e.n // 2 + 1) if e.rank(j) >= 2 and e.rank(2 * j)),
                     None)
            if j is None:
                continue
            mu = {i: dict(blocks) for i, blocks in e.mu.items()}
            block = mu[2 * j][(j, j)]
            entries = [list(row) for row in block.entries]
            entries[1][0] = entries[1][0].add(Poly.var(1, 0) if base else Poly.one(0))
            mu[2 * j][(j, j)] = PolyMatrix(block.rows, block.cols, entries, len(base))
            yield CoalgebraBundle(e.n, e.base_names, dict(e.ranks), mu), 2 * j


class TestSwapKernelStart:
    def test_start_basis_is_the_kernel_of_the_swap(self):
        for profile in [(2, 2, 2), (0, 3, 0, 1), (1, 1, 1, 1)]:
            for nv in (0, 1):
                e = split_coalgebra(list(profile), base_names=("x",) * nv)
                one, zero = (Poly.one(nv), Poly.zero(nv)) if nv else (1, 0)
                for d in range(2, e.n + 2):
                    pairs = e.tensor_basis(2, d)
                    if not pairs:
                        continue
                    index = {p: t for t, p in enumerate(pairs)}
                    start = [[vec.get(t, zero) for t in range(len(pairs))]
                             for vec in coalgebra._swap_kernel(pairs, index, one)]
                    m = swap_matrix(pairs, nv)
                    if nv:
                        assert start == [kv for kv, _ in kernel_basis(m)], (profile, d)
                    else:
                        assert start == rat_kernel(m.to_rat()), (profile, d)

    def test_non_cocommutative_bundles_match_the_reference(self):
        paths = Counter()
        for e, broken in symmetry_broken_bundles():
            paths[e.is_constant()] += 1
            assert not check_coalgebra(e).cocommutative
            for i in range(2, e.n + 1):
                got, want = compute_K(e, -i), reference_compute_K(e, -i)
                assert dense_vectors(got, e.nvars) == want.vectors, (e, i)
                assert got.contains_image == want.contains_image, (e, i)
            assert not compute_K(e, -broken).contains_image
        assert paths[True] and paths[False]

    def test_swap_kills_every_start_vector(self):
        # ranks 1|1: the one pair is the square of the odd frame, so the start
        # is empty, and only a zero comultiplication lies in K = 0
        for entry, inside in ((1, False), (0, True)):
            block = PolyMatrix.from_rat(1, 1, [[Fraction(entry)]], 0)
            e = CoalgebraBundle(2, (), {1: 1, 2: 1}, {2: {(1, 1): block}})
            ks, want = compute_K(e, -2), reference_compute_K(e, -2)
            assert ks.dim == 0 and ks.contains_image is inside
            assert (ks.vectors, ks.contains_image) == (want.vectors, want.contains_image)


# --- the admissibility decision against the union rank ----------------------


def union_rank_admissible(e, sample_points):
    """Admissibility by three eliminations over Q[x] per degree: the generic
    ranks of the image, of K and of their union, which agree exactly when
    the spans are equal; a slow oracle for check_admissible."""
    points = [tuple(Fraction(x) for x in p) for p in sample_points]
    per = {}
    ok = True
    for i in range(2, e.n + 1):
        m = full_mu(e, i)
        im_rank = rank_generic(m)
        ks = compute_K(e, -i)
        vecs = dense_vectors(ks, e.nvars)
        k_rank = span_rank(vecs, e.nvars)
        u_rank = span_rank([m.col(c) for c in range(m.cols)] + vecs, e.nvars)
        equal = im_rank == k_rank == u_rank
        const = all(rank_at(m, p) == im_rank for p in points)
        per[-i] = AdmissibilityDegree(im_rank, k_rank, equal, const)
        ok = ok and equal and const
    return AdmissibilityReport(per, ok, points)


def scaled_bundle(e, factor):
    """Every comultiplication block of e multiplied by one polynomial: the
    generic spans keep their dimensions, the rank drops where it vanishes."""
    mu = {i: {bk: m.map_entries(lambda p: p.mul(factor)) for bk, m in blocks.items()}
          for i, blocks in e.mu.items()}
    return CoalgebraBundle(e.n, e.base_names, dict(e.ranks), mu)


def random_poly_bundle(rng, profile):
    """Ranks from `profile` over one base variable, every block entry a random
    affine polynomial: in general not a coalgebra, and im mu leaves K."""
    x = Poly.var(1, 0)
    ranks = {i + 1: r for i, r in enumerate(profile)}
    mu = {}
    for i in range(2, len(profile) + 1):
        mu[i] = {}
        for j in range(1, i // 2 + 1):
            rows = ranks[j] * ranks[i - j]
            if rows and ranks[i]:
                mu[i][(j, i - j)] = PolyMatrix(rows, ranks[i], [
                    [x.scale(rng.randint(-2, 2)).add(Poly.const(1, rng.randint(-2, 2)))
                     for _ in range(ranks[i])] for _ in range(rows)], 1)
    return CoalgebraBundle(len(profile), ("x",), ranks, mu)


NO_PAIR_PROFILES = [(0, 1, 1), (0, 1, 1, 0, 0, 0, 1), (0, 2, 1)]
X_POINTS = {1: [[Fraction(0)], [Fraction(3)]],
            2: [[Fraction(0), Fraction(1)], [Fraction(2), Fraction(-1)]]}


def admissibility_corpus():
    """(bundle, sample points) pairs covering every path of check_admissible."""
    rng = random.Random(13)
    for e in oracle_corpus():
        yield e, X_POINTS[e.nvars] if e.nvars else ORIGIN
    for profile in NO_PAIR_PROFILES:
        s = split_coalgebra(list(profile))
        yield s, ORIGIN
        yield conjugate_frames(rng, s), ORIGIN
        sx = split_coalgebra(list(profile), base_names=("x",))
        frames = {i: unit_triangular_frame(rng, sx.rank(i), 1) for i in range(1, sx.n + 1)}
        yield transport_frames(sx, frames), X_POINTS[1]
    for profile in [(2, 1), (1, 1, 1), (2, 1, 1), (0, 1, 1)]:
        yield random_constant_bundle(rng, profile), ORIGIN
        yield random_poly_bundle(rng, profile), X_POINTS[1]
    # every point degenerate: the image rank falls short of dim K at each one
    x = Poly.var(1, 0)
    for profile in [(2, 1), (1, 1, 1), (2, 2, 1), (0, 1, 1)]:
        s = split_coalgebra(list(profile), base_names=("x",))
        root = scaled_bundle(s, x.sub(Poly.one(1)))
        yield root, [[Fraction(1)]]
        yield root, [[Fraction(1)], [Fraction(2)]]
        square = scaled_bundle(s, x.mul(x).sub(Poly.const(1, 4)))
        yield square, [[Fraction(2)], [Fraction(-2)]]


class TestAdmissibilityDecision:
    def test_matches_union_rank(self):
        for e, points in admissibility_corpus():
            fast = check_admissible(e, points)
            slow = union_rank_admissible(e, points)
            assert fast == slow, (e, points)

    def test_contains_image_is_span_containment(self):
        for e, _ in admissibility_corpus():
            for i in range(2, e.n + 1):
                ks = compute_K(e, -i)
                m = full_mu(e, i)
                cols = [m.col(c) for c in range(m.cols)]
                inside = span_rank(cols + dense_vectors(ks, e.nvars), e.nvars) == ks.dim
                assert ks.contains_image == inside, (e, i)

    def test_degrees_without_pairs_contain_the_zero_image(self):
        e = split_coalgebra([0, 1, 1, 0, 0, 0, 1])
        for i in (2, 3):
            ks = compute_K(e, -i)
            assert ks.pair_basis == [] and ks.contains_image and ks.dim == 0
        rep = check_admissible(e, ORIGIN)
        assert rep.admissible and rep.per_degree[-3] == AdmissibilityDegree(0, 0, True, True)

    def test_empty_basis_contains_only_a_zero_image(self):
        # ranks 1|1: the square of the odd frame is pinned to zero, so K = 0
        # after the first difference; a nonzero block leaves it
        block = PolyMatrix.from_rat(1, 1, [[Fraction(1)]], 0)
        e = CoalgebraBundle(2, (), {1: 1, 2: 1}, {2: {(1, 1): block}})
        ks = compute_K(e, -2)
        assert ks.dim == 0 and not ks.contains_image
        zero = CoalgebraBundle(2, (), {1: 1, 2: 1}, {2: {}})
        assert compute_K(zero, -2).contains_image

    def spy(self, monkeypatch):
        calls = []
        original = coalgebra.rank_generic

        def counting(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(coalgebra, "rank_generic", counting)
        return calls

    def test_point_certificate_skips_generic_rank(self, monkeypatch):
        calls = self.spy(monkeypatch)
        rng = random.Random(3)
        for profile, base in [((2, 1), ("x",)), ((1, 1, 1), ("x", "y")), ((2, 1, 1), ("x",))]:
            s = split_coalgebra(list(profile), base_names=base)
            frames = {i: unit_triangular_frame(rng, s.rank(i), len(base))
                      for i in range(1, s.n + 1)}
            assert check_admissible(transport_frames(s, frames), X_POINTS[len(base)]).admissible
        # one degenerate point is enough to fall short there; the other certifies
        e = scaled_bundle(split_coalgebra([2, 1], base_names=("x",)), Poly.var(1, 0))
        rep = check_admissible(e, [[Fraction(0)], [Fraction(5)]])
        assert rep.per_degree[-2].equal and not rep.admissible
        assert calls == []

    def test_degenerate_points_fall_back_to_generic_rank(self, monkeypatch):
        calls = self.spy(monkeypatch)
        e = scaled_bundle(split_coalgebra([2, 2, 1], base_names=("x",)),
                          Poly.var(1, 0).sub(Poly.one(1)))
        rep = check_admissible(e, [[Fraction(1)]])
        assert not rep.admissible
        assert all(d.equal and not d.constant_rank for d in rep.per_degree.values())
        assert len(calls) == sum(compute_K(e, -i).dim > 0 for i in range(2, e.n + 1)) == 2

    def test_image_outside_K_falls_back_to_generic_rank(self, monkeypatch):
        calls = self.spy(monkeypatch)
        e = random_poly_bundle(random.Random(2), (2, 1))
        rep = check_admissible(e, X_POINTS[1])
        assert not compute_K(e, -2).contains_image and not rep.per_degree[-2].equal
        assert len(calls) == 1
        # a constant bundle reads its one rank off the integer view
        e = random_constant_bundle(random.Random(2), (2, 1))
        rep = check_admissible(e, ORIGIN)
        assert not compute_K(e, -2).contains_image and not rep.per_degree[-2].equal
        assert len(calls) == 1


# --- the splitting isomorphism against the per-column solve -----------------


def per_column_splitting_iso(E, at_point=None):
    """splitting_iso with one dense product and one rational solve per
    column of the comultiplication; a slow oracle for the one elimination
    per degree."""
    if not E.is_constant():
        E = CoalgebraBundle(E.n, (), E.ranks, {
            i: {bk: PolyMatrix.from_rat(m.rows, m.cols, m.eval_at(at_point), 0)
                for bk, m in blocks.items()}
            for i, blocks in E.mu.items()})
    mu_rat = {i: full_mu(E, i).to_rat() for i in range(1, E.n + 1)}
    kernels = {i: rat_kernel(m, cols=E.rank(i)) for i, m in mu_rat.items()}
    S = split_coalgebra([len(kernels[i]) for i in range(1, E.n + 1)], E.base_names)
    matrices = {1: PolyMatrix.identity(E.rank(1), E.nvars)}
    for i in range(2, E.n + 1):
        r, rs = E.rank(i), S.rank(i)
        singleton_pos, decomp_pos = {}, []
        for t, w in enumerate(S.split.monomials[i]):
            if len(w) == 1 and w[0][0] == i:
                singleton_pos[w[0][1]] = t
            else:
                decomp_pos.append(t)
        ker = kernels[i]
        d_i = len(ker)
        if rs != r:
            raise NotAdmissible(
                f"rank mismatch at degree {-i}: bundle rank {r}, split model rank {rs}")
        m = mu_rat[i]
        _, complement = rat_rref(m) if m else ([], [])
        if len(complement) + d_i != r:
            raise NotAdmissible(f"kernel/image ranks do not fill degree {-i}")
        basis_change = [[Fraction(0)] * r for _ in range(r)]
        for t, kv in enumerate(ker):
            for row in range(r):
                basis_change[row][t] = kv[row]
        for t, c in enumerate(complement):
            basis_change[c][d_i + t] = Fraction(1)
        try:
            inv = rat_inverse(basis_change)
        except ValueError:
            raise NotAdmissible(f"kernel and pivot complement overlap at degree {-i}")
        proj = inv[:d_i]
        smu = full_mu(S, i).to_rat()
        decomp_cols = [[row[c] for c in decomp_pos] for row in smu]
        tsq = tensor_square(CoalgebraMorphism(E, S, matrices), i).to_rat()
        cols_out = []
        for c in range(r):
            w = [row[c] for row in m]
            tw = [sum((row[s] * w[s] for s in range(len(w))), Fraction(0)) for row in tsq]
            if decomp_cols and decomp_cols[0]:
                sol, _ = rat_solve(decomp_cols, tw)
            else:
                sol = [] if all(v == 0 for v in tw) else None
            if sol is None:
                raise NotAdmissible(
                    f"comultiplication image leaves the constraint space at degree {-i}")
            col = [Fraction(0)] * rs
            for t in range(d_i):
                col[singleton_pos[t]] = proj[t][c]
            for t, pos in enumerate(decomp_pos):
                col[pos] = sol[t]
            cols_out.append(col)
        mat = [[cols_out[c][row] for c in range(r)] for row in range(rs)]
        try:
            rat_inverse(mat)
        except ValueError:
            raise NotAdmissible(f"splitting map is singular at degree {-i}")
        matrices[i] = PolyMatrix.from_rat(rs, r, mat, E.nvars)
    return CoalgebraMorphism(E, S, matrices)


def splitting_outcome(split, e, at_point=None):
    """(target ranks, matrices) of a splitting, or the NotAdmissible message."""
    try:
        iso = split(e, at_point)
    except NotAdmissible as exc:
        return str(exc)
    return iso.target.ranks, iso.matrices


def rank_dropped(rng, profile):
    """A split bundle with one or two nonzero top-degree comultiplication
    columns zeroed, under random constant frames: not admissible."""
    s = split_coalgebra(list(profile))
    n = s.n
    cols = [c for c, col in enumerate(s.mu_columns(n)) if col]
    zeroed = set(rng.sample(cols, min(len(cols), rng.randint(1, 2))))
    mu = dict(s.mu)
    mu[n] = {bk: PolyMatrix(m.rows, m.cols, [
        [Poly.zero(0) if c in zeroed else p for c, p in enumerate(row)] for row in m.entries], 0)
        for bk, m in s.mu[n].items()}
    return conjugate_frames(rng, CoalgebraBundle(n, (), dict(s.ranks), mu))


class TestSplittingIsoOracle:
    def test_split_corpus_and_conjugates(self):
        rng = random.Random(9)
        # the oracle alone takes seconds on 3|3|3|3, the one profile left out
        for profile in [p for p in SPLIT_CORPUS if p != (3, 3, 3, 3)]:
            for e in (split_coalgebra(list(profile)),
                      conjugate_frames(rng, split_coalgebra(list(profile)))):
                fast = splitting_outcome(splitting_iso, e)
                assert not isinstance(fast, str), (profile, fast)
                assert fast == splitting_outcome(per_column_splitting_iso, e), profile

    def test_x_dependent_bundles_at_a_fiber(self):
        rng = random.Random(4)
        x = Poly.var(1, 0)
        cases = []
        for profile, base in [((2, 1), ("x",)), ((1, 1, 1), ("x",)), ((2, 1, 1), ("x", "y")),
                              ((2, 2, 1), ("x",)), ((1, 1, 1, 1), ("x", "y"))]:
            s = split_coalgebra(list(profile), base_names=base)
            frames = {i: unit_triangular_frame(rng, s.rank(i), len(base))
                      for i in range(1, s.n + 1)}
            cases += [(transport_frames(s, frames), p) for p in X_POINTS[len(base)]]
        for profile in [(2, 1), (1, 1, 1), (2, 2, 1)]:
            # rank drops at x = 1 only
            e = scaled_bundle(split_coalgebra(list(profile), base_names=("x",)), x.sub(Poly.one(1)))
            cases += [(e, [Fraction(1)]), (e, [Fraction(2)])]
        outcomes = []
        for e, point in cases:
            fast = splitting_outcome(splitting_iso, e, point)
            assert fast == splitting_outcome(per_column_splitting_iso, e, point), (e, point)
            outcomes.append(isinstance(fast, str))
        assert True in outcomes and False in outcomes

    def test_rank_dropped_negatives_raise_the_same_refusal(self):
        rng = random.Random(6)
        messages = Counter()
        bundles = [rank_dropped(rng, p) for p in [(3, 3), (2, 2, 1), (1, 1, 1, 1), (2, 1, 0, 1)]]
        for profile in [(2, 1), (2, 2), (1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 1, 1)]:
            bundles += [random_constant_bundle(rng, profile) for _ in range(3)]
        bundles.append(zero_mu_bundle())
        for e in bundles:
            fast = splitting_outcome(splitting_iso, e)
            assert isinstance(fast, str), e
            assert fast == splitting_outcome(per_column_splitting_iso, e), e
            messages[fast.split(" at degree")[0]] += 1
        # both the rank check and a pivot in the right-hand part refuse
        assert messages["rank mismatch"] and messages[
            "comultiplication image leaves the constraint space"], messages


def two_refusals_bundle():
    """Ranks 2|1|1: the degree -2 column is symmetric where the split one is
    antisymmetric, so its image leaves the constraint space there, and the
    nonzero degree -3 column leaves no kernel, a rank mismatch one degree
    lower.  The degree -2 refusal must come first."""
    one = lambda rows: PolyMatrix.from_rat(len(rows), 1, [[Fraction(v)] for v in rows], 0)
    return CoalgebraBundle(3, (), {1: 2, 2: 1, 3: 1},
                           {2: {(1, 1): one([0, 1, 1, 0])}, 3: {(1, 2): one([1, 0])}})


def splitting_reference_corpus():
    """(bundle, splitting point, sample points): split profiles and their
    frame conjugates, zeroed top columns and refusals, and x-dependent
    bundles split at a fiber."""
    rng = random.Random(21)
    for profile in SPLIT_CORPUS:
        s = split_coalgebra(list(profile))
        yield s, None, ORIGIN
        yield conjugate_frames(rng, s), None, ORIGIN
    for profile in [(3, 3), (2, 2, 1), (1, 1, 1, 1), (2, 1, 0, 1), (2, 2, 2)]:
        yield rank_dropped(rng, profile), None, ORIGIN
    for profile in [(2, 1), (2, 2), (1, 1, 1), (2, 1, 1), (2, 2, 1)]:
        yield random_constant_bundle(rng, profile), None, ORIGIN
    yield zero_mu_bundle(), None, ORIGIN
    yield two_refusals_bundle(), None, ORIGIN
    for profile, base in [((2, 1), ("x",)), ((1, 1, 1), ("x",)), ((2, 1, 1), ("x", "y")),
                          ((2, 2, 1), ("x",)), ((1, 1, 1, 1), ("x", "y"))]:
        s = split_coalgebra(list(profile), base_names=base)
        frames = {i: unit_triangular_frame(rng, s.rank(i), len(base))
                  for i in range(1, s.n + 1)}
        e = transport_frames(s, frames)
        for point in X_POINTS[len(base)]:
            yield e, point, X_POINTS[len(base)]
    for profile in [(2, 1), (1, 1, 1), (2, 2, 1)]:
        # rank drops at x = 1 only
        e = scaled_bundle(split_coalgebra(list(profile), base_names=("x",)),
                          Poly.var(1, 0).sub(Poly.one(1)))
        for point in X_POINTS[1] + [[Fraction(1)]]:
            yield e, point, X_POINTS[1] + [[Fraction(1)]]


class TestSparseSplittingRead:
    def test_matches_the_rref_reference(self):
        messages = Counter()
        for e, at, _ in splitting_reference_corpus():
            fast = splitting_outcome(splitting_iso, e, at)
            assert fast == splitting_outcome(reference_splitting_iso, e, at), (e, at)
            messages[fast.split(" at degree")[0] if isinstance(fast, str) else "ok"] += 1
        assert messages["ok"] and messages["rank mismatch"] and messages[
            "comultiplication image leaves the constraint space"], messages

    def test_refusals_keep_their_order(self):
        with pytest.raises(NotAdmissible, match="leaves the constraint space at degree -2"):
            splitting_iso(two_refusals_bundle())

    def test_mu_matrix_is_the_dense_view_without_zero_rows(self):
        for e, _, points in splitting_reference_corpus():
            for i in range(1, e.n + 1):
                m, dense = e.mu_matrix(i), full_mu(e, i)
                assert m.entries == [row for row in dense.entries
                                     if not all(p.is_zero() for p in row)], (e, i)
                assert rank_generic(m) == rank_generic(dense), (e, i)
                for point in points:
                    assert rank_at(m, point) == rank_at(dense, point), (e, i, point)
                    assert rat_pivots(m.eval_at(point)) == rat_pivots(dense.eval_at(point))

    def test_no_declared_mu_gives_no_rows(self):
        e = CoalgebraBundle(2, (), {1: 40, 2: 1}, {})
        m = e.mu_matrix(2)
        assert (m.rows, m.cols) == (0, 1)
        assert rank_generic(m) == 0 and rank_at(m, ()) == 0


def fraction_built(e):
    """e rebuilt through the public Poly constructor from Fraction
    coefficients, each zero entry spelled as an explicit Fraction(0)."""
    nv = e.nvars
    zero = {(0,) * nv: Fraction(0)}
    mu = {i: {bk: PolyMatrix(m.rows, m.cols, [
        [Poly(nv, {x: Fraction(c) for x, c in p.terms.items()} or zero) for p in row]
        for row in m.entries], nv) for bk, m in blocks.items()}
        for i, blocks in e.mu.items()}
    return CoalgebraBundle(e.n, e.base_names, dict(e.ranks), mu)


class TestFractionBuiltBundles:
    def cases(self):
        """(bundle, sample points, splitting point): conjugated constant
        bundles, x-dependent frame transports and one rank drop."""
        rng = random.Random(17)
        for profile in [(2, 1), (1, 1, 1), (2, 2, 1), (2, 1, 0, 1), (3, 3)]:
            yield conjugate_frames(rng, split_coalgebra(list(profile))), ORIGIN, None
        for profile, base in [((2, 1), ("x",)), ((1, 1, 1), ("x",)), ((2, 2, 1), ("x",)),
                              ((2, 1, 1), ("x", "y")), ((1, 1, 1, 1), ("x", "y"))]:
            s = split_coalgebra(list(profile), base_names=base)
            frames = {i: unit_triangular_frame(rng, s.rank(i), len(base))
                      for i in range(1, s.n + 1)}
            points = X_POINTS[len(base)]
            yield transport_frames(s, frames), points, points[1]
        root = scaled_bundle(split_coalgebra([2, 1], base_names=("x",)),
                             Poly.var(1, 0).sub(Poly.one(1)))
        yield root, [[Fraction(1)], [Fraction(2)]], [Fraction(1)]

    def test_match_int_built_twins(self):
        for e, points, at in self.cases():
            f = fraction_built(e)
            for i, blocks in e.mu.items():
                for bk, m in blocks.items():
                    for row, frow in zip(m.entries, f.mu[i][bk].entries):
                        for p, q in zip(row, frow):
                            assert p.terms == q.terms
                            assert [type(c) for c in p.terms.values()] == \
                                [type(c) for c in q.terms.values()]
            for i in range(2, e.n + 2):
                ke, kf = compute_K(e, -i), compute_K(f, -i)
                assert ke.vectors == kf.vectors, (e, i)
                assert ke.contains_image == kf.contains_image, (e, i)
            assert check_admissible(f, points) == check_admissible(e, points), e
            assert splitting_outcome(splitting_iso, f, at) == \
                splitting_outcome(splitting_iso, e, at), e


# --- morphisms on sparse pair columns against the dense tensor square --------


def dense_morphism_check(phi, E, F):
    """morphism_check by dense products: mu_F phi against the tensor square
    of phi times mu_E, per degree."""
    return all(full_mu(F, i).mul(phi.matrix(i)) == tensor_square(phi, i).mul(full_mu(E, i))
               for i in range(2, E.n + 1))


def random_int_matrix(rng, rows, cols, nv):
    return PolyMatrix(rows, cols, [[Poly.const(nv, rng.choice([0, 0, 1, -1, 2]))
                                    for _ in range(cols)] for _ in range(rows)], nv)


def perturbed(phi, i, b, c, delta):
    """phi with delta added at entry (b, c) of its degree i matrix."""
    mats = dict(phi.matrices)
    rows = [list(row) for row in phi.matrix(i).entries]
    rows[b][c] = rows[b][c].add(delta)
    mats[i] = PolyMatrix(len(rows), len(rows[0]), rows, phi.source.nvars)
    return CoalgebraMorphism(phi.source, phi.target, mats)


class TestPushColumn:
    def morphisms(self):
        """(phi, E): maps out of split, conjugated and frame-transported
        bundles, and non-square maps between split bundles."""
        rng = random.Random(21)
        for profile in SPLIT_CORPUS:
            e = split_coalgebra(list(profile))
            yield CoalgebraMorphism(e, e, {i: random_int_matrix(rng, e.rank(i), e.rank(i), 0)
                                          for i in range(1, e.n + 1)}), e
        for profile in [(2, 1), (1, 1, 1), (2, 2, 1), (2, 1, 0, 1), (3, 3)]:
            e = conjugate_frames(rng, split_coalgebra(list(profile)))
            yield splitting_iso(e), e
        for profile, base in [((2, 1), ("x",)), ((1, 1, 1), ("x",)), ((2, 2, 1), ("x",)),
                              ((2, 1, 1), ("x", "y")), ((1, 1, 1, 1), ("x", "y"))]:
            s = split_coalgebra(list(profile), base_names=base)
            frames = {i: unit_triangular_frame(rng, s.rank(i), len(base))
                      for i in range(1, s.n + 1)}
            yield CoalgebraMorphism(s, transport_frames(s, frames), frames), s
        for src, dst in [((2, 1), (3, 2)), ((1, 1, 1), (2, 1, 1)), ((2, 0, 1), (3, 1, 1))]:
            s, t = split_coalgebra(list(src)), split_coalgebra(list(dst))
            t_ids = list(self.gen_ids(t))
            linear = {g: {h: Fraction(rng.randint(-2, 2)) for h in t_ids if h[0] == g[0]}
                      for g in self.gen_ids(s)}
            yield split_morphism_from_linear(linear, s, t), s

    @staticmethod
    def gen_ids(e):
        counts = Counter()
        for d, _ in e.split.gens:
            counts[d] += 1
            yield d, counts[d] - 1

    def test_matches_the_dense_tensor_square(self):
        nonsquare = 0
        for phi, e in self.morphisms():
            nonsquare += any(m.rows != m.cols for m in phi.matrices.values())
            for i in range(2, e.n + 1):
                dense = tensor_square(phi, i).mul(full_mu(e, i))
                pairs = phi.target.tensor_basis(2, i)
                for c, col in enumerate(e.mu_columns(i)):
                    want = {pairs[r]: row[c] for r, row in enumerate(dense.entries) if row[c]}
                    assert push_column(phi, col) == want, (e, i, c)
        assert nonsquare == 3

    def morphism_cases(self):
        """(phi, E, F) morphisms, constant and polynomial."""
        rng = random.Random(22)
        for profile in [(2, 1), (2, 2, 1), (1, 1, 1, 1)]:
            e = conjugate_frames(rng, split_coalgebra(list(profile)))
            phi = splitting_iso(e)
            yield phi, e, phi.target, Poly.one(0)
        for profile, base in [((2, 1), ("x",)), ((2, 2, 1), ("x",)), ((2, 1, 1), ("x", "y"))]:
            s = split_coalgebra(list(profile), base_names=base)
            frames = {i: unit_triangular_frame(rng, s.rank(i), len(base))
                      for i in range(1, s.n + 1)}
            t = transport_frames(s, frames)
            yield CoalgebraMorphism(s, t, frames), s, t, Poly.var(len(base), 0)

    def test_one_perturbed_entry_breaks_a_morphism(self):
        constant = Counter()
        for phi, e, f, delta in self.morphism_cases():
            constant[f.is_constant()] += 1
            assert morphism_check(phi, e, f) and dense_morphism_check(phi, e, f)
            broken = 0
            for i in range(2, e.n + 1):
                for b in range(f.rank(i)):
                    for c in range(e.rank(i)):
                        bad = perturbed(phi, i, b, c, delta)
                        verdict = morphism_check(bad, e, f)
                        assert verdict == dense_morphism_check(bad, e, f), (e, i, b, c)
                        # a decomposable target column moves mu_F phi alone
                        if f.mu_columns(i)[b]:
                            assert not verdict, (e, i, b, c)
                            broken += 1
            assert broken, e
        assert constant[True] and constant[False]


# --- the readers on the integer view against their Poly paths ----------------


def fraction_block_bundle(rng, profile):
    """Ranks from `profile`, every block entry a random rational with
    denominator up to 3: in general not a coalgebra, and lam > 1."""
    ranks = {i + 1: r for i, r in enumerate(profile)}
    mu = {}
    for i in range(2, len(profile) + 1):
        mu[i] = {}
        for j in range(1, i // 2 + 1):
            rows = ranks[j] * ranks[i - j]
            if rows and ranks[i]:
                mu[i][(j, i - j)] = PolyMatrix.from_rat(rows, ranks[i], [
                    [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ranks[i])]
                    for _ in range(rows)], 0)
    return CoalgebraBundle(len(profile), (), ranks, mu)


def non_coassociative(rng, profile):
    """A conjugated split bundle with one entry of a top-degree block (j, k),
    j < k, moved by 1/2: the mirrored pairs follow the stored block, so it
    stays cocommutative, but in general it is no longer coassociative."""
    e = conjugate_frames(rng, split_coalgebra(list(profile)))
    mu = {i: dict(blocks) for i, blocks in e.mu.items()}
    jk = rng.choice([jk for jk in mu[e.n] if jk[0] < jk[1]])
    m = mu[e.n][jk]
    rows = [list(row) for row in m.entries]
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    rows[r][c] = rows[r][c].add(Poly.const(0, Fraction(1, 2)))
    mu[e.n][jk] = PolyMatrix(m.rows, m.cols, rows, 0)
    return CoalgebraBundle(e.n, (), dict(e.ranks), mu)


def rational_frames(rng, e):
    """One invertible constant matrix per degree, with rational entries."""
    frames = {}
    for i in range(1, e.n + 1):
        r = e.rank(i)
        while True:
            m = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(r)]
                 for _ in range(r)]
            if rat_rank(m) == r:
                break
        frames[i] = PolyMatrix.from_rat(r, r, m, 0)
    return frames


class TestIntegerViewReaders:
    """`check_coalgebra`, `splitting_iso` and `morphism_check` read constant
    bundles on their integer views; the Poly-path bodies they had before pin
    every output."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def bundles():
        # built once for the three tests: the readers only fill the caches
        rng = random.Random(31)
        out = []
        for profile in SPLIT_CORPUS:
            s = split_coalgebra(list(profile))
            out += [s, conjugate_frames(rng, s)]
        for profile in [(2, 1), (2, 2), (1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 1, 1)]:
            out.append(fraction_block_bundle(rng, profile))
        for profile in [(3, 3), (2, 2, 1), (1, 1, 1, 1), (2, 1, 0, 1), (2, 2, 2)]:
            out.append(rank_dropped(rng, profile))
        for profile in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 1, 1)]:
            out.append(non_coassociative(rng, profile))
        return tuple(out)

    def test_check_coalgebra_matches_the_poly_path(self):
        kinds = Counter()
        for e in self.bundles():
            rep = check_coalgebra(e)
            assert rep == poly_check_coalgebra(e), e
            kinds[rep.cocommutative, rep.coassociative] += 1
        assert kinds[True, True] and kinds[False, False] and kinds[True, False], kinds

    def test_splitting_iso_matches_the_poly_path(self):
        outcomes = Counter()
        for e in self.bundles():
            got = splitting_outcome(splitting_iso, e)
            assert got == splitting_outcome(poly_splitting_iso, e), e
            if isinstance(got, str):
                outcomes[got.split(" at degree")[0]] += 1
            else:
                outcomes["split, lam > 1" if e.integer_view().lam > 1 else "split"] += 1
        assert outcomes["split"] and outcomes["split, lam > 1"], outcomes
        assert outcomes["rank mismatch"] and outcomes[
            "comultiplication image leaves the constraint space"], outcomes

    def morphisms(self):
        """(phi, E, F): splitting maps onto the split model, rational frame
        changes between non-coalgebra bundles, and identities."""
        rng = random.Random(32)
        for e in self.bundles():
            try:
                phi = splitting_iso(e)
            except NotAdmissible:
                continue
            yield phi, e, phi.target
        for profile in [(2, 1), (1, 1, 1), (2, 2, 1)]:
            e = fraction_block_bundle(rng, profile)
            frames = rational_frames(rng, e)
            f = transport_frames(e, frames)
            yield CoalgebraMorphism(e, f, frames), e, f
            yield CoalgebraMorphism(e, e, {i: PolyMatrix.identity(e.rank(i), 0)
                                          for i in range(1, e.n + 1)}), e, e

    def test_morphism_check_matches_the_poly_path(self):
        rng = random.Random(33)
        lams, broken = Counter(), 0
        for phi, e, f in self.morphisms():
            lams[e.integer_view().lam == f.integer_view().lam] += 1
            assert morphism_check(phi, e, f) and poly_morphism_check(phi, e, f), e
            for i in range(1, e.n + 1):
                # a few entries per degree, and one under a decomposable
                # target column, which moves mu_F phi alone
                entries = [(b, c) for b in range(f.rank(i)) for c in range(e.rank(i))]
                picked = rng.sample(entries, min(3, len(entries)))
                picked += [(b, 0) for b in range(f.rank(i))
                           if i > 1 and e.rank(i) and f.mu_columns(i)[b]][:1]
                for b, c in picked:
                    bad = perturbed(phi, i, b, c, Poly.one(0))
                    verdict = morphism_check(bad, e, f)
                    assert verdict == poly_morphism_check(bad, e, f), (e, i, b, c)
                    if i > 1 and f.mu_columns(i)[b]:
                        assert not verdict, (e, i, b, c)
                        broken += 1
        assert broken and lams[True] and lams[False], (broken, lams)

    def test_points_of_the_wrong_length_are_refused(self):
        # a constant bundle takes its ranks off the view, at no point
        for e in (split_coalgebra([2, 1]), split_coalgebra([2, 1], base_names=("x",))):
            with pytest.raises(ValueError, match="point has wrong length"):
                check_admissible(e, [(Fraction(1),) * (e.nvars + 1)])

    def test_constant_readers_make_no_poly_products(self, monkeypatch):
        e = conjugate_frames(random.Random(7), split_coalgebra([2, 2, 2]))
        assert e.is_constant() and e.integer_view().lam > 1
        calls = []
        mul = exactnum.Poly.mul

        def counting(p, q):
            calls.append(1)
            return mul(p, q)

        monkeypatch.setattr(exactnum.Poly, "mul", counting)
        assert check_coalgebra(e).ok
        assert check_admissible(e, ORIGIN).admissible
        phi = splitting_iso(e)
        assert morphism_check(phi, e, phi.target)
        assert calls == []
        # the spy sees the products of the Poly path
        assert poly_morphism_check(phi, e, phi.target) and calls


class TestConstantVerdictWorkOnce:
    """The chain of a constant bundle's verdict scans its blocks once, builds
    split models on ints, and keeps `compute_K` and `morphism_check` on the
    outputs of their Poly-path references."""

    def test_each_block_is_scanned_at_most_once(self, monkeypatch):
        from gradman.geometrize import geometrize, roundtrip

        scans = Counter()
        is_constant = PolyMatrix.is_constant

        def spy(m):
            scans[id(m)] += 1
            return is_constant(m)

        monkeypatch.setattr(PolyMatrix, "is_constant", spy)
        e = conjugate_frames(random.Random(7), split_coalgebra([2, 2, 2]))
        s = split_coalgebra([2, 1, 1])
        for bundle in (e, s):
            assert check_coalgebra(bundle).ok
            assert check_admissible(bundle, ORIGIN).admissible
        chart = geometrize(e)
        assert morphism_check(chart.iso, e, chart.iso.target)
        f, phi = roundtrip(s)
        assert morphism_check(phi, s, f)
        blocks = [m for b in (e, s, chart.iso.target, f)
                  for blocks in b.mu.values() for m in blocks.values()]
        assert blocks and max(scans[id(m)] for m in blocks) == 1
        # split models are born constant: none of their blocks is scanned
        assert not any(scans[id(m)] for b in (s, chart.iso.target, f)
                       for blocks in b.mu.values() for m in blocks.values())

    def test_split_model_views_are_its_columns_read_as_ints(self):
        for profile in SPLIT_CORPUS:
            for base in ((), ("x",)):
                s = split_coalgebra(list(profile), base_names=base)
                view = s._integer_view  # built with the model, before any reader
                assert view is not None and view is s.integer_view() and view.lam == 1
                for i in range(2, s.n + 1):
                    want = [{p: c.constant_value() for p, c in col.items()}
                            for col in s.mu_columns(i)]
                    got = view.mu_columns(i)
                    assert got == want, (profile, base, i)
                    assert all(type(c) is int for col in got for c in col.values())

    def test_compute_K_matches_the_reference_through_degree_n_plus_one(self):
        # degrees 2..n of the first two sets are compared in TestIntegerPath
        # and TestSwapKernelStart; -(n + 1) is the top degree compute_K takes.
        # The (3, 3, 3, 3) bundles are left out there for time: at their 318
        # pairs the Poly reference takes 1.5-2 s, and 45 s over x
        cases = [(e, [e.n + 1]) for e in itertools.chain(
            oracle_corpus(), (e for e, _ in symmetry_broken_bundles()))
            if len(e.tensor_basis(2, e.n + 1)) < 300]
        cases += [(random_poly_bundle(random.Random(s), p), range(2, len(p) + 2))
                  for s, p in enumerate([(2, 1), (1, 1, 1), (2, 1, 1), (2, 2, 1)])]
        paths = Counter()
        for e, degrees in cases:
            paths[e.is_constant()] += 1
            for i in degrees:
                got, want = compute_K(e, -i), reference_compute_K(e, -i)
                assert got.pair_basis == want.pair_basis, (e, i)
                assert dense_vectors(got, e.nvars) == want.vectors, (e, i)
                assert got.contains_image == want.contains_image, (e, i)
        assert paths[True] > 10 and paths[False] > 10, paths

    def test_a_transposition_alone_can_put_the_image_outside_K(self):
        # ranks 1|1|1, mu(f) = e (x) e and mu(g) = e (x) f + f (x) e: the
        # degree -3 column is graded symmetric and coassociative, and only
        # s_0 on its R-image e (x) e (x) e, which it negates, leaves K = 0
        for base in ((), ("x",)):
            unit = PolyMatrix.from_rat(1, 1, [[Fraction(1)]], len(base))
            e = CoalgebraBundle(3, base, {1: 1, 2: 1, 3: 1},
                                {2: {(1, 1): unit}, 3: {(1, 2): unit}})
            got, want = compute_K(e, -3), reference_compute_K(e, -3)
            assert (got.dim, got.contains_image) == (want.dim, want.contains_image) == (0, False)

    def test_fractional_constant_phi_stays_on_ints(self, monkeypatch):
        # the (3, 3, 3, 3) conjugate: lam about 1.5e24, so the splitting map
        # holds q / lam and phi's numbers are fractions
        e = TestIntegerViewReaders.bundles()[2 * SPLIT_CORPUS.index((3, 3, 3, 3)) + 1]
        phi = splitting_iso(e)
        f = phi.target
        assert any(type(c) is Fraction for m in phi.matrices.values()
                   for row in m.to_rat() for c in row if c.denominator > 1)
        values = []
        image, push = coalgebra._image, coalgebra.push_column

        def spy_image(cols, vec):
            out = image(cols, vec)
            values.extend(out.values())
            return out

        def spy_push(rows, col):
            out = push(rows, col)
            values.extend(out.values())
            return out

        monkeypatch.setattr(coalgebra, "_image", spy_image)
        monkeypatch.setattr(coalgebra, "push_column", spy_push)
        i = e.n
        b = next(b for b in range(f.rank(i)) if f.mu_columns(i)[b])
        bad = perturbed(phi, i, b, 0, Poly.one(0))
        assert morphism_check(phi, e, f)
        assert not morphism_check(bad, e, f)
        assert values and all(type(v) is int for v in values)
        monkeypatch.undo()
        assert poly_morphism_check(phi, e, f)
        assert not poly_morphism_check(bad, e, f)


# --- admissibility read off the kept splitting -------------------------------


def middle_failure_bundles():
    """Degree-4 split bundles whose splitting fails at degree -3, under
    random frames: a nonzero degree -3 column given a 1 at a pair where it
    was zero, which keeps its rank and in general takes the image out of
    the constraint space; and a nonzero degree -3 column zeroed, a rank
    mismatch."""
    rng = random.Random(41)
    for profile in [(2, 1, 1, 1), (2, 2, 1, 1), (3, 1, 1, 1)]:
        s = split_coalgebra(list(profile))
        m = s.mu[3][(1, 2)]
        c = next(c for c in range(m.cols) if any(not row[c].is_zero() for row in m.entries))
        r = next(r for r, row in enumerate(m.entries) if row[c].is_zero())
        moved = [list(row) for row in m.entries]
        moved[r][c] = Poly.one(0)
        zeroed = [[Poly.zero(0) if k == c else p for k, p in enumerate(row)]
                  for row in m.entries]
        for entries in (moved, zeroed):
            mu = {i: dict(blocks) for i, blocks in s.mu.items()}
            mu[3][(1, 2)] = PolyMatrix(m.rows, m.cols, entries, 0)
            yield conjugate_frames(rng, CoalgebraBundle(s.n, (), dict(s.ranks), mu))


def mismatch_bundles():
    """(bundle, i) for split bundles whose splitting first fails by a rank
    mismatch at degree -i, i = 3 or 4, under random frames: one nonzero
    comultiplication column at -i zeroed, and then also a 1 given to another
    nonzero column of block (1, i - 1) at a pair where it was zero.  The
    decomposable columns of a split bundle are independent, so the rank
    drops by one and the kernel count at -i rises by one while every lower
    degree still splits; the moved entry in general takes the image out of
    the constraint space as well."""
    rng = random.Random(47)
    for profile, i in [((2, 1, 1, 1), 3), ((2, 2, 1, 1), 3), ((2, 1, 1, 1, 1), 4),
                       ((1, 1, 1, 1, 1), 4)]:
        s = split_coalgebra(list(profile))
        c, c2 = [c for c, col in enumerate(s.mu_columns(i)) if col][:2]
        blocks = {jk: [[Poly.zero(0) if k == c else p for k, p in enumerate(row)]
                       for row in m.entries] for jk, m in s.mu[i].items()}
        for move in (False, True):
            if move:
                next(row for row in blocks[(1, i - 1)] if row[c2].is_zero())[c2] = Poly.one(0)
            mu = {d: dict(b) for d, b in s.mu.items()}
            mu[i] = {jk: PolyMatrix(s.mu[i][jk].rows, s.mu[i][jk].cols,
                                    [list(row) for row in rows], 0)
                     for jk, rows in blocks.items()}
            yield conjugate_frames(rng, CoalgebraBundle(s.n, (), dict(s.ranks), mu)), i


def splitting_corpus():
    """Constant bundles whose admissibility and splitting are compared with
    the references: both `split-tower` pools, SPLIT_CORPUS and its
    conjugates, `oracle_corpus`, the constant symmetry-broken bundles and the
    middle-degree failures."""
    rng = random.Random(43)
    for seed in (11, 7011):
        yield from (e for _, e in bench_pool("split-tower", seed))
    for profile in SPLIT_CORPUS:
        s = split_coalgebra(list(profile))
        yield s
        yield conjugate_frames(rng, s)
    yield from (e for e in oracle_corpus() if e.is_constant())
    yield from (e for e, _ in symmetry_broken_bundles() if e.is_constant())
    yield from middle_failure_bundles()


class TestAdmissibilityOffTheSplitting:
    def test_reports_and_splittings_match_the_references(self):
        outcomes = Counter()
        # the Poly-path reference takes seconds on the 3|3|3|3 profiles
        slow = split_coalgebra([3, 3, 3, 3]).ranks
        for e in splitting_corpus():
            points = [(0,) * e.nvars]
            assert check_admissible(e, points) == reference_check_admissible(e, points), e
            got = splitting_outcome(splitting_iso, e)
            if e.ranks != slow:
                assert got == splitting_outcome(poly_splitting_iso, e), e
            outcomes[got.split(" at degree")[0] if isinstance(got, str) else "split"] += 1
        assert outcomes["split"] and outcomes["rank mismatch"] and outcomes[
            "comultiplication image leaves the constraint space"], outcomes

    def spy(self, monkeypatch):
        calls = {"build": 0, "compute_K": []}
        build, compute = coalgebra.build_splitting, coalgebra.compute_K

        def spy_build(E):
            calls["build"] += 1
            return build(E)

        def spy_compute(E, degree):
            calls["compute_K"].append(degree)
            return compute(E, degree)

        monkeypatch.setattr(coalgebra, "build_splitting", spy_build)
        monkeypatch.setattr(coalgebra, "compute_K", spy_compute)
        return calls

    def test_one_splitting_per_verdict(self, monkeypatch):
        from gradman.geometrize import geometrize

        e = conjugate_frames(random.Random(7), split_coalgebra([2, 2, 2]))
        calls = self.spy(monkeypatch)
        assert check_admissible(e, ORIGIN).admissible
        chart = geometrize(e)
        assert morphism_check(chart.iso, e, chart.iso.target)
        assert splitting_iso(e).matrices == chart.iso.matrices
        assert calls == {"build": 1, "compute_K": []}

    def test_degrees_past_a_middle_failure_fall_back(self, monkeypatch):
        calls = self.spy(monkeypatch)
        messages = Counter()
        for e in middle_failure_bundles():
            calls["compute_K"].clear()
            rep = check_admissible(e, ORIGIN)
            assert rep == reference_check_admissible(e, ORIGIN), e
            with pytest.raises(NotAdmissible, match="at degree -3") as refusal:
                splitting_iso(e)
            kind = str(refusal.value).split(" at degree")[0]
            messages[kind] += 1
            # a failed containment test and a rank mismatch both read degrees
            # -2 and -3 off the split model; -4, past the failure, is compute_K's
            assert calls["compute_K"] == [-4], (e, kind)
            assert not rep.per_degree[-3].equal and rep.per_degree[-2].equal
            with pytest.raises(NotAdmissible, match=str(refusal.value)):
                splitting_iso(e)
        assert calls["build"] == sum(messages.values()) and len(messages) == 2, messages

    def test_a_rank_mismatch_degree_is_read_off_the_splitting(self, monkeypatch):
        compute = coalgebra.compute_K
        calls = self.spy(monkeypatch)
        outcomes = Counter()
        for e, i in mismatch_bundles():
            calls["compute_K"].clear()
            rep = check_admissible(e, ORIGIN)
            assert rep == reference_check_admissible(e, ORIGIN), e
            # the degrees past the mismatch only
            assert calls["compute_K"] == list(range(-i - 1, -e.n - 1, -1)), (e, i)
            # the report's equal flag is false whatever the containment, so
            # the kept read is compared with compute_K's directly
            ks = compute(e, -i)
            assert e.splitting().constraint[i] == (ks.dim, ks.contains_image), (e, i)
            # the mismatch stays the refusal when containment fails too
            with pytest.raises(NotAdmissible, match=f"rank mismatch at degree {-i}:"):
                splitting_iso(e)
            outcomes[i, ks.contains_image] += 1
        assert outcomes == {(3, True): 2, (3, False): 2, (4, True): 2, (4, False): 2}, outcomes

    def test_a_mismatch_over_many_lower_generators_builds_no_block(self, monkeypatch):
        # 20 odd degree -1 generators and a rank-1 degree -3 with no mu: the
        # 1140 words of degree 3 span K_3, and no split model reaches -3
        s = split_coalgebra([20, 0])
        e = CoalgebraBundle(3, (), {1: 20, 2: 190, 3: 1}, {2: s.mu[2]})
        calls = self.spy(monkeypatch)
        shapes = []
        zero = PolyMatrix.zero.__func__

        def spy_zero(cls, rows, cols, nvars):
            shapes.append(cols)
            return zero(cls, rows, cols, nvars)

        monkeypatch.setattr(PolyMatrix, "zero", classmethod(spy_zero))
        rep = check_admissible(e, ORIGIN)
        assert rep.per_degree == {-2: AdmissibilityDegree(190, 190, True, True),
                                  -3: AdmissibilityDegree(0, 1140, False, True)}
        assert calls == {"build": 1, "compute_K": []}
        # the split model below -3 keeps int columns only: no block is allocated
        assert shapes == []
        with pytest.raises(NotAdmissible, match="rank mismatch at degree -3: bundle rank 1, "
                                                "split model rank 1141"):
            splitting_iso(e)

    def test_two_degree_bundles_build_no_splitting(self, monkeypatch):
        calls = self.spy(monkeypatch)
        for e in (split_coalgebra([3, 3]), conjugate_frames(random.Random(2),
                                                            split_coalgebra([2, 1]))):
            assert check_admissible(e, ORIGIN).admissible
        assert calls == {"build": 0, "compute_K": [-2, -2]}


# --- x-dependent admissibility counted from the generators below ------------


def compute_K_spy(monkeypatch):
    """The degrees `check_admissible` calls `compute_K` at, in order."""
    calls = []
    compute = coalgebra.compute_K

    def spy(E, degree):
        calls.append(degree)
        return compute(E, degree)

    monkeypatch.setattr(coalgebra, "compute_K", spy)
    return calls


def x_moved_entries():
    """(bundle, degree) for the n >= 3 `xdep-admissible` bundles at seed 12
    that are admissible, with one entry of a block (j, k), j < k, at a degree
    -i, i >= 3, moved by x1: the mirrored pairs follow the stored block, so
    the swap still fixes every column, but in general coassociativity and
    containment fail at -i."""
    rng = random.Random(71)
    for spec, e in bench_pool("xdep-admissible", 12):
        if e.n < 3 or spec["kind"] == "vanish":
            continue
        i = rng.randint(3, e.n)
        mu = {d: dict(blocks) for d, blocks in e.mu.items()}
        jk = rng.choice([jk for jk in mu[i] if jk[0] < jk[1]])
        m = mu[i][jk]
        rows = [list(row) for row in m.entries]
        r, c = rng.randrange(m.rows), rng.randrange(m.cols)
        rows[r][c] = rows[r][c].add(Poly.var(e.nvars, 0))
        mu[i][jk] = PolyMatrix(m.rows, m.cols, rows, e.nvars)
        yield CoalgebraBundle(e.n, e.base_names, dict(e.ranks), mu), i


def x_symmetry_broken_bundles():
    """The symmetry-broken bundles over x with at most 40 fiber slots, with
    their broken degree."""
    return [(e, broken) for e, broken in symmetry_broken_bundles()
            if not e.is_constant() and sum(e.ranks.values()) <= 40]


class TestXDependentAdmissibility:
    def test_pools_match_the_reference_in_every_point_order(self):
        kinds = Counter()
        for seed in (12, 7012):
            for spec, e in bench_pool("xdep-admissible", seed):
                first, second = spec["points"]
                for points in ([first, second], [second, first], [first], [second]):
                    rep = check_admissible(e, points)
                    assert rep == reference_check_admissible(e, points), (seed, spec, points)
                    kinds[spec["kind"], rep.admissible] += 1
        # a vanish case is admissible at its generic point alone, and only there
        assert set(kinds) == {("pos", True), ("refuse", True), ("vanish", False),
                              ("vanish", True)}, kinds
        assert kinds["vanish", True] == kinds["vanish", False] // 3, kinds

    def test_symmetry_broken_bundles_and_a_frontier_row_match_the_reference(self):
        bundles = [e for e, _ in x_symmetry_broken_bundles()]
        assert len(bundles) == 7
        bundles.append(frontier_bundle((3, 2, 1), 1))
        for e in bundles:
            points = [(Fraction(1),), (Fraction(-2),)]
            assert check_admissible(e, points) == reference_check_admissible(e, points), e

    def test_moved_entries_match_the_reference(self, monkeypatch):
        # the swap holds on every column, so the coassociativity test alone
        # finds the moved degree, and the degrees past it call compute_K
        calls = compute_K_spy(monkeypatch)
        moved = 0
        for e, i in x_moved_entries():
            calls.clear()
            points = [(Fraction(2),) * e.nvars]
            rep = check_admissible(e, points)
            assert rep == reference_check_admissible(e, points), (e, i)
            assert check_coalgebra(e).cocommutative, (e, i)
            if not rep.per_degree[-i].equal:
                moved += 1
                assert all(rep.per_degree[-d].equal for d in range(2, i)), (e, i)
                assert calls == list(range(-i - 1, -e.n - 1, -1)), (e, i, calls)
        assert moved >= 3, moved

    def test_admissible_bundles_build_no_constraint_kernel(self, monkeypatch):
        calls = compute_K_spy(monkeypatch)
        for spec, e in bench_pool("xdep-admissible", 12):
            check_admissible(e, spec["points"])
        assert check_admissible(frontier_bundle((3, 2, 1), 1), [(Fraction(0),)]).admissible
        assert calls == []

    def test_symmetry_broken_bundles_fall_back_past_the_broken_degree(self, monkeypatch):
        calls = compute_K_spy(monkeypatch)
        fell_back = 0
        for e, broken in x_symmetry_broken_bundles():
            calls.clear()
            rep = check_admissible(e, [(Fraction(1),)])
            assert not rep.per_degree[-broken].equal, e
            assert calls == list(range(-broken - 1, -e.n - 1, -1)), (e, broken, calls)
            fell_back += bool(calls)
        assert fell_back >= 3, fell_back


# --- the coalgebra check read off the kept splitting ---------------------------


def moved_entry(rng, e, i, jk):
    """e with one entry of block jk at degree -i moved by 1 or 1/2 (the block
    made from zeros when e stores none)."""
    j, k = jk
    m = e.mu[i].get(jk) or PolyMatrix.zero(e.rank(j) * e.rank(k), e.rank(i), 0)
    rows = [list(row) for row in m.entries]
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    rows[r][c] = rows[r][c].add(Poly.const(0, Fraction(1, rng.choice([1, 2]))))
    mu = {d: dict(blocks) for d, blocks in e.mu.items()}
    mu[i][jk] = PolyMatrix(m.rows, m.cols, rows, 0)
    return CoalgebraBundle(e.n, (), dict(e.ranks), mu)


def single_entry_perturbations():
    """(bundle, place) for n >= 3 split bundles and their conjugates with one
    comultiplication entry moved: in a diagonal block (j, j), which in
    general breaks cocommutativity; in a block at -2, at -3 and at the top
    degree; and the rank-mismatch bundles, half of them with a failing
    containment at the mismatch degree."""
    rng = random.Random(59)
    for profile in [(1, 1, 1), (2, 2, 1), (3, 1, 2), (1, 1, 1, 1), (2, 1, 0, 1),
                    (2, 2, 2), (2, 1, 1, 1), (1, 1, 1, 1, 1)]:
        s = split_coalgebra(list(profile))
        for e in (s, conjugate_frames(rng, s)):
            n = e.n
            diagonal = [(i, (i // 2, i // 2)) for i in range(2, n + 1, 2)
                        if e.rank(i // 2) and e.rank(i)]
            for place, choices in [("diagonal", diagonal)] + [
                    (-i, [(i, (j, i - j)) for j in range(1, i // 2 + 1)
                          if e.rank(j) and e.rank(i - j) and e.rank(i)])
                    for i in sorted({2, 3, n})]:
                if choices:
                    yield moved_entry(rng, e, *rng.choice(choices)), place
    for e, i in mismatch_bundles():
        yield e, ("mismatch", e.splitting().constraint[i][1])


def decided_through(e):
    """The last degree d of the run -2 .. -d that the kept splitting of a
    constant n >= 3 bundle decides: the degrees the walk passed, and the
    rank-mismatch degree when its containment holds."""
    sp = e.splitting()
    d = max(sp.rows)
    return d + 1 if sp.constraint.get(d + 1, (0, False))[1] else d


class TestCoalgebraCheckOffTheSplitting:
    def test_splitting_corpus_matches_the_poly_reference(self):
        kinds = Counter()
        for e in splitting_corpus():
            rep = check_coalgebra(e)
            assert rep == poly_check_coalgebra(e), e
            kinds[rep.ok] += 1
        assert kinds[True] and kinds[False], kinds

    def test_single_entry_perturbations_match_the_poly_reference(self):
        outcomes = Counter()
        for e, place in single_entry_perturbations():
            rep = check_coalgebra(e)
            assert rep == poly_check_coalgebra(e), (e, place)
            outcomes[place, rep.cocommutative, rep.coassociative, decided_through(e) > 1] += 1
        # a moved diagonal or degree -2 entry breaks the swap at -2, where
        # the walk stops; a diagonal entry at -4 can keep every law
        assert outcomes["diagonal", False, False, False] and outcomes[-2, False, False, False]
        assert outcomes["diagonal", True, True, True], outcomes
        # deeper entries leave the decided degrees below them, and the column
        # tests find the coassociativity failure past them
        for place in (-3, -4, -5):
            assert outcomes[place, True, False, True], (place, outcomes)
        assert outcomes[("mismatch", False), True, False, True] == 4, outcomes
        assert outcomes[("mismatch", True), True, True, True] == 2, outcomes

    def spy(self, monkeypatch):
        """The degrees of the columns `apply_mu` and `permute_column` are
        given, and the count of splittings built."""
        calls = {"build": 0, "degrees": []}
        build, apply, permute = (coalgebra.build_splitting, coalgebra.apply_mu,
                                 coalgebra.permute_column)

        def spy_build(E):
            calls["build"] += 1
            return build(E)

        def degree(col):
            return sum(u[0] for u in next(iter(col))) if col else None

        def spy_apply(E, col, pos):
            calls["degrees"].append(degree(col))
            return apply(E, col, pos)

        def spy_permute(col, perm):
            calls["degrees"].append(degree(col))
            return permute(col, perm)

        monkeypatch.setattr(coalgebra, "build_splitting", spy_build)
        monkeypatch.setattr(coalgebra, "apply_mu", spy_apply)
        monkeypatch.setattr(coalgebra, "permute_column", spy_permute)
        return calls

    def test_admissible_bundles_test_no_column(self, monkeypatch):
        from gradman.geometrize import geometrize

        rng = random.Random(61)
        bundles = [e for _, e in bench_pool("split-tower", 11) if e.n >= 3]
        for profile in SPLIT_CORPUS:
            if len(profile) >= 3:
                s = split_coalgebra(list(profile))
                bundles += [s, conjugate_frames(rng, s)]
        calls = self.spy(monkeypatch)
        admissible = 0
        for e in bundles:
            calls["build"] = 0
            calls["degrees"].clear()
            assert check_coalgebra(e).ok and calls["degrees"] == [], e
            if check_admissible(e, ORIGIN).admissible:
                admissible += 1
                geometrize(e)
            assert calls["build"] == 1, e
        # the pool's rank-dropped bundles are coalgebras whose mismatch
        # degree contains its image, so they test no column either
        assert admissible >= 20 and admissible < len(bundles), (admissible, len(bundles))

    def test_columns_are_tested_past_the_decided_degrees(self, monkeypatch):
        calls = self.spy(monkeypatch)
        firsts = Counter()
        for e, place in single_entry_perturbations():
            calls["degrees"].clear()
            check_coalgebra(e)
            first = decided_through(e) + 1
            tested = set(calls["degrees"]) - {None}
            assert all(d >= first for d in tested), (e, place, tested)
            firsts[first, first > e.n] += 1
        assert all(firsts[d, False] for d in (2, 3, 4, 5)), firsts
        assert firsts[4, True] and firsts[5, True], firsts

    def test_q_x_and_two_degree_bundles_keep_the_column_tests(self, monkeypatch):
        x = Poly.var(1, 0)
        bundles = [scaled_bundle(split_coalgebra([2, 2, 1], base_names=("x",)), x),
                   random_poly_bundle(random.Random(67), (2, 1, 1)),
                   split_coalgebra([3, 3]),
                   conjugate_frames(random.Random(67), split_coalgebra([2, 1]))]
        calls = self.spy(monkeypatch)
        for e in bundles:
            calls["degrees"].clear()
            rep = check_coalgebra(e)
            assert rep == poly_check_coalgebra(e) and 2 in calls["degrees"], e
        assert calls["build"] == 0


# --- morphisms built from number rows, split models on int columns ---------


@functools.lru_cache(maxsize=None)
def row_built_bundles():
    """The admissible bundles of both `split-tower` pools and of SPLIT_CORPUS
    with its conjugates, built once for the tests below."""
    rng = random.Random(53)
    bundles = [e for seed in (11, 7011) for _, e in bench_pool("split-tower", seed)]
    for profile in SPLIT_CORPUS:
        s = split_coalgebra(list(profile))
        bundles += [s, conjugate_frames(rng, s)]
    return tuple(e for e in bundles if e.splitting().failure is None)


def row_built_corpus():
    """(bundle, a fresh splitting map) over `row_built_bundles`."""
    return ((e, splitting_iso(e)) for e in row_built_bundles())


def poly_copy(phi):
    """phi as a morphism that holds only Poly matrices."""
    return CoalgebraMorphism(phi.source, phi.target, dict(phi.matrices))


class TestMorphismsFromRows:
    def test_lazy_matrices_equal_the_from_rat_matrices(self):
        from gradman.geometrize import roundtrip

        kinds = Counter()
        for e, phi in row_built_corpus():
            rows = e.splitting().rows
            assert phi.rows is rows and phi._matrices is None
            want = {i: PolyMatrix.from_rat(len(m), len(m), m, e.nvars) for i, m in rows.items()}
            assert phi.matrices == want and phi.matrices is phi.matrices, e
            assert all(phi.matrix(i) is phi.matrices[i] and phi[i] is phi.matrices[i].entries
                       for i in rows)
            if e.split is not None:
                f, psi = roundtrip(e)
                assert psi.rows is rows and psi.target is f and psi.matrices == want, e
            kinds[e.split is not None, e.integer_view().lam > 1] += 1
        assert kinds[True, False] and kinds[False, True] and kinds[False, False], kinds

    def test_morphism_check_reads_the_rows_as_a_poly_copy_reads_its_matrices(self, monkeypatch):
        numbers = []
        read = coalgebra._numbers

        def spy(m):
            numbers.append(m)
            return read(m)

        monkeypatch.setattr(coalgebra, "_numbers", spy)
        for e, phi in row_built_corpus():
            assert morphism_check(phi, e, phi.target), e
            assert phi._matrices is None and numbers == [], e
            assert morphism_check(poly_copy(phi), e, phi.target) and numbers, e
            numbers.clear()

    def test_every_single_entry_perturbation_gets_the_poly_verdict(self):
        broken, fractional = Counter(), 0
        for e, phi in row_built_corpus():
            f = phi.target
            if e.split is None and sum(e.rank(i) ** 2 for i in range(2, e.n + 1)) > 120:
                continue  # the split models of the pools cover the larger ranks
            fractional += any(type(v) is Fraction for m in phi.rows.values() for r in m for v in r)
            for i in range(2, e.n + 1):
                for b, row in enumerate(phi.rows[i]):
                    for c in range(len(row)):
                        rows = dict(phi.rows)
                        rows[i] = [list(r) for r in phi.rows[i]]
                        rows[i][b][c] += 1
                        bad = CoalgebraMorphism.from_rows(e, f, rows)
                        verdict = morphism_check(bad, e, f)
                        assert verdict == morphism_check(poly_copy(bad), e, f), (e, i, b, c)
                        if f.mu_columns(i)[b]:
                            assert not verdict, (e, i, b, c)
                        broken[verdict] += 1
        assert broken[False] and broken[True] and fractional, (broken, fractional)

    def test_row_path_keeps_the_shape_refusal(self):
        phi = splitting_iso(split_coalgebra([2, 1]))
        other = split_coalgebra([3, 1])
        for m in (phi, poly_copy(phi)):
            with pytest.raises(ValueError, match="incompatible shapes"):
                morphism_check(m, other, other)


class TestSplitModelsOnIntColumns:
    def split_models(self):
        rng = random.Random(59)
        for profile in SPLIT_CORPUS:
            for base in ((), ("x",)):
                yield split_coalgebra(list(profile), base_names=base)
            yield splitting_iso(conjugate_frames(rng, split_coalgebra(list(profile)))).target
        yield dvb_coalgebra(2, 1, 1, 3, PolyMatrix.from_rat(2, 3, [[1, 0, 1], [0, 1, 0]], 0), 3)

    def test_blocks_fill_on_first_read_as_the_eager_fill(self):
        for s in self.split_models():
            if s.split is None:  # the DVB bundle keeps the blocks it is given
                assert s._mu is not None
                continue
            assert s._mu is None and s.is_constant(), s
            assert s.mu == eager_split_blocks(s) and s.mu is s.mu, s

    def test_verdicts_on_split_models_fill_no_block(self):
        from gradman.geometrize import geometrize, roundtrip

        for profile in SPLIT_CORPUS[:-1]:
            s = split_coalgebra(list(profile))
            assert check_coalgebra(s).ok and check_admissible(s, ORIGIN).admissible
            chart = geometrize(s)
            f, phi = roundtrip(s)
            assert morphism_check(chart.iso, s, chart.iso.target) and morphism_check(phi, s, f)
            assert [b._mu for b in (s, chart.iso.target, f)] == [None] * 3, profile


def pool_fibers():
    """(x-dependent bundle, point) at each spec's fiber and each of its
    sample points, over both `xdep-admissible` pools."""
    for seed in (12, 7012):
        for spec, e in bench_pool("xdep-admissible", seed):
            for point in [spec["fiber"], *spec["points"]]:
                yield e, point


def fiber_outcome(split, e):
    """The refusal of a fiber splitting, or what it gives: the fiber's lam,
    int and Poly columns, the rows, the split generators and the
    `morphism_check` verdict."""
    try:
        phi = split(e)
    except NotAdmissible as exc:
        return str(exc)
    fiber, view = phi.source, phi.source.integer_view()
    assert all(type(v) is int for i in range(2, fiber.n + 1)
               for col in view.mu_columns(i) for v in col.values())
    columns = {i: (view.mu_columns(i), fiber.mu_columns(i)) for i in range(2, fiber.n + 1)}
    return (fiber.n, fiber.base_names, fiber.ranks, view.lam, columns, phi.rows,
            phi.target.split.gens, morphism_check(phi, fiber, phi.target))


class TestBundlesBuiltFromNumbers:
    def test_fibers_equal_the_reference(self):
        kinds = Counter()
        for e, point in pool_fibers():
            got = fiber_outcome(lambda b: splitting_iso(b, at_point=point), e)
            assert got == fiber_outcome(lambda b: splitting_iso(reference_fiber(b, point)), e)
            kinds["refused" if isinstance(got, str) else got[-1]] += 1
        assert kinds == {True: 336, "refused": 96}, kinds

    def test_fibers_at_fractional_points_equal_the_reference(self):
        lams = Counter()
        for spec, e in bench_pool("xdep-admissible", 12):
            point = [x + Fraction(1, 3) for x in spec["fiber"]]
            got = fiber_outcome(lambda b: splitting_iso(b, at_point=point), e)
            assert got == fiber_outcome(lambda b: splitting_iso(reference_fiber(b, point)), e)
            lams["refused" if isinstance(got, str) else got[3] > 1] += 1
        assert lams[True], lams  # Poly columns read from int columns over lam > 1

    def test_a_point_of_the_wrong_length_is_refused(self):
        for _, e in bench_pool("xdep-admissible", 12)[:12]:
            for point in ([Fraction(1)] * (e.nvars - 1), [Fraction(1)] * (e.nvars + 1)):
                with pytest.raises(ValueError, match="point has wrong length"):
                    splitting_iso(e, at_point=point)

    def test_a_fiber_builds_no_poly_matrix(self, monkeypatch):
        cases = list(pool_fibers())  # the pools build their blocks before the spies go in
        from_rat, init, built = PolyMatrix.from_rat, PolyMatrix.__init__, []

        def spy_from_rat(*args):
            built.append("from_rat")
            return from_rat(*args)

        def spy_init(self, *args):
            built.append("init")
            init(self, *args)

        monkeypatch.setattr(PolyMatrix, "from_rat", spy_from_rat)
        monkeypatch.setattr(PolyMatrix, "__init__", spy_init)
        refused = 0
        for e, point in cases:
            try:
                phi = splitting_iso(e, at_point=point)
            except NotAdmissible:
                refused += 1
                continue
            assert phi.source._mu is None and phi.source._constant, (e, point)
        assert built == [] and refused == 96

    def test_a_fiber_splitting_builds_no_poly_constant(self, monkeypatch):
        # no bundle builds a Poly one it does not read: at each spec's fiber
        # of the seed-12 pool the fiber, the split model and their integer
        # views are read as ints (288 Poly.const calls when each bundle
        # built one, four per splitting)
        cases = bench_pool("xdep-admissible", 12)
        const, calls = Poly.const.__func__, []
        monkeypatch.setattr(Poly, "const",
                            classmethod(lambda cls, *a: calls.append(a) or const(cls, *a)))
        refused = 0
        for spec, e in cases:
            try:
                splitting_iso(e, at_point=spec["fiber"])
            except NotAdmissible:
                refused += 1
        assert calls == [] and (len(cases), refused) == (72, 24)

    def test_split_model_truncations_equal_the_reference(self, monkeypatch):
        zeros, scans = [], []
        zero, scan = PolyMatrix.zero, PolyMatrix.is_constant

        def spy_zero(*args):
            zeros.append(args)
            return zero(*args)

        def spy_scan(self):
            scans.append(self)
            return scan(self)

        levels = 0
        for profile in SPLIT_CORPUS:
            for base, points in (((), ORIGIN), (("x",), [[Fraction(2)]])):
                for k in range(len(profile) + 1):
                    s = split_coalgebra(list(profile), base_names=base)
                    with monkeypatch.context() as m:
                        m.setattr(PolyMatrix, "zero", spy_zero)
                        m.setattr(PolyMatrix, "is_constant", spy_scan)
                        t = truncate(s, k)
                    assert zeros == [] and scans == [], (profile, base, k)
                    assert t._constant and t._integer_view is not None and t._mu is None
                    r = reference_truncate(split_coalgebra(list(profile), base_names=base), k)
                    assert (t.n, t.base_names, t.ranks) == (r.n, r.base_names, r.ranks)
                    assert (t.split.gens, t.split.monomials) == (r.split.gens, r.split.monomials)
                    assert t.integer_view().lam == r.integer_view().lam == 1
                    for i in range(2, k + 1):
                        assert t.mu_columns(i) == r.mu_columns(i), (profile, base, k, i)
                        assert t.integer_view().mu_columns(i) == r.integer_view().mu_columns(i)
                    assert t.mu == r.mu, (profile, base, k)
                    assert check_admissible(t, points) == check_admissible(r, points)
                    levels += 1
        assert levels == 2 * sum(len(p) + 1 for p in SPLIT_CORPUS)
