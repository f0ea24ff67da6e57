"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS/FAIL line.  Run with `pytest -s` to see the
lines as the suite executes.
"""

import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest

from gradman.cli import main, parse_document, pretty_print
from gradman.coalgebra import (
    check_admissible,
    check_coalgebra,
    compute_K,
    dvb_coalgebra,
    morphism_check,
    split_coalgebra,
    wedge_coalgebra,
)
from gradman.distrib import (
    frobenius_normal_form,
    is_involutive,
    make_distribution,
    single_field_normal_form,
)
from gradman.errors import HypothesisFailed
from gradman.exactnum import Poly, PolyMatrix, rat_rank, rank_generic
from gradman.fields import (
    VectorField,
    _mu_entry,
    all_coords,
    base_coord,
    bracket,
    gen_coord,
    is_homological,
    homological_witness,
    tangent_at,
)
from gradman.geometrize import geometrize, roundtrip
from gradman.gradedring import (
    GradedFunction,
    GradedSignature,
    monomials_of_degree,
    normalize,
)
from randchart import (
    SPLIT_CORPUS,
    compose_morphisms,
    flatten_back_corpus,
    full_mu,
    invert_chart_map,
    is_identity_shaped,
    morphism_inverse,
    partition_count,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
ORIGIN = [()]


def report(num, name, ok):
    tag = f"{num:02d}" if isinstance(num, int) else num
    print(f"ACCEPTANCE {tag} {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, f"criterion {tag}: {name}"


def bundle_corpus():
    bundles = [split_coalgebra(list(p)) for p in SPLIT_CORPUS[:8]]
    bundles.append(wedge_coalgebra(2, 2))
    bundles.append(wedge_coalgebra(3, 3))
    bundles.append(dvb_coalgebra(2, 2, 0, 4, PolyMatrix.identity(4, 0), 2))
    return bundles


def test_criterion_01_koszul_sign_oracle():
    sig = GradedSignature(3, (), [("a", "b"), ("u", "v"), ("w",)], max_degree=30)

    def bubble(word):
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

    gens = sig.gen_ids()
    ok = True
    total = 0
    for length in range(0, 7):
        for word in itertools.product(gens, repeat=length):
            if normalize(sig, word) != bubble(word):
                ok = False
            total += 1
    ok = ok and total == sum(5**k for k in range(7))
    report(1, "Koszul sign matches the adjacent-transposition oracle", ok)


def test_criterion_02_graded_ring_laws():
    sig = GradedSignature(2, ("x", "y"), [("e1", "e2"), ("p",)])
    rng = random.Random(2024)

    def rand_coeff():
        return Poly(2, {
            (rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-4, 4) or 1)
        })

    def rand_hom(degree):
        words = monomials_of_degree(sig.gen_ids(), degree)
        f = GradedFunction.zero(sig)
        for _ in range(rng.randint(1, 2)):
            f = f.add(GradedFunction.monomial(sig, words[rng.randrange(len(words))], rand_coeff()))
        return f

    def rand_any():
        f = GradedFunction.zero(sig)
        for _ in range(rng.randint(1, 3)):
            f = f.add(rand_hom(rng.randint(0, 2)))
        return f

    ok = True
    for _ in range(500):
        df, dg = rng.randint(0, 3), rng.randint(0, 3)
        f, g = rand_hom(df), rand_hom(dg)
        if f.mul(g) != g.mul(f).scale((-1) ** (df * dg)):
            ok = False
    for _ in range(500):
        f, g, h = rand_any(), rand_any(), rand_any()
        if f.mul(g).mul(h) != f.mul(g.mul(h)):
            ok = False
    report(2, "graded commutativity and associativity on 500+ random cases", ok)


def test_criterion_03_bracket_laws():
    sig = GradedSignature(3, ("x",), [("e1", "e2"), ("p",), ("q",)])
    rng = random.Random(333)

    def rand_field(degree):
        actions = {}
        for c in all_coords(sig):
            target = (0 if c[0] == "x" else c[1][0]) + degree
            if target < 0 or rng.random() < 0.5:
                continue
            words = monomials_of_degree(sig.gen_ids(), target)
            if not words:
                continue
            coeff = Poly(1, {(rng.randint(0, 1),): Fraction(rng.randint(-3, 3) or 1)})
            f = GradedFunction.monomial(sig, words[rng.randrange(len(words))], coeff)
            if not f.is_zero():
                actions[c] = f
        return VectorField(sig, degree, actions)

    def sgn(a, b):
        return -1 if (a * b) % 2 else 1

    ok = True
    for _ in range(200):
        degs = [rng.choice([-3, -2, -1, 0, 1]) for _ in range(3)]
        x, y, z = (rand_field(d) for d in degs)
        if bracket(x, y) != bracket(y, x).scale(-sgn(degs[0], degs[1])):
            ok = False
        t1 = bracket(x, bracket(y, z)).scale(sgn(degs[0], degs[2]))
        t2 = bracket(y, bracket(z, x)).scale(sgn(degs[1], degs[0]))
        t3 = bracket(z, bracket(x, y)).scale(sgn(degs[2], degs[1]))
        if not t1.add(t2).add(t3).is_zero():
            ok = False
    report(3, "graded antisymmetry and Jacobi on 200 random triples", ok)


def test_criterion_04_split_corpus():
    ok = True
    for profile in SPLIT_CORPUS:
        e = split_coalgebra(list(profile))
        if not check_coalgebra(e).ok:
            ok = False
        if not check_admissible(e, ORIGIN).admissible:
            ok = False
        for i in range(2, len(profile) + 1):
            degrees = [d + 1 for d, r in enumerate(profile)
                       for _ in range(r) if d + 1 <= i - 1]
            if compute_K(e, -i).dim != partition_count(degrees, i):
                ok = False
    report(4, "split corpus: coalgebra laws, admissibility, constraint dims", ok)


def test_criterion_05_admissibility_boundary():
    from gradman.coalgebra import CoalgebraBundle

    zero_mu = CoalgebraBundle(2, (), {1: 2, 2: 1}, {2: {}})
    rep = check_admissible(zero_mu, ORIGIN)
    deg = rep.per_degree[-2]
    ok = (not rep.admissible) and deg.im_rank == 0 and deg.k_rank == 1

    w = wedge_coalgebra(3, 3)
    rep3 = check_admissible(w, ORIGIN)
    ok = ok and rep3.admissible and rep3.per_degree[-3].im_rank == 1
    # independent check of the top constraint rank via the preimage of the
    # alternating cube under (Id (x) mu)
    pairs = [p for p in w.tensor_basis(2, 3) if p[0][0] == 1]
    triples = w.tensor_basis(3, 3)
    t_index = {t: i for i, t in enumerate(triples)}
    cols = []
    for (u, v) in pairs:
        col = [Fraction(0)] * len(triples)
        for pr, q in w.mu_columns(2)[v[1]].items():
            col[t_index[(u,) + pr]] += q.constant_value()
        cols.append(col)
    alt = []
    for comb in itertools.combinations(range(3), 3):
        vec = [Fraction(0)] * len(triples)
        for perm in itertools.permutations(comb):
            sign = 1
            pl = list(perm)
            for a in range(3):
                for b in range(a + 1, 3):
                    if pl[a] > pl[b]:
                        sign = -sign
            vec[t_index[tuple((1, s) for s in perm)]] += sign
        alt.append(vec)
    rank_w = rat_rank(alt)
    rank_fw = rat_rank([list(c) for c in cols] + alt)
    preimage_dim = len(pairs) - (rank_fw - rank_w)
    ok = ok and preimage_dim == rep3.per_degree[-3].k_rank == 1
    report(5, "admissibility boundary: zero-mu fails, rank-3 wedge passes", ok)


def test_criterion_06_geometrization_roundtrip():
    ok = True
    for e in bundle_corpus():
        f, phi = roundtrip(e)
        if not morphism_check(phi, e, f):
            ok = False
        try:
            inv = morphism_inverse(phi)
            if not is_identity_shaped(compose_morphisms(inv, phi)):
                ok = False
        except ValueError:
            ok = False
        chart = geometrize(e)
        degrees = [d for d, _ in chart.iso.target.split.gens]
        for level in range(0, e.n + 2):
            if chart.dimension_of_degree(level) != partition_count(degrees, level):
                ok = False
    report(6, "reconstruction isomorphism and quotient dimensions on the corpus", ok)


def test_criterion_07_compatible_derivation_dimension():
    ok = True
    for e in bundle_corpus():
        n = e.n
        chart = geometrize(e)
        # coordinate-action ansatz with constant coefficients: the degree -n
        # constant fields are spanned by the top chart coordinate fields
        ansatz_dim = chart.sig.rank(n)
        # multiplicativity constraints on a constant top-degree functional
        rows = []
        for i in range(1, n):
            j = n - i
            for a in range(e.rank(i)):
                for b in range(e.rank(j)):
                    rows.append([
                        _mu_entry(e, i, j, a, b, c).constant_value()
                        for c in range(e.rank(n))
                    ])
        compat_dim = e.rank(n) - (rat_rank(rows) if rows else 0)
        kernel_dim = e.rank(n) - rank_generic(full_mu(e, n))
        if not (ansatz_dim == compat_dim == kernel_dim):
            ok = False
    report(7, "degree -n fields biject with the top comultiplication kernel", ok)


def test_criterion_08_equal_tangents_regression():
    sig = GradedSignature(1, ("x",), [("e",)])
    x = VectorField.coordinate_field(sig, base_coord(0))
    e_fn = GradedFunction.from_gen(sig, (1, 0))
    y = x.add(VectorField.coordinate_field(sig, gen_coord((1, 0))).scale(e_fn))
    ok = all(
        tangent_at(x, [p]).components == tangent_at(y, [p]).components
        for p in range(10)
    )
    ok = ok and x != y
    report(8, "distinct fields share tangent vectors at ten points", ok)


def test_criterion_09_involutivity_regression():
    sig = GradedSignature(2, (), [("e",), ("p",)])
    d_flat = VectorField.coordinate_field(sig, gen_coord((1, 0)))
    e_fn = GradedFunction.from_gen(sig, (1, 0))
    d_shift = d_flat.add(VectorField.coordinate_field(sig, gen_coord((2, 0))).scale(e_fn))
    rep_flat = is_involutive(make_distribution([d_flat], ORIGIN))
    rep_shift = is_involutive(make_distribution([d_shift], ORIGIN))
    expected_witness = VectorField.coordinate_field(sig, gen_coord((2, 0))).scale(2)
    ok = rep_flat.involutive and not rep_shift.involutive
    ok = ok and rep_shift.witness == expected_witness
    report(9, "one-generator distributions: involutive vs obstructed with witness", ok)


def test_criterion_10_frobenius_stage_a():
    sig = GradedSignature(2, (), [("e1", "e2"), ("ph",)])
    e1 = GradedFunction.from_gen(sig, (1, 0))
    e2 = GradedFunction.from_gen(sig, (1, 1))
    ph = GradedFunction.from_gen(sig, (2, 0))
    y = VectorField.coordinate_field(sig, gen_coord((1, 0))).add(
        VectorField.coordinate_field(sig, gen_coord((2, 0))).scale(e2)
    )
    chart = frobenius_normal_form(make_distribution([y], ORIGIN))
    ok = chart.span_preserved and chart.inverse_ok
    ok = ok and chart.new_in_old.image(gen_coord((2, 0))) == ph.sub(e1.mul(e2))
    ok = ok and chart.flattened == [gen_coord((1, 0))]

    # randomized flatten-backs of triangular perturbations of flat distributions
    for dist in flatten_back_corpus(random.Random(777), 20):
        ch = frobenius_normal_form(dist)
        ref = invert_chart_map(ch.new_in_old)
        if not (ch.span_preserved and ch.inverse_ok):
            ok = False
        if (ch.old_in_new.base, ch.old_in_new.gens) != (ref.base, ref.gens):
            ok = False
    report(10, "stage A example plus twenty randomized flatten-backs", ok)


def test_criterion_11_single_field_normal_form():
    sig = GradedSignature(2, (), [("e1", "e2"), ("ph",)])
    e2 = GradedFunction.from_gen(sig, (1, 1))
    x = VectorField.coordinate_field(sig, gen_coord((1, 0))).add(
        VectorField.coordinate_field(sig, gen_coord((2, 0))).scale(e2)
    )
    chart = single_field_normal_form(x, GradedFunction.zero(sig), ())
    ok = chart.flattened == [gen_coord((1, 0))] and chart.span_preserved

    bad_sig = GradedSignature(2, (), [("e",), ("p",)])
    e_fn = GradedFunction.from_gen(bad_sig, (1, 0))
    bad = VectorField.coordinate_field(bad_sig, gen_coord((1, 0))).add(
        VectorField.coordinate_field(bad_sig, gen_coord((2, 0))).scale(e_fn)
    )
    try:
        single_field_normal_form(bad, GradedFunction.zero(bad_sig), ())
        ok = False
    except HypothesisFailed:
        pass
    report(11, "square-zero odd field flattens; obstructed field is rejected", ok)


def test_criterion_12a_homological_fields_positive():
    sig = GradedSignature(1, (), [("al", "be")])
    al = GradedFunction.from_gen(sig, (1, 0))
    be = GradedFunction.from_gen(sig, (1, 1))
    q = VectorField(sig, 1, {gen_coord((1, 1)): al.mul(be).neg()})
    ce_ok = is_homological(q)
    # detection coverage on the smallest algebra where a sign flip is visible:
    # one flipped structure sign on three odd generators breaks square-zero
    sig3 = GradedSignature(1, (), [("ee", "ff", "hh")])
    ee = GradedFunction.from_gen(sig3, (1, 0))
    ff = GradedFunction.from_gen(sig3, (1, 1))
    hh = GradedFunction.from_gen(sig3, (1, 2))
    flipped3 = VectorField(sig3, 1, {
        gen_coord((1, 2)): ee.mul(ff).neg(),
        gen_coord((1, 0)): hh.mul(ee).scale(-2),
        gen_coord((1, 1)): hh.mul(ff).scale(-2),
    })
    detection = (not is_homological(flipped3)) and homological_witness(flipped3) is not None
    report("12a", "structure differential passes; a sign flip is detectable", ce_ok and detection)


def test_criterion_12b_homological_fields_two_dim_flip():
    # (a) no false refutation on the bare chart (| al, be): its algebra has
    # no degree-3 part, since a product of three degree-1 odd generators
    # drawn from two repeats one, and Q(Q(c)) has degree 3 for every
    # coordinate c.  So every degree-1 field a*al*be d/dal + b*al*be d/dbe
    # squares to zero, among them (a, b) = (0, -1), the structure
    # differential of [a,b] = b, and its sign flip (0, 1).
    sig = GradedSignature(1, (), [("al", "be")])
    al = GradedFunction.from_gen(sig, (1, 0))
    be = GradedFunction.from_gen(sig, (1, 1))
    albe = al.mul(be)
    bare_ok = True
    for a, b in itertools.product(range(-2, 3), repeat=2):
        q = VectorField(sig, 1, {gen_coord((1, 0)): albe.scale(a),
                                 gen_coord((1, 1)): albe.scale(b)})
        bare_ok = bare_ok and is_homological(q) and homological_witness(q) is None
    # (b) the same two generators over a base coordinate x: the action Lie
    # algebroid of [a,b] = b on the line, rho(a) = -x d/dx, rho(b) = d/dx,
    # has Q(x) = -x*al + be and Q(be) = -al*be.  Then
    # Q^2(x) = -Q(x)*al + Q(be) = al*be + Q(be), which vanishes for the true
    # sign; flipping only Q(be) gives Q^2(x) = 2*al*be, so [Q,Q](x) = 4*al*be.
    sigx = GradedSignature(1, ("x",), [("al", "be")])
    x = GradedFunction.base_var(sigx, 0)
    alx = GradedFunction.from_gen(sigx, (1, 0))
    bex = GradedFunction.from_gen(sigx, (1, 1))
    albex = alx.mul(bex)
    q_x = x.mul(alx).neg().add(bex)
    algebroid = VectorField(sigx, 1, {base_coord(0): q_x,
                                      gen_coord((1, 1)): albex.neg()})
    flipped = VectorField(sigx, 1, {base_coord(0): q_x,
                                    gen_coord((1, 1)): albex})
    expected_witness = VectorField(sigx, 2, {base_coord(0): albex.scale(4)})
    visible_ok = (
        is_homological(algebroid)
        and not is_homological(flipped)
        and homological_witness(flipped) == expected_witness
    )
    report("12b", "sign flip on the two-generator chart fails is_homological",
           bare_ok and visible_ok)


def test_criterion_13_cli_matrix():
    golden = sorted(GOLDEN.glob("*.gm"))
    ok = len(golden) >= 6
    for path in golden:
        doc = parse_document(path.read_text())
        printed = pretty_print(doc)
        if parse_document(printed) != doc:
            ok = False
        if pretty_print(parse_document(printed)) != printed:
            ok = False
    cases = [
        (0, ["involutive", str(GOLDEN / "ex2dis.gm"), "--name", "DD"]),
        (1, ["involutive", str(GOLDEN / "ex2dis.gm"), "--name", "DDp"]),
        (0, ["frobenius", str(GOLDEN / "frobA.gm")]),
        (0, ["check-coalgebra", str(GOLDEN / "wedge22.gm")]),
        (0, ["admissible", str(GOLDEN / "wedge22.gm")]),
        (1, ["admissible", str(GOLDEN / "zeromu.gm")]),
        (0, ["split-iso", str(GOLDEN / "wedge22.gm")]),
        (3, ["split-iso", str(GOLDEN / "xdep.gm")]),
        (3, ["geometrize", str(GOLDEN / "xdep.gm")]),
        (0, ["geometrize", str(GOLDEN / "wedge22.gm")]),
        (0, ["reduce", str(GOLDEN / "wedge22.gm"), "--expr", "E_2_1"]),
        (0, ["bracket", str(GOLDEN / "vftang.gm"), "--fields", "X,Y"]),
        (0, ["tangent", str(GOLDEN / "vftang.gm"), "--field", "Y"]),
        (0, ["qsquare", str(GOLDEN / "qsquare.gm"), "--field", "Q"]),
        (1, ["qsquare", str(GOLDEN / "qsquare.gm"), "--field", "Qbad"]),
        (0, ["roundtrip", str(GOLDEN / "wedge22.gm")]),
        (1, ["roundtrip", str(GOLDEN / "zeromu.gm")]),
        (3, ["frobenius", str(GOLDEN / "nonconst.gm")]),
        (2, ["involutive", str(GOLDEN / "ex2dis.gm")]),
        (2, ["involutive", "/nonexistent.gm"]),
    ]
    for expected, argv in cases:
        got = main(argv + ["--format=json"])
        if got != expected:
            ok = False
    report(13, "CLI reachability, golden round trips, exit-code conformance", ok)
