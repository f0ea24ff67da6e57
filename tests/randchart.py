"""Shared randomized corpus builders for the higher-level tests."""

import importlib
import itertools
import pathlib
import random
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, Optional, Sequence, Tuple

import gradman
from gradman.coalgebra import (
    AdmissibilityDegree,
    AdmissibilityReport,
    CoalgebraBundle,
    CoalgebraMorphism,
    CoalgebraReport,
    KSpace,
    SplitData,
    _free_columns,
    _image,
    _variant_pair_columns,
    apply_mu,
    compute_K,
    permute_column,
    push_column,
    split_coalgebra,
)
from gradman.distrib import (
    Distribution,
    FrobeniusChart,
    _euclid_pivot,
    _linear_base,
    _unimodular_alignment,
    graded_antiderivative,
    is_involutive,
    make_distribution,
    membership,
)
from gradman.errors import (
    DegreeMismatch,
    DegreeOverflow,
    DvbNotExact,
    HypothesisFailed,
    NonConstantSymbols,
    NonPolynomialFlatFrame,
    NotAdmissible,
    NotInvolutive,
    SignatureMismatch,
    UnknownGenerator,
    UnsupportedXDependence,
)
from gradman.exactnum import (
    Poly,
    PolyMatrix,
    accumulate,
    kernel_basis,
    poly_inverse,
    primitive_vector,
    rank_at,
    rank_generic,
    rat_inverse,
    rat_pivots,
    rat_rank,
    rat_rref,
)
from gradman.fields import (
    ChartMap,
    CompatDerivation,
    Coord,
    VectorField,
    _mu_entry,
    all_coords,
    base_coord,
    bracket,
    gen_coord,
    linearly_independent,
    transform_field,
)
from gradman.geometrize import ChartAlgebra
from gradman.gradedring import (
    GenId,
    Gens,
    GradedFunction,
    GradedSignature,
    _gf,
    dim_symmetric_component,
    koszul_sort,
    monomials_of_degree,
    normalize,
)

CHART_PROFILES = [
    [("e1", 1), ("e2", 1)],
    [("e1", 1), ("e2", 1), ("p", 2)],
    [("e1", 1), ("p", 2)],
    [("e1", 1), ("e2", 1), ("p", 2), ("q", 3)],
]


# split rank profiles: rank r at position d means r generators of degree d + 1
SPLIT_CORPUS = [
    (1,),
    (3,),
    (2, 1),
    (3, 3),
    (1, 2),
    (2, 2, 1),
    (1, 1, 1),
    (3, 1, 2),
    (3, 3, 3),
    (1, 1, 1, 1),
    (2, 1, 0, 1),
    (2, 2, 2, 2),
    (3, 3, 3, 3),
]


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


def rat_mat_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def span_rank(columns, nvars: int) -> int:
    """Generic rank of the span of polynomial column vectors."""
    rows = list(columns)
    return rank_generic(PolyMatrix(len(rows), len(rows[0]) if rows else 0, rows, nvars))


def gen_map_with(sig: GradedSignature, overrides: Dict[GenId, GradedFunction]):
    out = {g: GradedFunction.from_gen(sig, g) for g in sig.gen_ids()}
    out.update(overrides)
    return out


def reference_mul(self: GradedFunction, other: GradedFunction) -> GradedFunction:
    """`GradedFunction.mul` as it was before products merged canonical words:
    every pair of words is checked and re-sorted by `normalize`."""
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
    return _gf(sig, terms)


def reference_substitute(self: GradedFunction, target: GradedSignature,
                         base_map: Sequence[GradedFunction],
                         gen_map: Dict[GenId, GradedFunction]) -> GradedFunction:
    """`GradedFunction.substitute` as it was before coefficients composed
    through `Poly.compose`: each exponent of each coefficient multiplies in
    its base image by one graded product."""
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


def full_substitute(m: ChartMap, f: GradedFunction) -> GradedFunction:
    """`m.apply_to(f)` with every coordinate substituted, fixed ones too."""
    return f.substitute(m.target, m.base, m.gens)


def full_after(outer: ChartMap, inner: ChartMap) -> ChartMap:
    """`outer.after(inner)` with every image of outer substituted through inner."""
    return ChartMap(outer.source, inner.target,
                    [full_substitute(inner, f) for f in outer.base],
                    {g: full_substitute(inner, f) for g, f in outer.gens.items()})


def full_transform_field(x: VectorField, new_in_old: ChartMap,
                         old_in_new: ChartMap) -> VectorField:
    """`transform_field` with the field applied to every image and every
    action substituted in full."""
    actions = {}
    for c in all_coords(new_in_old.source):
        val = x.apply(new_in_old.image(c))
        if not val.is_zero():
            actions[c] = full_substitute(old_in_new, val)
    return VectorField(old_in_new.target, x.degree, actions)


def full_is_identity(m: ChartMap) -> bool:
    """`m.is_identity()` by comparison with the identity map of its source."""
    ident = ChartMap.identity(m.source)
    return m.base == ident.base and m.gens == ident.gens


def invert_chart_map(m: ChartMap) -> ChartMap:
    """Inverse of a graded-triangular substitution with affine base part.

    The general reference for the inverses that `frobenius_normal_form`
    builds in closed form for each of its substitution steps.
    The per-degree linear blocks must be invertible over the polynomial ring;
    decomposable corrections involve strictly lower degrees only."""
    sig = m.source
    nv = sig.m0
    # base part: affine with constant coefficients
    smat = [[Poly.zero(nv) for _ in range(nv)] for _ in range(nv)]
    shift = [Fraction(0)] * nv
    for b, f in enumerate(m.base):
        body = f.body()
        if f.terms and set(f.terms) != {()}:
            raise NonPolynomialFlatFrame("base image mixes in positive-degree terms")
        for exps, c in body.terms.items():
            total = sum(exps)
            if total == 0:
                shift[b] = c
            elif total == 1:
                smat[b][exps.index(1)] = Poly.const(nv, c)
            else:
                raise NonPolynomialFlatFrame("base substitution is not affine")
    s_rat = [[smat[r][c].constant_value() for c in range(nv)] for r in range(nv)]
    try:
        s_inv = rat_inverse(s_rat) if nv else []
    except ValueError:
        raise NonPolynomialFlatFrame("base substitution is singular")
    inv_base = []
    for a in range(nv):
        f = GradedFunction.constant(sig, 0)
        for b in range(nv):
            if s_inv[a][b] != 0:
                f = f.add(GradedFunction.base_var(sig, b).scale(s_inv[a][b]))
        total_shift = sum((s_inv[a][b] * shift[b] for b in range(nv)), Fraction(0))
        f = f.sub(GradedFunction.constant(sig, total_shift))
        inv_base.append(f)
    base_subs = [f.body() for f in inv_base]

    inv_gens: Dict[GenId, GradedFunction] = {}
    for degree in range(1, sig.n + 1):
        gens = [(degree, t) for t in range(sig.rank(degree))]
        if not gens:
            continue
        # split each image into a same-degree linear part and lower corrections
        lin = [[Poly.zero(nv) for _ in gens] for _ in gens]
        corr = []
        for col, g in enumerate(gens):
            img = m.gens[g]
            c_fun = GradedFunction.zero(sig)
            for w, coeff in img.terms.items():
                if len(w) == 1 and w[0][0] == degree:
                    lin[w[0][1]][col] = coeff
                else:
                    c_fun = c_fun.add(GradedFunction(sig, {w: coeff}))
            corr.append(c_fun)
        lmat = PolyMatrix(len(gens), len(gens), lin, nv)
        # rewrite the linear block over the new base coordinates
        lmat_new = lmat.map_entries(lambda p: p.compose(base_subs))
        linv = poly_inverse(lmat_new)
        if linv is None:
            raise NonPolynomialFlatFrame(
                f"degree {degree} linear block has no polynomial inverse"
            )
        # corrections involve strictly lower degrees: rewrite through the
        # already inverted coordinates
        rewritten = [
            c.substitute(sig, inv_base, gen_map_with(sig, inv_gens)) for c in corr
        ]
        # new = transpose(L) . old + corr, so old = transpose(inverse(L)) . (new - corr)
        for row, g in enumerate(gens):
            f = GradedFunction.zero(sig)
            for col, g2 in enumerate(gens):
                p = linv.entries[col][row]
                if p.is_zero():
                    continue
                term = GradedFunction.from_gen(sig, g2).sub(rewritten[col])
                f = f.add(term.scale(p))
            inv_gens[g] = f
    out = ChartMap(sig, sig, inv_base, gen_map_with(sig, inv_gens))
    if not m.after(out).is_identity() or not out.after(m).is_identity():
        raise NonPolynomialFlatFrame("substitution inverse verification failed")
    return out


def random_signature(rng):
    m0 = rng.choice([1, 2])
    names = [f"x{i + 1}" for i in range(m0)]
    profile = rng.choice(CHART_PROFILES)
    by_deg = {}
    for nm, dg in profile:
        by_deg.setdefault(dg, []).append(nm)
    n = max(by_deg)
    return GradedSignature(n, names, [tuple(by_deg.get(i, ())) for i in range(1, n + 1)])


def random_triangular_substitution(rng, sig):
    """Invertible substitution: affine unimodular base part plus graded
    corrections involving strictly earlier coordinates."""
    nv = sig.m0
    while True:
        s = [[Fraction(rng.randint(-2, 2)) for _ in range(nv)] for _ in range(nv)]
        if nv == 0 or rat_rank(s) == nv:
            break
    base = []
    for b in range(nv):
        f = GradedFunction.constant(sig, rng.randint(-1, 1))
        for g_idx in range(nv):
            if s[b][g_idx] != 0:
                f = f.add(GradedFunction.base_var(sig, g_idx).scale(s[b][g_idx]))
        base.append(f)
    gens_map = {}
    ids = sig.gen_ids()
    for pos, g in enumerate(ids):
        img = GradedFunction.from_gen(sig, g)
        for g2 in ids[:pos]:
            if g2[0] == g[0] and rng.random() < 0.5:
                if nv:
                    coeff = Poly.var(nv, 0).scale(rng.randint(-1, 1))
                else:
                    coeff = Poly.const(nv, rng.randint(-2, 2))
                img = img.add(GradedFunction.monomial(sig, (g2,), coeff))
        for w in [w for w in monomials_of_degree(ids, g[0]) if len(w) > 1]:
            if rng.random() < 0.4:
                c = Fraction(rng.randint(-2, 2))
                if c == 0:
                    continue
                if nv:
                    coeff = Poly(nv, {tuple(rng.randint(0, 1) for _ in range(nv)): c})
                else:
                    coeff = Poly.const(nv, c)
                img = img.add(GradedFunction.monomial(sig, w, coeff))
        gens_map[g] = img
    return ChartMap(sig, sig, base, gens_map)


def partly_fixed_substitution(rng, sig) -> ChartMap:
    """A `random_triangular_substitution` with about half of its images,
    picked at random, replaced by the identity's."""
    full, ident = random_triangular_substitution(rng, sig), ChartMap.identity(sig)
    keep = {c for c in all_coords(sig) if rng.random() < 0.5}
    pick = [(full if c in keep else ident).image(c) for c in all_coords(sig)]
    return ChartMap(sig, sig, pick[:sig.m0], dict(zip(sig.gen_ids(), pick[sig.m0:])))


def rand_function(rng, sig):
    """A chart function of mixed degree up to 3, often with a constant term."""
    words = [w for k in range(4) for w in monomials_of_degree(sig.gen_ids(), k)]
    terms = {(): Poly.const(sig.m0, rng.randint(-2, 2))}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, 2) for _ in range(sig.m0))
        terms[rng.choice(words)] = Poly(sig.m0, {exps: Fraction(rng.randint(-3, 3), rng.randint(1, 2))})
    return GradedFunction(sig, terms)


def assert_as_constructed(m: ChartMap, rng):
    """m has the images, identity verdict and `apply_to` results of the map
    the checking constructor builds from its images, in lists and dicts of
    its own."""
    c = ChartMap(m.source, m.target, m.base, m.gens)
    assert type(m) is ChartMap and type(m.base) is list and type(m.gens) is dict
    assert (m.source, m.target, m.base, m.gens) == (c.source, c.target, c.base, c.gens)
    assert m.is_identity() == c.is_identity()
    for _ in range(3):
        f = rand_function(rng, m.source)
        assert m.apply_to(f) == c.apply_to(f)


def conjugate_frames(rng, e):
    """Transport a constant comultiplication through random invertible frame
    changes per degree: an admissible bundle that is no longer split-presented."""
    n = e.n
    ps = {}
    for i in range(1, n + 1):
        r = e.rank(i)
        while True:
            m = [[Fraction(rng.randint(-2, 2)) for _ in range(r)] for _ in range(r)]
            if r == 0 or rat_rank(m) == r:
                break
        ps[i] = m
    mu = {}
    for i in range(2, n + 1):
        pairs = e.tensor_basis(2, i)
        full = full_mu(e, i).to_rat()
        p_inv = rat_inverse(ps[i]) if ps[i] else []
        pindex = {p: t for t, p in enumerate(pairs)}
        tsq = [[Fraction(0)] * len(pairs) for _ in range(len(pairs))]
        for cidx, ((j, a), (k, b)) in enumerate(pairs):
            for ap in range(e.rank(j)):
                if ps[j][ap][a] == 0:
                    continue
                for bp in range(e.rank(k)):
                    if ps[k][bp][b] == 0:
                        continue
                    tsq[pindex[((j, ap), (k, bp))]][cidx] += ps[j][ap][a] * ps[k][bp][b]
        new_full = rat_mat_mul(rat_mat_mul(tsq, full), p_inv)
        blocks = {}
        for jj in range(1, i // 2 + 1):
            kk = i - jj
            if e.rank(jj) == 0 or e.rank(kk) == 0:
                continue
            m = PolyMatrix.zero(e.rank(jj) * e.rank(kk), e.rank(i), 0)
            for a in range(e.rank(jj)):
                for b in range(e.rank(kk)):
                    row = pindex[((jj, a), (kk, b))]
                    for c in range(e.rank(i)):
                        m.entries[a * e.rank(kk) + b][c] = Poly.const(0, new_full[row][c])
            if not m.is_zero():
                blocks[(jj, kk)] = m
        mu[i] = blocks
    return CoalgebraBundle(n, (), dict(e.ranks), mu)


def random_flat_coords(rng, sig):
    flats = [base_coord(a) for a in range(rng.randint(0, min(1, sig.m0)))]
    for i in range(1, sig.n + 1):
        flats += [gen_coord((i, t)) for t in range(rng.randint(0, sig.rank(i)))]
    return flats


def flat_fields(sig, flats):
    return [VectorField.coordinate_field(sig, c) for c in flats]


def flatten_back_corpus(rng, count):
    """`count` flat distributions pushed through random triangular
    substitutions, independent at two random points."""
    done = 0
    while done < count:
        rsig = random_signature(rng)
        flats = random_flat_coords(rng, rsig)
        if not flats:
            continue
        fields = flat_fields(rsig, flats)
        sub = random_triangular_substitution(rng, rsig)
        try:
            inv = invert_chart_map(sub)
        except Exception:
            continue
        moved = [transform_field(f, sub, inv) for f in fields]
        points = [tuple(Fraction(rng.randint(-1, 1)) for _ in range(rsig.m0)),
                  tuple(Fraction(rng.randint(-2, 2)) for _ in range(rsig.m0))]
        if not linearly_independent(moved, points):
            continue
        yield make_distribution(moved, points, sig=rsig)
        done += 1


def elementary_frame(rng, n: int, nv: int) -> PolyMatrix:
    """Det-1 product of one to three elementary matrices I + c x^k E_ij."""
    f = PolyMatrix.identity(n, nv)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        e = PolyMatrix.identity(n, nv)
        exps = tuple(rng.randint(0, 2 if a == 0 else 1) for a in range(nv))
        e.entries[i][j] = Poly(nv, {exps: rng.choice([-2, -1, 1, 2])})
        f = f.mul(e)
    return f


def connection_field(sig, symbol: list, conn: PolyMatrix, p_action=None) -> VectorField:
    """Degree-0 field acting on x_a by the constant symbol[a], on e_j by the
    sum over i of conn[i][j] e_i, and on the degree-2 coordinate by
    `p_action` when given."""
    actions = {base_coord(a): GradedFunction.constant(sig, c) for a, c in enumerate(symbol)}
    for j in range(conn.cols):
        actions[gen_coord((1, j))] = GradedFunction(
            sig, {((1, i),): conn.entries[i][j] for i in range(conn.rows)})
    if p_action is not None:
        actions[gen_coord((2, 0))] = p_action
    return VectorField(sig, 0, actions)


def stage_c_corpus(rng, count):
    """Degree-0 fields d/dx_a + A_a with A_a = -(d_a F) F^-1 for a random
    det-1 elementary product F over one or two base variables, so that the
    flat frame is polynomial; with two fields, sometimes a constant
    recombination of them, and sometimes a degree-2 coordinate that one
    field moves into the odd products.  One case in four perturbs a
    connection entry, which may break involutivity or give a frame that is
    not polynomial."""
    for _ in range(count):
        nv, n = rng.choice([1, 2]), rng.choice([2, 3])
        names = [tuple(f"e{t + 1}" for t in range(n))] + ([("p",)] if rng.random() < 0.5 else [])
        sig = GradedSignature(len(names), [f"x{a + 1}" for a in range(nv)], names)
        f = elementary_frame(rng, n, nv)
        finv = poly_inverse(f)
        d0 = rng.randint(1, nv)
        conns = [f.map_entries(lambda q: q.derivative(a)).mul(finv).scale(-1) for a in range(d0)]
        if rng.random() < 0.25:
            a, i, j = rng.randrange(d0), rng.randrange(n), rng.randrange(n)
            bump = Poly(nv, {tuple(rng.randint(0, 1) for _ in range(nv)): rng.choice([-1, 1])})
            conns[a].entries[i][j] = conns[a].entries[i][j].add(bump)
        p_action = None
        if sig.n == 2 and d0 == 1:
            e = [GradedFunction.from_gen(sig, (1, t)) for t in range(2)]
            p_action = e[0].mul(e[1]).scale(Poly(nv, {(rng.randint(0, 2),) + (0,) * (nv - 1): 1}))
        fields = [connection_field(sig, [int(b == a) for b in range(nv)], c, p_action)
                  for a, c in enumerate(conns)]
        if d0 == 2 and rng.random() < 0.5:
            fields[0] = fields[0].add(fields[1].scale(rng.choice([-1, 2])))
        yield make_distribution(fields, [tuple(Fraction(rng.randint(-2, 2)) for _ in range(nv))],
                                sig=sig)


def reference_dvb_coalgebra(rk_a: int, rk_b: int, rk_c: int, rk_omega: int,
                            phi: PolyMatrix, n: int,
                            base_names: Sequence[str] = ()) -> CoalgebraBundle:
    """Bundle built from a double-vector-bundle sequence 0 -> C -> Omega -> A(x)B -> 0.

    The direct construction with its own wedge bases and sign bookkeeping,
    kept as the reference for `dvb_coalgebra`, which edits the split model.

    `phi` maps the Omega frame to A tensor B (rows ordered (a, b) row-major).
    Raises when the claimed sequence cannot be exact.
    """
    if n < 2:
        raise ValueError("needs degree bound n >= 2")
    if phi.rows != rk_a * rk_b or phi.cols != rk_omega:
        raise DvbNotExact("phi has the wrong shape for the declared ranks")
    if rk_omega != rk_c + rk_a * rk_b:
        raise DvbNotExact("rank bookkeeping fails: rk Omega != rk C + rk A * rk B")
    if rank_generic(phi) != rk_a * rk_b:
        raise DvbNotExact("phi is not generically surjective")
    nv = len(base_names)

    def wedge_words(count, length):
        return list(itertools.combinations(range(count), length))

    # fiber bases per degree
    bases: Dict[int, list] = {}
    for i in range(1, n + 1):
        items: list = []
        if n == 2:
            if i == 1:
                items = [("A", (s,)) for s in range(rk_a)] + [("B", (t,)) for t in range(rk_b)]
            else:
                items = (
                    [("wA", w) for w in wedge_words(rk_a, 2)]
                    + [("Om", (m,)) for m in range(rk_omega)]
                    + [("wB", w) for w in wedge_words(rk_b, 2)]
                )
        else:
            if i <= n - 2:
                items = [("wA", w) for w in wedge_words(rk_a, i)]
            elif i == n - 1:
                items = [("wA", w) for w in wedge_words(rk_a, i)] + [("B", (t,)) for t in range(rk_b)]
            else:
                items = [("wA", w) for w in wedge_words(rk_a, i)] + [("Om", (m,)) for m in range(rk_omega)]
        bases[i] = items
    ranks = {i: len(bases[i]) for i in range(1, n + 1)}
    index = {i: {item: t for t, item in enumerate(bases[i])} for i in range(1, n + 1)}

    def letter_word(item):
        """Word of degree-1 letters for pure wedge items; A and B letters are
        kept apart by tagging B letters past the A range."""
        kind, data = item
        if kind == "wA":
            return tuple((1, s) for s in data)
        if kind == "A":
            return ((1, data[0]),)
        if n == 2 and kind == "B":
            return ((1, rk_a + data[0]),)
        if n == 2 and kind == "wB":
            return tuple((1, rk_a + s) for s in data)
        return None

    mu: Dict[int, Dict[Tuple[int, int], PolyMatrix]] = {}
    for i in range(2, n + 1):
        blocks: Dict[Tuple[int, int], PolyMatrix] = {}
        for j in range(1, i // 2 + 1):
            k = i - j
            if ranks[j] == 0 or ranks[k] == 0:
                continue
            m = PolyMatrix.zero(ranks[j] * ranks[k], ranks[i], nv)
            blocks[(j, k)] = m
        # wedge-dual part on the pure wedge columns
        for c, item in enumerate(bases[i]):
            wa = letter_word(item)
            if wa is None:
                continue
            for j in range(1, i // 2 + 1):
                k = i - j
                for a, ia in enumerate(bases[j]):
                    u = letter_word(ia)
                    if u is None or len(u) != j:
                        continue
                    for b, ib in enumerate(bases[k]):
                        v = letter_word(ib)
                        if v is None or len(v) != k:
                            continue
                        sign, canon = koszul_sort(u + v)
                        if sign == 0 or canon != wa:
                            continue
                        blocks[(j, k)].entries[a * ranks[k] + b][c] = Poly.const(nv, sign)
        # phi part on the Omega columns of degree -n
        if i == n:
            for c, item in enumerate(bases[n]):
                kind, data = item
                if kind != "Om":
                    continue
                mcol = data[0]
                jb = n - 1  # degree of the factor carrying B
                block = blocks.get((1, jb))
                if block is None:
                    block = PolyMatrix.zero(ranks[1] * ranks[jb], ranks[n], nv)
                    blocks[(1, jb)] = block
                for s in range(rk_a):
                    for t in range(rk_b):
                        entry = phi.entries[s * rk_b + t][mcol]
                        if entry.is_zero():
                            continue
                        if n == 2:
                            a_idx = index[1][("A", (s,))]
                            b_idx = index[1][("B", (t,))]
                            # symmetrized image: a (x) b - b (x) a for odd a, b
                            block.entries[a_idx * ranks[1] + b_idx][c] = (
                                block.entries[a_idx * ranks[1] + b_idx][c].add(entry)
                            )
                            block.entries[b_idx * ranks[1] + a_idx][c] = (
                                block.entries[b_idx * ranks[1] + a_idx][c].sub(entry)
                            )
                        else:
                            a_idx = index[1][("wA", (s,))]
                            b_idx = index[jb][("B", (t,))]
                            block.entries[a_idx * ranks[jb] + b_idx][c] = (
                                block.entries[a_idx * ranks[jb] + b_idx][c].add(entry)
                            )
        mu[i] = {bk: bm for bk, bm in blocks.items() if not bm.is_zero()}
    return CoalgebraBundle(n, base_names, ranks, mu)


def dense_vectors(ks: KSpace, nvars: int) -> list:
    """`KSpace.vectors` as dense Poly lists over the pair basis, the form
    `compute_K` returned before it kept sparse dicts: an int coefficient
    becomes `Poly.const(nvars, c)`, and a missing position the zero Poly."""
    return [[c if isinstance(c, Poly) else Poly.const(nvars, c)
             for c in (vec.get(t, 0) for t in range(len(ks.pair_basis)))]
            for vec in ks.vectors]


def reference_compute_K(E: CoalgebraBundle, degree: int) -> KSpace:
    """Constraint space at the given negative degree, on Polys throughout.

    The `compute_K` body as it was before constant bundles ran on ints, kept
    as the reference for both of its paths: every column, difference, image
    and basis vector is a Poly, and every constraint matrix goes to
    `kernel_basis`.
    """
    if not (-(E.n + 1) <= degree <= -2):
        raise ValueError("degree out of range for constraint space")
    d = -degree
    pairs = E.tensor_basis(2, d)
    nv = E.nvars
    if not pairs:
        return KSpace(degree, pairs, [], True)
    index = {p: t for t, p in enumerate(pairs)}
    mu_vecs = [[(index[p], c) for p, c in col.items()] for col in E.mu_columns(d)]
    contains = True
    basis = []
    for t in range(len(pairs)):
        basis.append([Poly.one(nv) if s == t else Poly.zero(nv) for s in range(len(pairs))])

    for length in range(2, d + 1):
        ref_cols = _variant_pair_columns(E, d, 0, length - 2)
        splits = (_variant_pair_columns(E, d, k, length - 2 - k)
                  for k in range(1, length - 1))
        swaps = ([permute_column(c, (*range(a), a + 1, a, *range(a + 2, length)))
                  for c in ref_cols] for a in range(length - 1))
        for var_cols in itertools.chain(splits, swaps):
            if not basis:
                break
            diffs = [dict(col) for col in var_cols]
            for diff, ref in zip(diffs, ref_cols):
                for T, c in ref.items():
                    accumulate(diff, T, c.neg())
            images = [_image(diffs, enumerate(vec)) for vec in basis]
            tuples_seen = {}
            for img in images:
                for t in img:
                    tuples_seen.setdefault(t, len(tuples_seen))
            if not tuples_seen:
                continue
            if contains:
                contains = not any(_image(diffs, vec) for vec in mu_vecs)
            rows = len(tuples_seen)
            m = PolyMatrix.zero(rows, len(basis), nv)
            for col, img in enumerate(images):
                for t, c in img.items():
                    m.entries[tuples_seen[t]][col] = c
            new_basis = []
            for kv, _ in kernel_basis(m):
                vec = [Poly.zero(nv) for _ in range(len(pairs))]
                for t, coeff in enumerate(kv):
                    if coeff.is_zero():
                        continue
                    for s in range(len(pairs)):
                        if not basis[t][s].is_zero():
                            vec[s] = vec[s].add(coeff.mul(basis[t][s]))
                new_basis.append(primitive_vector(vec))
            basis = new_basis
        if not basis:
            break
    return KSpace(degree, pairs, basis, contains)


def tensor_square(self: CoalgebraMorphism, i: int) -> PolyMatrix:
    """The induced map on ordered pair bases in total degree -i.

    The former `CoalgebraMorphism.tensor_square`, a dense |pairs| x |pairs|
    matrix, kept as the reference for `coalgebra.push_column`.
    """
    sp = self.source.tensor_basis(2, i)
    tp = self.target.tensor_basis(2, i)
    t_index = {p: r for r, p in enumerate(tp)}
    nv = self.source.nvars
    out = PolyMatrix.zero(len(tp), len(sp), nv)
    for cidx, ((j, a), (k, b)) in enumerate(sp):
        mj = self.matrix(j)
        mk = self.matrix(k)
        for ap in range(self.target.rank(j)):
            e1 = mj.entries[ap][a]
            if e1.is_zero():
                continue
            for bp in range(self.target.rank(k)):
                e2 = mk.entries[bp][b]
                if e2.is_zero():
                    continue
                r = t_index[((j, ap), (k, bp))]
                out.entries[r][cidx] = out.entries[r][cidx].add(e1.mul(e2))
    return out


def full_mu(E: CoalgebraBundle, i: int) -> PolyMatrix:
    """Comultiplication at degree -i as a matrix over the full ordered pair basis.

    The former `CoalgebraBundle.full_mu`, a dense |pairs| x rank matrix,
    kept as the reference for `CoalgebraBundle.mu_matrix`, which drops the
    zero rows, and for the dense products of the `tensor_square` tests.
    """
    index = {p: r for r, p in enumerate(E.tensor_basis(2, i))}
    out = PolyMatrix.zero(len(index), E.rank(i), E.nvars)
    for c, col in enumerate(E.mu_columns(i)):
        for p, e in col.items():
            out.entries[index[p]][c] = e
    return out


def eager_split_blocks(S: CoalgebraBundle) -> dict:
    """The Poly blocks `split_from_gens` filled when it built a split model,
    before they were filled on the first read of `CoalgebraBundle.mu`: each
    entry at a pair (j, k) with j <= k of the free algebra's int columns."""
    ranks, nv = S.ranks, S.nvars
    mu: Dict[int, Dict[Tuple[int, int], PolyMatrix]] = {}
    for i in range(2, S.n + 1):
        blocks = {}
        for c, col in enumerate(_free_columns(S.split.monomials, i)):
            for ((j, a), (k, b)), sign in col.items():
                if j <= k:
                    if (j, k) not in blocks:
                        blocks[(j, k)] = PolyMatrix.zero(ranks[j] * ranks[k], ranks[i], nv)
                    blocks[(j, k)].entries[a * ranks[k] + b][c] = Poly.const(nv, sign)
        mu[i] = blocks
    return mu


def reference_fiber(E: CoalgebraBundle, at_point: Sequence) -> CoalgebraBundle:
    """The fiber `coalgebra.splitting_iso(E, at_point=p)` split before it was
    built from int columns: every block evaluated through `eval_at` into a
    `PolyMatrix.from_rat` block of a fresh bundle."""
    const_mu = {
        i: {bk: PolyMatrix.from_rat(m.rows, m.cols, m.eval_at(at_point), 0)
            for bk, m in blocks.items()}
        for i, blocks in E.mu.items()
    }
    return CoalgebraBundle(E.n, (), E.ranks, const_mu)


def reference_truncate(E: CoalgebraBundle, k: int) -> CoalgebraBundle:
    """`coalgebra.truncate` as it was before a split model's truncation was
    built by `split_from_gens`: the blocks of `E.mu` restricted, with the
    split data cut to degree k."""
    if not 0 <= k <= E.n:
        raise ValueError("truncation level out of range")
    ranks = {i: E.rank(i) for i in range(1, k + 1)}
    mu = {i: dict(E.mu.get(i, {})) for i in range(2, k + 1)}
    split = None
    if E.split is not None:
        split = SplitData(
            [(d, nm) for d, nm in E.split.gens if d <= k],
            {i: E.split.monomials[i] for i in range(1, k + 1)},
        )
    return CoalgebraBundle(k, E.base_names, ranks, mu, split=split)


def reference_splitting_iso(E: CoalgebraBundle, at_point: Optional[Sequence] = None) -> CoalgebraMorphism:
    """`coalgebra.splitting_iso` as it was before it read the split
    comultiplication as a signed selection: the whole split model built
    first, and one RREF per degree of [decomposable block of the split
    comultiplication | pushed columns] over every ordered pair.
    """
    if not E.is_constant():
        if at_point is None:
            raise UnsupportedXDependence(
                "splitting needs constant comultiplication entries; "
                "supply a base point for a fiberwise splitting"
            )
        const_mu = {
            i: {bk: PolyMatrix.from_rat(m.rows, m.cols, m.eval_at(at_point), 0)
                for bk, m in blocks.items()}
            for i, blocks in E.mu.items()
        }
        E = CoalgebraBundle(E.n, (), E.ranks, const_mu)

    mu_pivots = {i: rat_pivots(full_mu(E, i).to_rat()) for i in range(1, E.n + 1)}
    S = split_coalgebra([E.rank(i) - len(mu_pivots[i]) for i in range(1, E.n + 1)],
                        E.base_names)

    matrices: Dict[int, PolyMatrix] = {}
    nv = E.nvars
    for i in range(1, E.n + 1):
        r = E.rank(i)
        rs = S.rank(i)
        if i == 1:
            matrices[1] = PolyMatrix.identity(r, nv)
            continue
        mons = S.split.monomials[i]
        singleton_pos = {}
        decomp_pos = []
        for t, w in enumerate(mons):
            if len(w) == 1 and w[0][0] == i:
                singleton_pos[w[0][1]] = t
            else:
                decomp_pos.append(t)
        if rs != r:
            raise NotAdmissible(
                f"rank mismatch at degree {-i}: bundle rank {r}, split model rank {rs}"
            )
        free = [c for c in range(r) if c not in mu_pivots[i]]

        # every column solves at once when no pivot lies right of the
        # decomposable block; the RREF rows then hold the solutions, free
        # variables at zero
        phi = CoalgebraMorphism(E, S, matrices)
        cols = ([S.mu_columns(i)[t] for t in decomp_pos]
                + [push_column(phi, col) for col in E.mu_columns(i)])
        index = {p: t for t, p in enumerate(S.tensor_basis(2, i))}
        rows = [[Fraction(0)] * len(cols) for _ in index]
        for c, col in enumerate(cols):
            for p, q in col.items():
                rows[index[p]][c] = q.constant_value()
        ndec = len(decomp_pos)
        red, pivots = rat_rref(rows)
        if pivots and pivots[-1] >= ndec:
            raise NotAdmissible(
                f"comultiplication image leaves the constraint space at degree {-i}"
            )
        mat = [[Fraction(0)] * r for _ in range(rs)]
        for t, f in enumerate(free):
            mat[singleton_pos[t]][f] = Fraction(1)
        for row, p in zip(red, pivots):
            mat[decomp_pos[p]] = row[ndec:]
        if rat_rank(mat) < rs:
            raise NotAdmissible(f"splitting map is singular at degree {-i}")
        matrices[i] = PolyMatrix.from_rat(rs, r, mat, nv)
    return CoalgebraMorphism(E, S, matrices)


# --- the comultiplication readers on Polys ----------------------------------
#
# The readers as they were before constant bundles ran on integer views,
# kept verbatim as oracles for the integer path.


def poly_check_coalgebra(E: CoalgebraBundle) -> CoalgebraReport:
    """`coalgebra.check_coalgebra` as it was before constant bundles were
    read on their integer view: every column and product on Polys."""
    cocom = True
    coass = True
    witnesses = []
    for i in range(2, E.n + 1):
        cols = E.mu_columns(i)
        swap = (1, 0)
        for c, col in enumerate(cols):
            if permute_column(col, swap) != col:
                cocom = False
                witnesses.append(("cocommutativity", -i, c))
                break
    for i in range(3, E.n + 1):
        for c, col in enumerate(E.mu_columns(i)):
            if apply_mu(E, col, 1) != apply_mu(E, col, 0):
                coass = False
                witnesses.append(("coassociativity", -i, c))
    return CoalgebraReport(cocom, coass, witnesses)


def poly_morphism_check(phi: CoalgebraMorphism, E: CoalgebraBundle,
                        F: CoalgebraBundle) -> bool:
    """`coalgebra.morphism_check` as it was before constant data was read
    as numbers on the integer views: every product on Polys."""
    if E.n != F.n:
        return False
    for i in range(1, E.n + 1):
        m = phi.matrix(i)
        if (m.rows, m.cols) != (F.rank(i), E.rank(i)):
            raise ValueError("morphism matrices have incompatible shapes")
    for i in range(2, E.n + 1):
        m = phi.matrix(i).entries
        for c, col in enumerate(E.mu_columns(i)):
            lhs = _image(F.mu_columns(i), ((b, row[c]) for b, row in enumerate(m)))
            if lhs != push_column(phi, col):
                return False
    return True


def poly_splitting_iso(E: CoalgebraBundle, at_point: Optional[Sequence] = None) -> CoalgebraMorphism:
    """`coalgebra.splitting_iso` as it was before it ran on the integer
    views: pivots of the Fraction matrix, columns pushed through the Poly
    matrices of the degrees already built, and each coefficient read as
    the constant value of a Poly."""
    if not E.is_constant():
        if at_point is None:
            raise UnsupportedXDependence(
                "splitting needs constant comultiplication entries; "
                "supply a base point for a fiberwise splitting"
            )
        const_mu = {
            i: {bk: PolyMatrix.from_rat(m.rows, m.cols, m.eval_at(at_point), 0)
                for bk, m in blocks.items()}
            for i, blocks in E.mu.items()
        }
        E = CoalgebraBundle(E.n, (), E.ranks, const_mu)

    counts, mu_pivots, mismatch = [], [], None
    for i in range(1, E.n + 1):
        mu_pivots.append(rat_pivots(E.mu_matrix(i).to_rat()))
        counts.append(E.rank(i) - len(mu_pivots[-1]))
        rs = dim_symmetric_component([d for d, k in enumerate(counts, 1) for _ in range(k)], i)
        if rs != E.rank(i):
            mismatch = NotAdmissible(
                f"rank mismatch at degree {-i}: bundle rank {E.rank(i)}, split model rank {rs}"
            )
            counts.pop()
            break
    S = split_coalgebra(counts, E.base_names)

    matrices: Dict[int, PolyMatrix] = {}
    for i in range(1, S.n + 1):
        r = E.rank(i)
        pivots = mu_pivots[i - 1]
        free = [c for c in range(r) if c not in pivots]
        words = S.split.monomials[i]
        decomp = [t for t, w in enumerate(words) if len(w) > 1]
        s_cols = S.mu_columns(i)
        reps = [(t, *next(iter(s_cols[t].items()))) for t in decomp]
        mat = [[0] * r for _ in range(r)]
        for t, f in zip((t for t, w in enumerate(words) if len(w) == 1), free):
            mat[t][f] = 1
        phi = CoalgebraMorphism(E, S, matrices)
        for c, col in enumerate(E.mu_columns(i)):
            pushed = push_column(phi, col)
            preimage = [(t, pushed[p] * sign) for t, p, sign in reps if p in pushed]
            if _image(s_cols, preimage) != pushed:
                raise NotAdmissible(
                    f"comultiplication image leaves the constraint space at degree {-i}"
                )
            for t, q in preimage:
                mat[t][c] = q.constant_value()
        if pivots and rat_rank([[mat[t][c] for c in pivots] for t in decomp]) < len(pivots):
            raise NotAdmissible(f"splitting map is singular at degree {-i}")
        matrices[i] = PolyMatrix.from_rat(r, r, mat, E.nvars)
    if mismatch is not None:
        raise mismatch
    return CoalgebraMorphism(E, S, matrices)


def reference_check_admissible(E: CoalgebraBundle, sample_points: Sequence) -> AdmissibilityReport:
    """`coalgebra.check_admissible` as it was before a constant bundle read
    its constraint spaces off its splitting: `compute_K` at every degree,
    and a constant bundle's image rank from its `integer_view` rows."""
    points = [tuple(Fraction(x) for x in p) for p in sample_points]
    if not points:
        raise ValueError("at least one sample point is required")
    if any(len(p) != E.nvars for p in points):
        raise ValueError("point has wrong length")
    per = {}
    ok = True
    constant = E.is_constant()
    for i in range(2, E.n + 1):
        ks = compute_K(E, -i)
        if constant:
            im_rank = rat_rank(E.integer_view().mu_rows(i))
            point_ranks = [im_rank]
        else:
            m = E.mu_matrix(i)
            point_ranks = [rank_at(m, p) for p in points]
            im_rank = (ks.dim if ks.contains_image and max(point_ranks) == ks.dim
                       else rank_generic(m))
        equal = ks.contains_image and im_rank == ks.dim
        const = all(r == im_rank for r in point_ranks)
        per[-i] = AdmissibilityDegree(im_rank, ks.dim, equal, const)
        ok = ok and equal and const
    return AdmissibilityReport(per, ok, points)


def bench_pool(name: str, seed: int) -> list:
    """(spec, bundle) for each case of a benchmark workload's pool, built
    through `bench/workloads.py` on the gradman modules already imported;
    nothing under `bench/` is written."""
    bench = str(pathlib.Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from workloads import WORKLOADS

    gm = SimpleNamespace(**{m: importlib.import_module(f"gradman.{m}")
                            for m in ("errors", "exactnum", "coalgebra", "geometrize")})
    workload = WORKLOADS[name]
    return [(spec, workload.build(spec, gm)) for spec in workload.make_pool(seed, gm)]


def frontier_bundle(profile, nv: int) -> CoalgebraBundle:
    """The split bundle of `profile` over nv base variables conjugated by the
    linear det-1 frames `bench/oracles.py` draws from random.Random(5), built
    with the `bench/workloads.py` helpers, as the frontier rows over x are;
    nothing under `bench/` is written."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    from oracles import conjugate_blocks
    from workloads import _bundle, _frames, _split_blocks

    gm = SimpleNamespace(coalgebra=importlib.import_module("gradman.coalgebra"),
                         exactnum=importlib.import_module("gradman.exactnum"))
    ranks, blocks = _split_blocks(gm, profile, nv)
    blocks = conjugate_blocks(blocks, ranks, _frames(random.Random(5), ranks, nv, True), nv)
    return _bundle(gm, profile, ranks, blocks, nv)


def morphism_inverse(self: CoalgebraMorphism) -> CoalgebraMorphism:
    """The former `CoalgebraMorphism.inverse`: the inverse morphism, each
    matrix inverted over Q[x]; raises ValueError when some matrix is not
    square or has no polynomial inverse."""
    mats = {}
    for i in range(1, self.source.n + 1):
        m = self.matrix(i)
        if m.rows != m.cols:
            raise ValueError("non-square morphism is not invertible")
        if m.rows == 0:
            mats[i] = m
            continue
        inv = poly_inverse(m)
        if inv is None:
            raise ValueError("morphism has no polynomial inverse")
        mats[i] = inv
    return CoalgebraMorphism(self.target, self.source, mats)


def compose_morphisms(self: CoalgebraMorphism, other: CoalgebraMorphism) -> CoalgebraMorphism:
    """The former `CoalgebraMorphism.compose`: self o other (other applied
    first)."""
    if other.target is not self.source and other.target != self.source:
        raise ValueError("morphisms are not composable")
    mats = {}
    for i in range(1, self.target.n + 1):
        mats[i] = self.matrix(i).mul(other.matrix(i))
    return CoalgebraMorphism(other.source, self.target, mats)


def is_identity_shaped(self: CoalgebraMorphism) -> bool:
    """The former `CoalgebraMorphism.is_identity_shaped`: every matrix is
    the identity."""
    return all(
        self.matrix(i) == PolyMatrix.identity(self.source.rank(i), self.source.nvars)
        for i in range(1, self.source.n + 1)
    )


def split_morphism_from_linear(linear: Dict[GenId, dict], S: CoalgebraBundle,
                               T: CoalgebraBundle) -> CoalgebraMorphism:
    """The former `coalgebra.split_morphism_from_linear`: extend a
    degree-preserving linear map on split generators multiplicatively.

    `linear[g]` maps a source generator id to {target generator id: Fraction}.
    Always produces a coalgebra morphism between split bundles.
    """
    if S.split is None or T.split is None:
        raise ValueError("both bundles must be split-constructed")
    t_gens = T.split.gens
    sig = GradedSignature(T.n, T.base_names, [
        [nm for d, nm in t_gens if d == i] for i in range(1, T.n + 1)
    ], max_degree=3 * max(T.n, 1))

    images = {}
    src_ids = []
    counts: Dict[int, int] = {}
    for d, _nm in S.split.gens:
        idx = counts.get(d, 0)
        counts[d] = idx + 1
        src_ids.append((d, idx))
    for g in src_ids:
        img = GradedFunction.zero(sig)
        for h, coeff in linear.get(g, {}).items():
            img = img.add(GradedFunction.from_gen(sig, h).scale(coeff))
        images[g] = img
    mats = {}
    for i in range(1, S.n + 1):
        rows = T.rank(i)
        cols = S.rank(i)
        m = PolyMatrix.zero(rows, cols, S.nvars)
        t_index = {w: r for r, w in enumerate(T.split.monomials[i])}
        for c, w in enumerate(S.split.monomials[i]):
            prod = GradedFunction.one(sig)
            for g in w:
                prod = prod.mul(images[g])
            for word, coeff in prod.terms.items():
                r = t_index.get(word)
                if r is not None:
                    m.entries[r][c] = coeff
        mats[i] = m
    return CoalgebraMorphism(S, T, mats)


def compose_pullbacks(outer: Dict, inner: Dict, chart_src: ChartAlgebra) -> Dict:
    """The former `geometrize.compose_pullbacks`: the composite pullback
    table, `outer` applied first and then rewritten through `inner`."""
    sig = chart_src.sig
    base_map = [GradedFunction.base_var(sig, a) for a in range(sig.m0)]
    out = {}
    for key, f in outer.items():
        out[key] = f.substitute(sig, base_map, inner)
    return out


# --- frame derivations expanded by hand ---------------------------------------
#
# The bodies of `compat_check`, `theta_action` and `compat_compose` as they
# were before frame derivations acted on dual-algebra elements: dense row
# lists, with the degree-0 targets and symbols handled case by case.


def _apply_symbol(sym: list, p: Poly) -> Poly:
    """The degree-0 symbol sum_alpha sym[alpha] * d/dx_alpha applied to p."""
    out = Poly.zero(p.nvars)
    for alpha, coeff in enumerate(sym):
        if not coeff.is_zero():
            out = out.add(coeff.mul(p.derivative(alpha)))
    return out


def reference_compat_check(d: CompatDerivation, E) -> bool:
    """Exact multiplicativity of a frame derivation against the dual product."""
    k = d.degree
    n = E.n
    nv = E.nvars
    sym = d.symbol or []
    for i in range(1, n + 1):
        for j in range(1, n + 1 - i):
            t = i + j + k
            if t < 0:
                continue
            rows_t = 1 if t == 0 else E.rank(t)
            sign = -1 if (k * i) % 2 else 1
            for a in range(E.rank(i)):
                for b in range(E.rank(j)):
                    mm = [_mu_entry(E, i, j, a, b, c) for c in range(E.rank(i + j))]
                    # left side: derivation applied to the product expansion
                    lhs = [Poly.zero(nv) for _ in range(rows_t)]
                    dij = d.matrix(i + j)
                    if dij is not None:
                        for c, coeff in enumerate(mm):
                            if coeff.is_zero():
                                continue
                            for r in range(rows_t):
                                lhs[r] = lhs[r].add(coeff.mul(dij[r][c]))
                    if k == 0:
                        for c, coeff in enumerate(mm):
                            s = _apply_symbol(sym, coeff)
                            if not s.is_zero():
                                lhs[c] = lhs[c].add(s)
                    # right side: Leibniz over the two factors; components in
                    # negative degrees are zero, scalar components multiply
                    rhs = [Poly.zero(nv) for _ in range(rows_t)]
                    di = d.matrix(i)
                    if t > 0 and di is not None and i + k > 0:
                        for c in range(E.rank(i + k)):
                            coeff = di[c][a]
                            if coeff.is_zero():
                                continue
                            for r in range(rows_t):
                                rhs[r] = rhs[r].add(coeff.mul(_mu_entry(E, i + k, j, c, b, r)))
                    elif t > 0 and di is not None and i + k == 0:
                        u = di[0][a]
                        if not u.is_zero():
                            rhs[b] = rhs[b].add(u)
                    dj = d.matrix(j)
                    if t > 0 and dj is not None and j + k > 0:
                        for c in range(E.rank(j + k)):
                            coeff = dj[c][b]
                            if coeff.is_zero():
                                continue
                            for r in range(rows_t):
                                rhs[r] = rhs[r].add(
                                    coeff.mul(_mu_entry(E, i, j + k, a, c, r)).scale(sign)
                                )
                    elif t > 0 and dj is not None and j + k == 0:
                        u = dj[0][b]
                        if not u.is_zero():
                            rhs[a] = rhs[a].add(u.scale(sign))
                    if lhs != rhs:
                        return False
    return True


def reference_theta_action(e_frame: Tuple[int, int], d: CompatDerivation, E) -> CompatDerivation:
    """Module action of a dual-frame element on a frame derivation.

    Sends every frame element first through the derivation and then multiplies
    by the chosen element via the dual product."""
    i, a = e_frame
    k = d.degree
    if k + i > 0:
        raise DegreeMismatch("module action must stay in non-positive degrees")
    nv = E.nvars
    mats: Dict[int, list] = {}
    for j in range(1, E.n + 1):
        t = j + k + i
        if t < 0:
            continue
        rows_t = 1 if t == 0 else E.rank(t)
        out = [[Poly.zero(nv) for _ in range(E.rank(j))] for _ in range(rows_t)]
        mats[j] = out
        dj = d.matrix(j)
        if j + k < 0 or dj is None:
            continue
        for b in range(E.rank(j)):
            if j + k == 0:
                u = dj[0][b]
                if u.is_zero():
                    continue
                # multiplication by the frame element lands on it directly
                out[a][b] = out[a][b].add(u)
            else:
                for c in range(E.rank(j + k)):
                    coeff = dj[c][b]
                    if coeff.is_zero():
                        continue
                    for r in range(rows_t):
                        out[r][b] = out[r][b].add(coeff.mul(_mu_entry(E, i, j + k, a, c, r)))
        mats[j] = out
    return CompatDerivation(k + i, E, mats, None)


def reference_compat_compose(d1: CompatDerivation, d2: CompatDerivation, E) -> CompatDerivation:
    """Operator composition of frame derivations (not itself a derivation)."""
    k1, k2 = d1.degree, d2.degree
    nv = E.nvars
    sym1 = d1.symbol or []
    mats: Dict[int, list] = {}
    for j in range(1, E.n + 1):
        mid = j + k2
        t = j + k1 + k2
        if t < 0 or mid < 0:
            continue
        dj2 = d2.matrix(j)
        if dj2 is None:
            continue
        rows_t = 1 if t == 0 else E.rank(t)
        out = [[Poly.zero(nv) for _ in range(E.rank(j))] for _ in range(rows_t)]
        for b in range(E.rank(j)):
            if mid == 0:
                u = dj2[0][b]
                if k1 == 0 and not u.is_zero():
                    out[0][b] = out[0][b].add(_apply_symbol(sym1, u))
                continue
            d1mid = d1.matrix(mid)
            for c in range(E.rank(mid)):
                coeff = dj2[c][b]
                if coeff.is_zero():
                    continue
                if k1 == 0:
                    s = _apply_symbol(sym1, coeff)
                    if not s.is_zero():
                        out[c][b] = out[c][b].add(s)
                if d1mid is not None:
                    for r in range(rows_t):
                        out[r][b] = out[r][b].add(coeff.mul(d1mid[r][c]))
        mats[j] = out
    symbol = None
    if k1 == 0 and k2 == 0:
        sym2 = d2.symbol or []
        symbol = [_apply_symbol(sym1, p) for p in sym2]
    return CompatDerivation(k1 + k2, E, mats, symbol)


# --- reference Frobenius normal form --------------------------------------------
# One function with the stages inline, threading (total_nio, total_oin, gens)
# through each step, and its flat frame by untruncated Picard iteration; kept
# verbatim as the oracle of the stage functions in `gradman.distrib`.


def _apply_step(state, sig: GradedSignature, gmap: Dict[GenId, GradedFunction],
                inv_gmap: Dict[GenId, GradedFunction], base: Optional[list] = None,
                inv_base: Optional[list] = None):
    """Push one substitution and its inverse through the cumulative maps and
    all generators.

    The step sends the generators in `gmap` to their images, every other
    generator to itself, and the base coordinates to `base` (default: to
    themselves); `inv_gmap` and `inv_base` give its inverse the same way.
    Each site builds that inverse in closed form from the data of its step,
    and both composites are checked to be the identity here."""
    step, inverse = _substitution(sig, gmap, base), _substitution(sig, inv_gmap, inv_base)
    if not step.after(inverse).is_identity() or not inverse.after(step).is_identity():
        raise NonPolynomialFlatFrame("substitution inverse verification failed")
    total_nio, total_oin, gens = state
    return (step.after(total_nio), total_oin.after(inverse),
            [transform_field(g, step, inverse) for g in gens])


def _substitution(sig: GradedSignature, gmap: Dict[GenId, GradedFunction],
                  base: Optional[list]) -> ChartMap:
    if base is None:
        base = [GradedFunction.base_var(sig, a) for a in range(sig.m0)]
    gens = {g: GradedFunction.from_gen(sig, g) for g in sig.gen_ids()}
    gens.update(gmap)
    return ChartMap(sig, sig, base, gens)


def _polynomial_inverse(m: PolyMatrix, degree: int) -> PolyMatrix:
    inv = poly_inverse(m)
    if inv is None:
        raise NonPolynomialFlatFrame(f"degree {degree} linear block has no polynomial inverse")
    return inv


def _linear_gens(sig: GradedSignature, words: list, coeffs: Dict[GenId, list]):
    """Generator images g -> sum over t of coeffs[g][t] * words[t]."""
    return {g: GradedFunction(sig, dict(zip(words, row))) for g, row in coeffs.items()}


def reference_frobenius_normal_form(dist: Distribution) -> FrobeniusChart:
    """Coordinates in which the generators become leading coordinate fields.

    Stage A flattens positive-degree generators degree by degree with
    antiderivative substitutions; stage B reduces degree-0 generators by the
    flat fields; stage C straightens constant symbols by a linear base change
    and flattens the remaining connection action through a terminating Picard
    iteration, failing with a diagnostic outside that scope."""
    inv = is_involutive(dist)
    if not inv.involutive:
        raise NotInvolutive("distribution is not closed under brackets",
                            witness=inv.witness, pair=inv.failing_pair)
    sig = dist.sig
    nv = sig.m0
    total_nio, total_oin = ChartMap.identity(sig), ChartMap.identity(sig)
    gens = list(dist.generators)
    flat_of: Dict[int, Coord] = {}
    flat_sets: Dict[int, list] = {}

    # --- stage A: positive degrees, bottom of the tower upward
    for r in range(1, sig.n + 1):
        z_idx = [i for i in range(len(gens)) if gens[i].degree == -r]
        d_r = len(z_idx)
        m_r = sig.rank(r)
        if d_r:
            a_rows = []
            for i in z_idx:
                row = []
                for t in range(m_r):
                    val = gens[i].action(gen_coord((r, t)))
                    row.append(val.body())
                a_rows.append(row)
            # e_(r,t) -> sum_s T[t][s] e_(r,s); T is a product of elementary
            # row operations with constant pivots, so its inverse is polynomial
            t_mat = _unimodular_alignment(a_rows, m_r, nv)
            ids = [(r, t) for t in range(m_r)]
            step, inverse = (_linear_gens(sig, [(g,) for g in ids], dict(zip(ids, m.entries)))
                             for m in (t_mat, _polynomial_inverse(t_mat, r)))
            total_nio, total_oin, gens = _apply_step((total_nio, total_oin, gens),
                                                     sig, step, inverse)
            for pos, i in enumerate(z_idx):
                flat_of[i] = gen_coord((r, pos))
            flat_sets[r] = [gen_coord((r, pos)) for pos in range(d_r)]
            # subtract the aligned fields from everything of higher degree
            for i in range(len(gens)):
                if gens[i].degree <= -r:
                    continue
                for pos, zi in enumerate(z_idx):
                    coeff = gens[i].action(gen_coord((r, pos)))
                    if not coeff.is_zero():
                        gens[i] = gens[i].sub(gens[zi].scale(coeff))
        else:
            flat_sets[r] = []
        # antiderivative loop: clear the non-flat degree-r components of all
        # previously aligned generators, highest degree first
        nonflat = [gen_coord((r, t)) for t in range(d_r, m_r)]
        for k in range(r - 1, 0, -1):
            for i in [i for i in range(len(gens)) if gens[i].degree == -k]:
                e_s = flat_of[i][1]
                for c in nonflat:
                    g_val = gens[i].action(c)
                    if g_val.is_zero():
                        continue
                    if sig.parity(e_s) and not g_val.derivative_gen(e_s).is_zero():
                        raise NotInvolutive(
                            "self-bracket obstruction while flattening",
                            witness=gens[i], pair=(i, i),
                        )
                    # G has degree r and is built from e_s (degree k < r), so
                    # it holds no degree-r generator: c -> c + G undoes c -> c - G
                    big_g = graded_antiderivative(g_val, e_s)
                    e_c = GradedFunction.from_gen(sig, c[1])
                    total_nio, total_oin, gens = _apply_step(
                        (total_nio, total_oin, gens), sig,
                        {c[1]: e_c.sub(big_g)}, {c[1]: e_c.add(big_g)})
    for i in range(len(gens)):
        if gens[i].degree < 0:
            expected = VectorField.coordinate_field(sig, flat_of[i])
            if gens[i] != expected:
                raise NotInvolutive(
                    "positive-degree generator failed to flatten",
                    witness=gens[i], pair=(i, i),
                )

    # --- stage B: reduce degree-0 generators by the flat coordinate fields
    zero_idx = [i for i in range(len(gens)) if gens[i].degree == 0]
    flat_gen_coords = [c for r in range(1, sig.n + 1) for c in flat_sets[r]]
    for i in zero_idx:
        for c in flat_gen_coords:
            coeff = gens[i].action(c)
            if not coeff.is_zero():
                gens[i] = gens[i].sub(VectorField.coordinate_field(sig, c).scale(coeff))
        # involutivity forces the remaining coefficients away from flat coordinates
        for c, val in gens[i].actions.items():
            for fc in flat_gen_coords:
                if not val.derivative_gen(fc[1]).is_zero():
                    raise NotInvolutive(
                        "degree-0 coefficient depends on a flattened coordinate",
                        witness=gens[i], pair=(i, i),
                    )

    # --- stage C: straighten symbols, then integrate the connection
    d0 = len(zero_idx)
    if d0:
        sym = []
        for i in zero_idx:
            row = []
            for alpha in range(nv):
                p = gens[i].action(base_coord(alpha)).body()
                if not p.is_constant():
                    raise NonConstantSymbols(
                        f"symbol entry {p.to_string(sig.base_names)} is not constant"
                    )
                row.append(p.constant_value())
            sym.append(row)
        # reducing [sym | I] gives rref = coeffs * sym in its two blocks; the
        # rows of sym are independent, so these constant combinations of the
        # generators are the unique ones that realize the reduction
        red, pivots = rat_rref([row + [Fraction(int(r == s)) for s in range(d0)]
                                for r, row in enumerate(sym)])
        if pivots[-1] >= nv:
            raise HypothesisFailed("degree-0 symbols are dependent over the base")
        rref = [row[:nv] for row in red]
        coeffs = [row[nv:] for row in red]
        new_zero = []
        for r in range(d0):
            f = VectorField.zero(sig, 0)
            for s in range(d0):
                if coeffs[r][s] != 0:
                    f = f.add(gens[zero_idx[s]].scale(coeffs[r][s]))
            new_zero.append(f)
        for pos, i in enumerate(zero_idx):
            gens[i] = new_zero[pos]
        # base change sending the pivot directions to the leading coordinates
        comp = _complete_to_invertible(rref, pivots, nv)
        total_nio, total_oin, gens = _apply_step(
            (total_nio, total_oin, gens), sig, {}, {},
            _linear_base(sig, rat_inverse(comp)), _linear_base(sig, comp))
        for pos, i in enumerate(zero_idx):
            flat_of[i] = base_coord(pos)
        for i in zero_idx:
            for j in zero_idx:
                if i < j and not bracket(gens[i], gens[j]).is_zero():
                    raise NotInvolutive(
                        "straightened symbols do not commute",
                        witness=bracket(gens[i], gens[j]), pair=(i, j),
                    )
        # connection flattening on the non-flat generators, degree by degree
        nonflat_ids = [
            (r, t) for r in range(1, sig.n + 1)
            for t in range(len(flat_sets[r]), sig.rank(r))
        ]
        for degree in range(1, sig.n + 1):
            ids = [g for g in nonflat_ids if g[0] == degree]
            if not ids:
                continue
            words = monomials_of_degree(nonflat_ids, degree)
            windex = {w: t for t, w in enumerate(words)}
            n_w = len(words)
            a_mats = []
            for i in zero_idx:
                mat = [[Poly.zero(nv) for _ in range(n_w)] for _ in range(n_w)]
                for bcol, w in enumerate(words):
                    f = GradedFunction.monomial(sig, w, Poly.one(nv))
                    img = gens[i].apply(f)
                    for w2, coeff in img.terms.items():
                        row = windex.get(w2)
                        if row is None:
                            raise NotInvolutive(
                                "degree-0 action leaves the reduced chart",
                                witness=gens[i], pair=(i, i),
                            )
                        mat[row][bcol] = coeff
                a_mats.append(PolyMatrix(n_w, n_w, mat, nv))
            f_total = _flat_frame(a_mats, n_w, d0, nv)
            # the step fixes the lower-degree generators, so on the degree-d
            # words it is linear over Q[x]: generator columns from f_total,
            # identity columns for products; its inverse reads the same
            # columns of the inverse matrix
            cols = [windex[(g,)] for g in ids]
            frame = PolyMatrix.identity(n_w, nv)
            for row in range(n_w):
                for col in cols:
                    frame.entries[row][col] = f_total.entries[row][col]
            step, inverse = (_linear_gens(sig, words, {g: m.col(col) for g, col in zip(ids, cols)})
                             for m in (frame, _polynomial_inverse(frame, degree)))
            total_nio, total_oin, gens = _apply_step((total_nio, total_oin, gens),
                                                     sig, step, inverse)
        for i in zero_idx:
            expected = VectorField.coordinate_field(sig, flat_of[i])
            if gens[i] != expected:
                raise NonPolynomialFlatFrame(
                    "degree-0 generator failed to flatten after integration"
                )

    flattened = [flat_of[i] for i in range(len(gens))]
    new_points = [
        tuple(total_nio.base[b].body_eval(p) for b in range(nv))
        for p in dist.sample_points
    ]
    flat_fields = [VectorField.coordinate_field(sig, c) for c in flattened]
    # two-sided span preservation, checked on the original generators pushed
    # through the accumulated substitution (the pipeline recombined its own)
    moved = [transform_field(g, total_nio, total_oin) for g in dist.generators]
    span_ok = True
    if flat_fields:
        flat_dist = make_distribution(flat_fields, new_points, sig=sig)
        moved_dist = make_distribution(moved, new_points, sig=sig)
        for g in moved:
            if not membership(g, flat_dist).ok:
                span_ok = False
        for g in flat_fields:
            if not membership(g, moved_dist).ok:
                span_ok = False
    inverse_ok = (
        total_nio.after(total_oin).is_identity()
        and total_oin.after(total_nio).is_identity()
    )
    return FrobeniusChart(sig, total_nio, total_oin, flattened, moved,
                          new_points, span_ok, inverse_ok)


def reference_span_preserved(sig: GradedSignature, moved: list, flattened: list,
                             new_points: list) -> bool:
    """The span check of the Frobenius certificate as two `membership`
    halves, kept verbatim as the oracle of the check that reads the action
    table.  Raises where `make_distribution` refuses the moved fields."""
    flat_fields = [VectorField.coordinate_field(sig, c) for c in flattened]
    span_ok = True
    if flat_fields:
        flat_dist = make_distribution(flat_fields, new_points, sig=sig)
        moved_dist = make_distribution(moved, new_points, sig=sig)
        span_ok = (all(membership(g, flat_dist).ok for g in moved)
                   and all(membership(g, moved_dist).ok for g in flat_fields))
    return span_ok


def reference_unimodular_alignment(a_rows: list, m: int, nv: int):
    """`distrib._unimodular_alignment` with its Gauss-Jordan pass run on
    every block, aligned ones included; kept verbatim as the oracle of the
    alignment that returns I on an aligned block."""
    d = len(a_rows)
    rows = [[a_rows[r][c] for r in range(d)]
            + [Poly.const(nv, 1 if i == c else 0) for i in range(m)] for c in range(m)]
    for col in range(d):
        piv = next((r for r in range(col, m)
                    if rows[r][col].is_constant() and not rows[r][col].is_zero()), None)
        if piv is None and nv == 1:
            piv = _euclid_pivot(rows, col, m)
        if piv is None:
            raise NonPolynomialFlatFrame(
                "no unimodular polynomial alignment: a constant pivot is unavailable"
            )
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col].constant_value()
        rows[col] = [p.scale(inv) for p in rows[col]]
        for r in range(m):
            coeff = rows[r][col]
            if r != col and not coeff.is_zero():
                rows[r] = [p.sub(coeff.mul(q)) for p, q in zip(rows[r], rows[col])]
    return PolyMatrix(m, m, [row[d:] for row in rows], nv)


def _complete_to_invertible(rref_rows: list, pivots: list, nv: int) -> list:
    """Invertible matrix whose first columns are the transposed reduced rows."""
    cols = [list(r) for r in rref_rows]
    for c in range(nv):
        if c not in pivots:
            unit = [Fraction(1) if i == c else Fraction(0) for i in range(nv)]
            cols.append(unit)
    return [[cols[j][i] for j in range(nv)] for i in range(nv)]


def _flat_frame(a_mats: list, n_w: int, d0: int, nv: int) -> PolyMatrix:
    """Polynomial solution frame of the commuting connection system.

    Solves one direction at a time by Picard iteration; termination within the
    iteration cap certifies a polynomial path-ordered exponential, otherwise
    the frame is not polynomial in the supported sense."""
    ident = PolyMatrix.identity(n_w, nv)
    f_total = ident
    current = list(a_mats)
    for a in range(d0):
        f_a = ident
        for _ in range(4 * n_w + 8):
            nxt = ident.sub(current[a].mul(f_a).map_entries(lambda p: p.antiderivative(a)))
            if nxt == f_a:
                break
            f_a = nxt
        else:
            raise NonPolynomialFlatFrame(
                "connection integration did not terminate: flat frame is not polynomial"
            )
        f_a_inv = poly_inverse(f_a)
        if f_a_inv is None:
            raise NonPolynomialFlatFrame("gauge frame has no polynomial inverse")
        for b in range(a + 1, d0):
            d_b = f_a.map_entries(lambda p: p.derivative(b))
            current[b] = f_a_inv.mul(d_b.add(current[b].mul(f_a)))
        f_total = f_total.mul(f_a)
    # final verification against the original connection matrices
    for a in range(d0):
        residual = f_total.map_entries(lambda p: p.derivative(a)).add(a_mats[a].mul(f_total))
        if not residual.is_zero():
            raise NonPolynomialFlatFrame("flat frame verification failed")
    return f_total


# --- the benchmark's Frobenius pool ---------------------------------------------

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def frobenius_flatten_pool(seed: int):
    """(kind, distribution) for each case of the benchmark's
    `frobenius-flatten` pool at `seed` that has a distribution, that is
    every kind but "homological".  Reads `bench/workloads.py` and changes
    nothing there."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS["frobenius-flatten"]
    for spec in workload.make_pool(seed, gradman):
        if spec["kind"] != "homological":
            sig, fields, _ = workload.build(spec, gradman)
            yield spec["kind"], make_distribution(fields, spec["points"], sig=sig)
