"""Shared randomized corpus builders for the higher-level tests."""

import itertools
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from gradman.coalgebra import (
    CoalgebraBundle,
    CoalgebraMorphism,
    KSpace,
    _image,
    _variant_pair_columns,
    permute_column,
)
from gradman.errors import DegreeMismatch, DegreeOverflow, DvbNotExact, NonPolynomialFlatFrame
from gradman.exactnum import (
    Poly,
    PolyMatrix,
    accumulate,
    kernel_basis,
    poly_inverse,
    primitive_vector,
    rank_generic,
    rat_inverse,
    rat_rank,
)
from gradman.fields import (
    ChartMap,
    CompatDerivation,
    VectorField,
    _mu_entry,
    all_coords,
    base_coord,
    gen_coord,
)
from gradman.gradedring import (
    GenId,
    Gens,
    GradedFunction,
    GradedSignature,
    _gf,
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
        full = e.full_mu(i).to_rat()
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
