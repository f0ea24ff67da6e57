"""Distributions, the membership decision procedure, and Frobenius normal forms.

Membership expands the query and the generators over the free coordinate-field
basis and solves degree by degree over the fraction field; a coefficient
whose exact division by the pivot determinant fails is reported as
"nonpolynomial" instead of approximated.  The normal form runs two stage
functions on one running state (`_Flattening`): stage A aligns the
positive-degree generators by a unimodular linear step and flattens them by
exact antiderivative substitutions, and stage C straightens constant
symbols by a linear base change and flattens the connection terms by a
polynomial frame, found as the Taylor polynomial that solves the connection
equation exactly.  Involutivity makes a stage B, and any check within the
stages, unneeded (see `_stage_a`).  Each coordinate change carries its own
inverse, built in closed form and checked two-sided, on the coordinates the
step names, before the step is taken; the span check reads the action
table.  Cases outside the algebraically solvable scope fail loudly with a
precise diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence

from .errors import (
    DegreeMismatch,
    DegreeOverflow,
    HypothesisFailed,
    NonConstantSymbols,
    NonPolynomialFlatFrame,
    NotInvolutive,
)
from .exactnum import (
    Poly,
    PolyMatrix,
    poly_inverse,
    poly_solve,
    rat_inverse,
    rat_rref,
)
from .fields import (
    ChartMap,
    Coord,
    VectorField,
    _chart_map,
    _check_images,
    all_coords,
    base_coord,
    bracket,
    coord_name,
    coord_sort_key,
    gen_coord,
    linearly_independent,
    tangent_at,
    transform_field,
)
from .gradedring import GenId, GradedFunction, GradedSignature, monomials_of_degree


class Distribution:
    """Homogeneous generator fields grouped by degree, with certified samples.

    The generators are a tuple, so the `is_involutive` report kept on the
    distribution cannot go stale.
    """

    def __init__(self, sig: GradedSignature, generators: Sequence[VectorField],
                 sample_points: Sequence):
        self.sig = sig
        self.generators = tuple(generators)
        self.sample_points = [tuple(Fraction(v) for v in p) for p in sample_points]
        self._involutivity: Optional[InvolutivityReport] = None

    def ranks(self) -> list:
        out = [0] * (self.sig.n + 1)
        for g in self.generators:
            out[-g.degree] += 1
        return out

    def __repr__(self):
        return f"Distribution(rank {'|'.join(map(str, self.ranks()))})"


def make_distribution(generators: Sequence[VectorField], sample_points: Sequence,
                      sig: Optional[GradedSignature] = None) -> Distribution:
    """Validated distribution: homogeneous generators, independent at each point."""
    if not generators and sig is None:
        raise ValueError("need a signature for an empty generator list")
    sig = sig if sig is not None else generators[0].sig
    for g in generators:
        if g.sig != sig:
            raise ValueError("generators live on different charts")
        if g.degree > 0:
            raise DegreeMismatch("distribution generators must have non-positive degree")
        if g.is_zero():
            raise ValueError("zero field cannot be a distribution generator")
    points = list(sample_points)
    if not points:
        points = [tuple(Fraction(0) for _ in range(sig.m0))]
    if not linearly_independent(generators, points):
        raise ValueError("generators have dependent tangent vectors at a sample point")
    return Distribution(sig, generators, points)


# --- membership ---------------------------------------------------------------


@dataclass
class MembershipCertificate:
    ok: bool
    coefficients: Optional[list] = None  # GradedFunction per generator
    witness: Optional[tuple] = None  # ("degree"|"inconsistent"|"nonpolynomial", detail)

    def __bool__(self):
        return self.ok


def _membership_system(x: VectorField, dist: Distribution):
    """Linear system for coefficients expressing x over the generators.

    Unknowns are the monomial coefficients of each generator's function
    coefficient; equations match coordinate actions monomial by monomial,
    ordered with the body layer first.  A generator whose coefficient would
    pass the chart's degree cap is left out; `capped` says whether one was.
    """
    sig = dist.sig
    q = -x.degree
    unknowns = []  # (generator index, word)
    capped = False
    for gi, g in enumerate(dist.generators):
        delta = (-g.degree) - q
        if delta < 0:
            continue
        if delta > sig.max_degree:
            capped = True
            continue
        for w in monomials_of_degree(sig.gen_ids(), delta):
            unknowns.append((gi, w))
    columns = []  # per unknown: dict (coord, word') -> Poly
    rows_seen = {}
    for (gi, w) in unknowns:
        g = dist.generators[gi]
        mono = GradedFunction.monomial(sig, w, Poly.one(sig.m0))
        col = {}
        for c, val in g.actions.items():
            pv = mono.mul(val)
            for w2, coeff in pv.terms.items():
                col[(c, w2)] = coeff
                rows_seen.setdefault((c, w2), None)
        columns.append(col)
    rhs_map = {}
    for c, val in x.actions.items():
        for w2, coeff in val.terms.items():
            rhs_map[(c, w2)] = coeff
            rows_seen.setdefault((c, w2), None)
    row_keys = sorted(
        rows_seen,
        key=lambda cw: (sum(g[0] for g in cw[1]), coord_sort_key(cw[0]), cw[1]),
    )
    return unknowns, columns, rhs_map, row_keys, capped


def membership(x: VectorField, dist: Distribution) -> MembershipCertificate:
    """Decide whether x lies in the span of the generators over the chart algebra.

    A generator whose coefficient would pass the chart's degree cap is left
    out; if one was and the others do not reach x, the answer is unknown
    below the cap, and `DegreeOverflow` is raised instead of a refutation."""
    sig = dist.sig
    if x.is_zero():
        return MembershipCertificate(True, [GradedFunction.zero(sig) for _ in dist.generators])
    if x.degree > 0:
        return MembershipCertificate(False, witness=("degree", x.degree))
    unknowns, columns, rhs_map, row_keys, capped = _membership_system(x, dist)

    def refuted(witness):
        if capped:
            raise DegreeOverflow("membership coefficient degree exceeds the cap")
        return MembershipCertificate(False, witness=witness)

    if not unknowns:
        return refuted(("degree", row_keys[0] if row_keys else None))
    nv = sig.m0
    mat = PolyMatrix.zero(len(row_keys), len(unknowns), nv)
    rhs = []
    for r, key in enumerate(row_keys):
        for cidx, col in enumerate(columns):
            p = col.get(key)
            if p is not None:
                mat.entries[r][cidx] = p
        rhs.append(rhs_map.get(key, Poly.zero(nv)))
    sol, bad_row = poly_solve(mat, rhs)
    if sol is None:
        c, w = row_keys[bad_row]
        return refuted(("inconsistent", (coord_name(sig, c), w)))
    coeff_terms = [{} for _ in dist.generators]
    for (gi, w), p in zip(unknowns, sol):
        if p is None:
            return refuted(("nonpolynomial", (gi, w)))
        coeff_terms[gi][w] = p
    coeff_fns = [GradedFunction(sig, terms) for terms in coeff_terms]
    # exact re-expansion check
    acc = VectorField.zero(sig, x.degree)
    for f, g in zip(coeff_fns, dist.generators):
        if not f.is_zero():
            acc = acc.add(g.scale(f))
    if acc != x:
        return refuted(("inconsistent", ("re-expansion", ())))
    return MembershipCertificate(True, coeff_fns)


@dataclass
class InvolutivityReport:
    involutive: bool
    failing_pair: Optional[tuple] = None
    witness: Optional[VectorField] = None
    certificate: Optional[MembershipCertificate] = None

    def __bool__(self):
        return self.involutive


def is_involutive(dist: Distribution) -> InvolutivityReport:
    """Close the generators under brackets; odd generators also self-bracket.
    Run once per distribution and kept on it, so `frobenius_normal_form`
    reads the check its caller has usually just made."""
    if dist._involutivity is None:
        dist._involutivity = _close_under_brackets(dist)
    return dist._involutivity


def _close_under_brackets(dist: Distribution) -> InvolutivityReport:
    gens = dist.generators
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            if i == j and (-gens[i].degree) % 2 == 0:
                continue  # even self-brackets vanish identically
            b = bracket(gens[i], gens[j])
            if b.is_zero():
                continue
            cert = membership(b, dist)
            if not cert.ok:
                return InvolutivityReport(False, (i, j), b, cert)
    return InvolutivityReport(True)


def restrict_distribution(dist: Distribution, r: int) -> Distribution:
    """Distribution induced on the r-truncated chart."""
    from .fields import restrict_truncation

    gens = []
    for g in dist.generators:
        if -g.degree <= r:
            gens.append(restrict_truncation(g, r))
    sig = dist.sig.truncate(r)
    return make_distribution(gens, dist.sample_points, sig=sig)


# --- the antiderivative engine --------------------------------------------------


def graded_antiderivative(g: GradedFunction, e: GenId) -> GradedFunction:
    """Right inverse of the coordinate derivative along a generator.

    For an odd generator the input must not depend on it, and the result is
    the product; for an even generator each power integrates termwise with an
    exact rational weight."""
    sig = g.sig
    if sig.parity(e):
        if not g.derivative_gen(e).is_zero():
            raise ValueError(
                f"odd antiderivative needs input independent of {sig.gen_name(e)}"
            )
        return GradedFunction.from_gen(sig, e).mul(g)
    return GradedFunction(sig, {w + (e,): c.scale(Fraction(1, w.count(e) + 1))
                                for w, c in g.terms.items()})


# --- normal form ----------------------------------------------------------------


@dataclass
class FrobeniusChart:
    """Invertible coordinate change flattening an involutive distribution."""

    sig: GradedSignature
    new_in_old: ChartMap
    old_in_new: ChartMap
    flattened: list  # coordinates of the flat fields, one per generator
    transformed_generators: list
    sample_points: list
    span_preserved: bool
    inverse_ok: bool

    def substitution_table(self) -> dict:
        """New coordinate functions written in the old coordinates."""
        return self._table(self.new_in_old)

    def inverse_table(self) -> dict:
        """Old coordinate functions written in the new coordinates."""
        return self._table(self.old_in_new)

    def _table(self, cmap: ChartMap) -> dict:
        return {coord_name(self.sig, c): cmap.image(c).to_string()
                for c in all_coords(self.sig) if not cmap.fixes(c)}


class _Flattening:
    """Running state of the normal form: the cumulative substitution and its
    inverse, the generators in the current coordinates, and the coordinate
    each flattened generator has become."""

    def __init__(self, dist: Distribution):
        self.sig = sig = dist.sig
        self.ident = ident = ChartMap.identity(sig)
        self.total_nio, self.total_oin = (_chart_map(sig, sig, ident.base, ident.gens)
                                          for _ in range(2))
        self.gens = list(dist.generators)
        self.flat_of: Dict[int, Coord] = {}

    def step(self, gmap: Dict[GenId, GradedFunction], inv_gmap: Dict[GenId, GradedFunction],
             base: Optional[list] = None, inv_base: Optional[list] = None):
        """Push one substitution and its inverse through the cumulative maps and
        all generators.

        The step sends the generators in `gmap` to their images, every other
        generator to itself, and the base coordinates to `base` (default: to
        themselves); `inv_gmap` and `inv_base` give its inverse the same way.
        Each caller builds that inverse in closed form from the data of its
        step.  Both maps fix every coordinate the arguments do not name, so
        both composites are checked to be the identity here on the named
        coordinates alone, with no composite map built.  A step that, with
        its inverse, fixes every named coordinate (an alignment of generators
        already aligned, a frame equal to I) changes nothing and is skipped.
        The given images are checked to be homogeneous; the identity's
        images that fill both maps out are not checked again."""
        sig, ident = self.sig, self.ident
        pairs = ((gmap, base), (inv_gmap, inv_base))
        for g, b in pairs:
            _check_images(sig, b or (), g)
        step, inverse = (_chart_map(sig, sig, b or ident.base, {**ident.gens, **g})
                         for g, b in pairs)
        named = [gen_coord(g) for g in {**gmap, **inv_gmap}]
        if base or inv_base:
            named += [base_coord(a) for a in range(sig.m0)]
        if all(step.fixes(c) and inverse.fixes(c) for c in named):
            return
        for c in named:
            if (inverse.apply_to(step.image(c)) != ident.image(c)
                    or step.apply_to(inverse.image(c)) != ident.image(c)):
                raise NonPolynomialFlatFrame("substitution inverse verification failed")
        self.total_nio = step.after(self.total_nio)
        self.total_oin = self.total_oin.after(inverse)
        self.gens = [transform_field(g, step, inverse) for g in self.gens]

    def linear_step(self, words: list, rows: Dict[GenId, int], m: PolyMatrix, degree: int):
        """The step sending generator g to the words weighted by row rows[g]
        of m; its inverse reads the same rows of the polynomial inverse of m.
        For m = I each generator goes to itself: no inverse is computed."""
        if m == PolyMatrix.identity(m.rows, m.nvars):
            return
        inv = poly_inverse(m)
        if inv is None:
            raise NonPolynomialFlatFrame(f"degree {degree} linear block has no polynomial inverse")
        self.step(*({g: GradedFunction(self.sig, dict(zip(words, a.entries[r])))
                     for g, r in rows.items()} for a in (m, inv)))


def _linear_base(sig: GradedSignature, m: list) -> list:
    """Base images x_b -> sum over a of m[b][a] * x_a, for a constant matrix m."""
    nv = sig.m0
    units = [tuple(int(a == b) for a in range(nv)) for b in range(nv)]
    return [GradedFunction.from_poly(sig, Poly(nv, dict(zip(units, row)))) for row in m]


def _unimodular_alignment(a_rows: list, m: int, nv: int):
    """Unimodular T with T . transpose(A) = [I; 0] for a full-row-rank A.

    One Gauss-Jordan pass over the rows of [transpose(A) | I].  The pivot of
    column c is the first row at or below c whose entry in that column is a
    nonzero constant.  Over one base variable, a column with no such entry
    runs the Euclidean algorithm on its entries at and below the diagonal:
    the entry of least degree is the pivot, and the other rows are reduced by
    division with remainder, until one nonzero entry is left.  Each round
    either lowers the least degree or leaves a single nonzero entry, so the
    loop ends without a cap; the column aligns exactly when that entry is a
    constant.  A column with no constant pivot is refused otherwise: over two
    or more base variables, a unimodular column may still need the
    Quillen-Suslin construction (Logar and Sturmfels, J. Algebra 145, 1992).

    An aligned A, transpose(A) = [I; 0] already, returns I with no pass: the
    pass would take each diagonal pivot, scale by 1 and clear nothing."""
    d = len(a_rows)
    one, zero = Poly.one(nv), Poly.zero(nv)
    if d <= m and all(p == (one if r == c else zero)
                      for r, row in enumerate(a_rows) for c, p in enumerate(row)):
        return PolyMatrix.identity(m, nv)
    rows = [[a_rows[r][c] for r in range(d)]
            + [one if i == c else zero for i in range(m)] for c in range(m)]
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


def _euclid_pivot(rows: list, col: int, m: int) -> Optional[int]:
    """Euclidean algorithm over Q[x] on the entries of column `col` in rows
    col..m-1, by row operations; the row of the one nonzero entry left, when
    it is a constant, else None."""
    while True:
        live = [r for r in range(col, m) if not rows[r][col].is_zero()]
        if not live:
            return None
        piv = min(live, key=lambda r: rows[r][col].total_degree())
        if len(live) == 1:
            return piv if rows[piv][col].is_constant() else None
        (dp,), cp = rows[piv][col].leading()
        for r in live:
            rem = rows[r][col]
            while r != piv and rem.total_degree() >= dp:
                (dr,), cr = rem.leading()
                q = Poly(1, {(dr - dp,): cr / cp})
                rows[r] = [a.sub(q.mul(b)) for a, b in zip(rows[r], rows[piv])]
                rem = rows[r][col]


def frobenius_normal_form(dist: Distribution) -> FrobeniusChart:
    """Coordinates in which the generators become leading coordinate fields.

    Stage A flattens positive-degree generators degree by degree: a
    unimodular alignment, then antiderivative substitutions.  Stage C
    straightens constant symbols by a linear base change and flattens the
    remaining connection action by the polynomial frame of `_flat_frame`,
    failing with a diagnostic outside that scope.  Both rely on the
    involutivity checked first; the result is certified two-sided."""
    inv = is_involutive(dist)
    if not inv.involutive:
        raise NotInvolutive("distribution is not closed under brackets",
                            witness=inv.witness, pair=inv.failing_pair)
    state = _Flattening(dist)
    _stage_a(state)
    zero_idx = [i for i, g in enumerate(state.gens) if g.degree == 0]
    if zero_idx:
        _stage_c(state, zero_idx)
    return _certify(state, dist)


def _stage_a(state: _Flattening):
    """Positive degrees, bottom of the tower upward.

    The degree-r generators are aligned with the leading degree-r
    coordinates and subtracted from every generator of higher degree; then
    antiderivative substitutions clear the non-flat degree-r components of
    the generators aligned before, highest degree first.

    No step needs a check: the span D of the generators stays closed under
    brackets through recombination and coordinate change.  Entering degree
    r, each generator of degree -k, k < r, acts below degree r as the
    coordinate field of its flat coordinate.  A field of D of negative
    degree is a sum of f_i times positive-degree generators, and acts on
    the flat coordinate of one of degree above -r by its f_i.  So (*) if it
    acts by 0 on the flat coordinates below degree r, it does on each
    non-flat degree-r coordinate c, as the aligned degree -r ones do.
    Brackets of generators of degree above -r act by 0 below degree r:
    - for an odd X with flat e, [X, X](c) = 2 d/de X(c) = 0 by (*), and the
      odd antiderivative applies;
    - for Y cleared after X, [X, Y](c) = d/de Y(c) = 0, so X(c) stays 0,
      and at the top each positive-degree generator is its coordinate field;
    - (stage B) for V of degree 0 and a flat e, [d/de, V] acts by 0 on the
      flat coordinates, so it is 0, and the coefficients of V lack e."""
    sig = state.sig
    for r in range(1, sig.n + 1):
        gens = state.gens
        z_idx = [i for i, g in enumerate(gens) if g.degree == -r]
        d_r, m_r = len(z_idx), sig.rank(r)
        if d_r:
            # e_(r,t) -> sum_s T[t][s] e_(r,s); T is unimodular, so its
            # inverse is polynomial
            a_rows = [[gens[i].action(gen_coord((r, t))).body() for t in range(m_r)]
                      for i in z_idx]
            ids = [(r, t) for t in range(m_r)]
            state.linear_step([(g,) for g in ids], {g: t for t, g in enumerate(ids)},
                              _unimodular_alignment(a_rows, m_r, sig.m0), r)
            gens = state.gens
            for pos, i in enumerate(z_idx):
                state.flat_of[i] = gen_coord((r, pos))
            # an aligned field acts on each flat degree-r coordinate by a
            # degree-0 function, its body 0 or 1, so this clears those
            # components from everything of higher degree, degree 0 included
            for i in range(len(gens)):
                if gens[i].degree <= -r:
                    continue
                for pos, zi in enumerate(z_idx):
                    coeff = gens[i].action(gen_coord((r, pos)))
                    if not coeff.is_zero():
                        gens[i] = gens[i].sub(gens[zi].scale(coeff))
        nonflat = [gen_coord((r, t)) for t in range(d_r, m_r)]
        for k in range(r - 1, 0, -1):
            for i in [i for i, g in enumerate(state.gens) if g.degree == -k]:
                e_s = state.flat_of[i][1]
                for c in nonflat:
                    g_val = state.gens[i].action(c)
                    if g_val.is_zero():
                        continue
                    # G has degree r and is built from e_s (degree k < r), so
                    # it holds no degree-r generator: c -> c + G undoes c -> c - G
                    big_g = graded_antiderivative(g_val, e_s)
                    e_c = GradedFunction.from_gen(sig, c[1])
                    state.step({c[1]: e_c.sub(big_g)}, {c[1]: e_c.add(big_g)})


def _stage_c(state: _Flattening, zero_idx: list):
    """Straighten the constant symbols of the degree-0 generators by a linear
    base change, then flatten their connection action on the non-flat
    generators degree by degree, by the frame of `_flat_frame`.

    No step needs a check either.  Straightened, V_a acts on x_b by 1 if
    a = b, else 0, and by 0 on the flat generator coordinates (stage A), so:
    - [V_a, V_b] acts by 0 on every flat coordinate, x_a included, on which
      a degree-0 field of D acts by its coefficients: it is 0;
    - V_a has coefficients free of the flat coordinates (stage B), so it
      maps non-flat words to non-flat words of the same degree;
    - for the new c' = sum_t F[t][c] w_t, V_a(c') is the sum over s of
      (d_a F + A_a F)[s][c] w_s, 0 by `_flat_frame`: V_a ends as d/dx_a."""
    sig, gens = state.sig, state.gens
    nv, d0 = sig.m0, len(zero_idx)
    sym = [[gens[i].action(base_coord(a)).body() for a in range(nv)] for i in zero_idx]
    bad = next((p for row in sym for p in row if not p.is_constant()), None)
    if bad is not None:
        raise NonConstantSymbols(f"symbol entry {bad.to_string(sig.base_names)} is not constant")
    # reducing [sym | I] gives rref = coeffs * sym in its two blocks; the
    # rows of sym are independent, so these constant combinations of the
    # generators are the unique ones that realize the reduction
    red, pivots = rat_rref([[p.constant_value() for p in row]
                            + [Fraction(int(r == s)) for s in range(d0)]
                            for r, row in enumerate(sym)])
    if pivots[-1] >= nv:
        raise HypothesisFailed("degree-0 symbols are dependent over the base")
    rref = [row[:nv] for row in red]
    new_zero = []
    for row in red:
        f = VectorField.zero(sig, 0)
        for s, c in enumerate(row[nv:]):
            if c != 0:
                f = f.add(gens[zero_idx[s]].scale(c))
        new_zero.append(f)
    for i, f in zip(zero_idx, new_zero):
        gens[i] = f
    # base change sending the pivot directions to the leading coordinates
    comp = _complete_to_invertible(rref, pivots, nv)
    state.step({}, {}, _linear_base(sig, rat_inverse(comp)), _linear_base(sig, comp))
    for pos, i in enumerate(zero_idx):
        state.flat_of[i] = base_coord(pos)
    flat = set(state.flat_of.values())
    nonflat_ids = [g for g in sig.gen_ids() if gen_coord(g) not in flat]
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
                img = state.gens[i].apply(GradedFunction.monomial(sig, w, Poly.one(nv)))
                for w2, coeff in img.terms.items():
                    mat[windex[w2]][bcol] = coeff
            a_mats.append(PolyMatrix(n_w, n_w, mat, nv))
        f_total = _flat_frame(a_mats, n_w, d0, nv)
        # the step fixes the lower-degree generators, so on the degree-d
        # words it is linear over Q[x]: each generator goes to its column of
        # the frame and each product to itself, i.e. to its row of the
        # transposed frame
        rows = {g: windex[(g,)] for g in ids}
        m = PolyMatrix.identity(n_w, nv)
        for r in rows.values():
            m.entries[r] = f_total.col(r)
        state.linear_step(words, rows, m, degree)


def _certify(state: _Flattening, dist: Distribution) -> FrobeniusChart:
    """The chart of the final state, with its span and inverse checks; the
    span is checked on the original generators, pushed through."""
    sig, total_nio, total_oin = state.sig, state.total_nio, state.total_oin
    flattened = [state.flat_of[i] for i in range(len(state.gens))]
    new_points = [tuple(total_nio.base[b].body_eval(p) for b in range(sig.m0))
                  for p in dist.sample_points]
    moved = [transform_field(g, total_nio, total_oin) for g in dist.generators]
    inverse_ok = (total_nio.after(total_oin).is_identity()
                  and total_oin.after(total_nio).is_identity())
    return FrobeniusChart(sig, total_nio, total_oin, flattened, moved, new_points,
                          _spans_coordinate_fields(sig, moved, flattened), inverse_ok)


def _spans_coordinate_fields(sig: GradedSignature, fields: list, coords: list) -> bool:
    """Whether the fields span the module of the coordinate fields of
    `coords`, coordinate i of the degree of field i: each acts by 0 outside
    `coords`, and M[i][j] = fields[i](coords[j]), block-triangular by
    degree, has diagonal blocks (over Q[x]) with polynomial inverses."""
    if not all(set(f.actions) <= set(coords) for f in fields):
        return False
    blocks = [[i for i, f in enumerate(fields) if f.degree == d]
              for d in {f.degree for f in fields}]
    return all(poly_inverse(PolyMatrix(len(b), len(b), [
        [fields[i].action(coords[j]).body() for j in b] for i in b], sig.m0)) is not None
        for b in blocks)


def _complete_to_invertible(rref_rows: list, pivots: list, nv: int) -> list:
    """Invertible matrix whose first columns are the transposed reduced rows."""
    cols = [list(r) for r in rref_rows] + [[Fraction(int(i == c)) for i in range(nv)]
                                           for c in range(nv) if c not in pivots]
    return [[cols[j][i] for j in range(nv)] for i in range(nv)]


def _flat_frame(a_mats: list, n_w: int, d0: int, nv: int) -> PolyMatrix:
    """Polynomial solution frame of the commuting connection system.

    Solves one direction a at a time for the frame F with F = I at x_a = 0
    and d_a F + A_a F = 0.  The k-th Picard iterate, truncated to
    x_a-degree k, is the Taylor polynomial of F of that degree, so the first
    one that solves the equation exactly is F, by uniqueness.  The degree
    is capped at (4 n_w + 8)(p + 1) for A_a of x_a-degree p, the degree
    that 4 n_w + 8 untruncated Picard rounds can reach; past it the
    direction is refused with the cap.  Later directions are gauged by each
    frame found, and the product is verified against the original
    connection matrices.

    Each direction first tests the trace, with no Taylor step.  By
    Liouville's formula d_a det F = -tr(A_a) det F, and det F is a
    polynomial equal to 1 at x_a = 0, so tr(A_a) != 0 would give the right
    side a higher x_a-degree than the left: no polynomial frame of any
    degree exists, none up to the cap either, and the direction gets the
    cap's refusal.  The gauge keeps the trace, each frame having det 1."""
    ident = PolyMatrix.identity(n_w, nv)
    f_total = ident
    current = list(a_mats)
    for a in range(d0):
        p = max((e[a] for row in current[a].entries for q in row for e in q.terms), default=0)
        cap = (4 * n_w + 8) * (p + 1)
        refusal = NonPolynomialFlatFrame(
            f"connection integration found no flat frame of degree at most {cap}"
            f" in base direction {a}")
        if not _trace_free(current[a]):
            raise refusal
        f_a = ident
        for k in range(1, cap + 2):
            prod = current[a].mul(f_a)
            if f_a.map_entries(lambda q: q.derivative(a)).add(prod).is_zero():
                break
            f_a = ident.sub(prod.map_entries(lambda q: Poly(nv, {
                e: c for e, c in q.antiderivative(a).terms.items() if e[a] <= k})))
        else:
            raise refusal
        f_a_inv = poly_inverse(f_a)
        if f_a_inv is None:
            raise NonPolynomialFlatFrame("gauge frame has no polynomial inverse")
        for b in range(a + 1, d0):
            d_b = f_a.map_entries(lambda q: q.derivative(b))
            current[b] = f_a_inv.mul(d_b.add(current[b].mul(f_a)))
        f_total = f_total.mul(f_a)
    # final verification against the original connection matrices
    for a in range(d0):
        residual = f_total.map_entries(lambda q: q.derivative(a)).add(a_mats[a].mul(f_total))
        if not residual.is_zero():
            raise NonPolynomialFlatFrame("flat frame verification failed")
    return f_total


def _trace_free(m: PolyMatrix) -> bool:
    """Whether a square matrix has trace zero."""
    return not sum((row[i] for i, row in enumerate(m.entries)), Poly.zero(m.nvars))


def single_field_normal_form(x: VectorField, lam: GradedFunction,
                             point: Sequence) -> FrobeniusChart:
    """Normal form of one homogeneous field with self-bracket proportional to it."""
    if x.degree > 0:
        raise DegreeMismatch("only non-positive fields generate distributions")
    if tangent_at(x, point).is_zero():
        raise HypothesisFailed("field has vanishing tangent vector at the base point")
    if bracket(x, x) != x.scale(lam):
        raise HypothesisFailed("self-bracket is not the declared multiple of the field")
    dist = make_distribution([x], [point])
    return frobenius_normal_form(dist)
