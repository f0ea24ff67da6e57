"""Distributions, the membership decision procedure, and Frobenius normal forms.

Membership expands the query and the generators over the free coordinate-field
basis and solves degree by degree over the fraction field; a coefficient
whose exact division by the pivot determinant fails is reported as
"nonpolynomial" instead of approximated.  The normal-form pipeline
flattens positive-degree generators by exact antiderivative substitutions,
reduces degree-0 generators modulo the flat ones, straightens constant
symbols by a linear base change, and integrates the remaining connection
terms through a terminating Picard iteration.  Cases outside the
algebraically solvable scope fail loudly with a precise diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Homogeneous generator fields grouped by degree, with certified samples."""

    def __init__(self, sig: GradedSignature, generators: Sequence[VectorField],
                 sample_points: Sequence):
        self.sig = sig
        self.generators = list(generators)
        self.sample_points = [tuple(Fraction(v) for v in p) for p in sample_points]

    def ranks(self) -> list:
        out = [0] * (self.sig.n + 1)
        for g in self.generators:
            out[-g.degree] += 1
        return out

    def by_degree(self, k: int) -> list:
        """Generators of degree -k."""
        return [g for g in self.generators if g.degree == -k]

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
    ordered with the body layer first.
    """
    sig = dist.sig
    q = -x.degree
    unknowns = []  # (generator index, word)
    for gi, g in enumerate(dist.generators):
        delta = (-g.degree) - q
        if delta < 0:
            continue
        if delta > sig.max_degree:
            raise DegreeOverflow("membership coefficient degree exceeds the cap")
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
    return unknowns, columns, rhs_map, row_keys


def membership(x: VectorField, dist: Distribution) -> MembershipCertificate:
    """Decide whether x lies in the span of the generators over the chart algebra."""
    sig = dist.sig
    if x.is_zero():
        return MembershipCertificate(True, [GradedFunction.zero(sig) for _ in dist.generators])
    if x.degree > 0:
        return MembershipCertificate(False, witness=("degree", x.degree))
    unknowns, columns, rhs_map, row_keys = _membership_system(x, dist)
    if not unknowns:
        first_bad = row_keys[0] if row_keys else None
        return MembershipCertificate(False, witness=("degree", first_bad))
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
        return MembershipCertificate(
            False, witness=("inconsistent", (coord_name(sig, c), w))
        )
    coeff_fns = [GradedFunction.zero(sig) for _ in dist.generators]
    for (gi, w), p in zip(unknowns, sol):
        if p is None:
            return MembershipCertificate(False, witness=("nonpolynomial", (gi, w)))
        if not p.is_zero():
            coeff_fns[gi] = coeff_fns[gi].add(GradedFunction.monomial(sig, w, p))
    # exact re-expansion check
    acc = VectorField.zero(sig, x.degree)
    for f, g in zip(coeff_fns, dist.generators):
        if not f.is_zero():
            acc = acc.add(g.scale(f))
    if acc != x:
        return MembershipCertificate(False, witness=("inconsistent", ("re-expansion", ())))
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
    """Close the generators under brackets; odd generators also self-bracket."""
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
    out = GradedFunction.zero(sig)
    for w, c in g.terms.items():
        t = w.count(e)
        out = out.add(GradedFunction.monomial(sig, w + (e,), c.scale(Fraction(1, t + 1))))
    return out


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
        out = {}
        for c in all_coords(self.sig):
            img = self.new_in_old.image(c)
            name = coord_name(self.sig, c)
            if img != _coordinate_function(self.sig, c):
                out[name] = img.to_string()
        return out

    def inverse_table(self) -> dict:
        """Old coordinate functions written in the new coordinates."""
        out = {}
        for c in all_coords(self.sig):
            img = self.old_in_new.image(c)
            name = coord_name(self.sig, c)
            if img != _coordinate_function(self.sig, c):
                out[name] = img.to_string()
        return out


def _coordinate_function(sig: GradedSignature, c: Coord) -> GradedFunction:
    if c[0] == "x":
        return GradedFunction.base_var(sig, c[1])
    return GradedFunction.from_gen(sig, c[1])


def _identity_maps(sig: GradedSignature):
    return ChartMap.identity(sig), ChartMap.identity(sig)


def _apply_step(state, step_new_in_old: ChartMap, step_old_in_new: ChartMap):
    """Push one substitution through the cumulative maps and all generators."""
    total_nio, total_oin, gens = state
    total_nio = step_new_in_old.after(total_nio)
    total_oin = total_oin.after(step_old_in_new)
    gens = [transform_field(g, step_new_in_old, step_old_in_new) for g in gens]
    return total_nio, total_oin, gens


def _gen_map_with(sig: GradedSignature, overrides: Dict[GenId, GradedFunction]):
    out = {g: GradedFunction.from_gen(sig, g) for g in sig.gen_ids()}
    out.update(overrides)
    return out


def _base_identity(sig: GradedSignature):
    return [GradedFunction.base_var(sig, a) for a in range(sig.m0)]


def _unimodular_alignment(a_rows: list, m: int, nv: int):
    """Unimodular T with T . transpose(A) = [I; 0] for a full-row-rank A.

    Pivots must be manufacturable as nonzero constants by polynomial row
    operations; otherwise the alignment leaves the polynomial scope."""
    d = len(a_rows)
    mat = [[a_rows[r][c] for r in range(d)] for c in range(m)]  # m x d, transpose
    t = [[Poly.const(nv, 1 if i == j else 0) for j in range(m)] for i in range(m)]

    def row_op(dst, src, coeff: Poly):
        for j in range(d):
            mat[dst][j] = mat[dst][j].sub(coeff.mul(mat[src][j]))
        for j in range(m):
            t[dst][j] = t[dst][j].sub(coeff.mul(t[src][j]))

    def row_scale(r, c: Fraction):
        for j in range(d):
            mat[r][j] = mat[r][j].scale(c)
        for j in range(m):
            t[r][j] = t[r][j].scale(c)

    def row_swap(r1, r2):
        mat[r1], mat[r2] = mat[r2], mat[r1]
        t[r1], t[r2] = t[r2], t[r1]

    for col in range(d):
        piv = None
        for r in range(col, m):
            if mat[r][col].is_constant() and not mat[r][col].is_zero():
                piv = r
                break
        if piv is None:
            # try to manufacture a constant pivot by polynomial reductions
            for _ in range(40):
                nz = [r for r in range(col, m) if not mat[r][col].is_zero()]
                if not nz:
                    break
                nz.sort(key=lambda r: mat[r][col].total_degree())
                done = False
                for r in nz:
                    if mat[r][col].is_constant():
                        piv = r
                        done = True
                        break
                if done:
                    break
                if len(nz) < 2:
                    break
                r_small = nz[0]
                reduced = False
                for r in nz[1:]:
                    quot = mat[r][col].div_exact(mat[r_small][col])
                    if quot is not None:
                        row_op(r, r_small, quot)
                        reduced = True
                        break
                if not reduced:
                    break
        if piv is None:
            raise NonPolynomialFlatFrame(
                "no unimodular polynomial alignment: a constant pivot is unavailable"
            )
        if piv != col:
            row_swap(piv, col)
        row_scale(col, 1 / mat[col][col].constant_value())
        for r in range(m):
            if r != col and not mat[r][col].is_zero():
                row_op(r, col, mat[r][col])
    return PolyMatrix(m, m, t, nv)


def _invert_chart_map(m: ChartMap) -> ChartMap:
    """Inverse of a graded-triangular substitution with affine base part.

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
        lmat_new = lmat.map_entries(lambda p: _compose_base(p, inv_base, sig))
        linv = poly_inverse(lmat_new)
        if linv is None:
            raise NonPolynomialFlatFrame(
                f"degree {degree} linear block has no polynomial inverse"
            )
        # corrections involve strictly lower degrees: rewrite through the
        # already inverted coordinates
        rewritten = [
            c.substitute(sig, inv_base, _gen_map_with(sig, inv_gens)) for c in corr
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
    out = ChartMap(sig, sig, inv_base, _gen_map_with(sig, inv_gens))
    if not m.after(out).is_identity() or not out.after(m).is_identity():
        raise NonPolynomialFlatFrame("substitution inverse verification failed")
    return out


def _compose_base(p: Poly, base_images: list, sig: GradedSignature) -> Poly:
    subs = [f.body() for f in base_images]
    return p.compose(subs) if sig.m0 else p


def frobenius_normal_form(dist: Distribution) -> FrobeniusChart:
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
    total_nio, total_oin = _identity_maps(sig)
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
            t_mat = _unimodular_alignment(a_rows, m_r, nv)
            gmap = {}
            for gnew in range(m_r):
                f = GradedFunction.zero(sig)
                for gold in range(m_r):
                    p = t_mat.entries[gnew][gold]
                    if not p.is_zero():
                        f = f.add(GradedFunction.from_gen(sig, (r, gold)).scale(p))
                gmap[(r, gnew)] = f
            step_nio = ChartMap(sig, sig, _base_identity(sig), _gen_map_with(sig, gmap))
            step_oin = _invert_chart_map(step_nio)
            total_nio, total_oin, gens = _apply_step((total_nio, total_oin, gens),
                                                     step_nio, step_oin)
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
                    big_g = graded_antiderivative(g_val, e_s)
                    gmap = {c[1]: GradedFunction.from_gen(sig, c[1]).sub(big_g)}
                    step_nio = ChartMap(sig, sig, _base_identity(sig),
                                        _gen_map_with(sig, gmap))
                    step_oin = _invert_chart_map(step_nio)
                    total_nio, total_oin, gens = _apply_step(
                        (total_nio, total_oin, gens), step_nio, step_oin)
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
        s_inv = rat_inverse(comp)
        base_new = []
        for b in range(nv):
            f = GradedFunction.constant(sig, 0)
            for g in range(nv):
                if s_inv[b][g] != 0:
                    f = f.add(GradedFunction.base_var(sig, g).scale(s_inv[b][g]))
            base_new.append(f)
        step_nio = ChartMap(sig, sig, base_new, _gen_map_with(sig, {}))
        step_oin = _invert_chart_map(step_nio)
        total_nio, total_oin, gens = _apply_step((total_nio, total_oin, gens),
                                                 step_nio, step_oin)
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
        gen_over: Dict[GenId, GradedFunction] = {}
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
            gmap = {}
            for g in ids:
                s_pos = windex[(g,)]
                f = GradedFunction.zero(sig)
                for row, w in enumerate(words):
                    p = f_total.entries[row][s_pos]
                    if not p.is_zero():
                        f = f.add(GradedFunction.monomial(sig, w, p))
                gmap[g] = f
            step_nio = ChartMap(sig, sig, _base_identity(sig), _gen_map_with(sig, gmap))
            step_oin = _invert_chart_map(step_nio)
            total_nio, total_oin, gens = _apply_step((total_nio, total_oin, gens),
                                                     step_nio, step_oin)
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
