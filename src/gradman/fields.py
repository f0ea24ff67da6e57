"""Graded vector fields as derivations of a chart algebra.

A field is stored by its action on every coordinate; the Leibniz rule then
extends it to arbitrary functions, and brackets reduce to finite coordinate
computations.  Tangent vectors arise by body evaluation, so only fields of
non-positive degree can have nonzero tangents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .errors import DegreeMismatch, SignatureMismatch
from .exactnum import Poly, PolyMatrix, accumulate, rank_at
from .gradedring import GenId, GradedFunction, GradedSignature, _gf

Coord = Tuple  # ("x", alpha) or ("g", (deg, idx))


def base_coord(alpha: int) -> Coord:
    return ("x", alpha)


def gen_coord(g: GenId) -> Coord:
    return ("g", g)


def coord_degree(c: Coord) -> int:
    return 0 if c[0] == "x" else c[1][0]


def coord_sort_key(c: Coord):
    if c[0] == "x":
        return (0, 0, c[1])
    return (1, c[1][0], c[1][1])


def all_coords(sig: GradedSignature) -> list:
    return [base_coord(a) for a in range(sig.m0)] + [gen_coord(g) for g in sig.gen_ids()]


def coord_name(sig: GradedSignature, c: Coord) -> str:
    return sig.base_names[c[1]] if c[0] == "x" else sig.gen_name(c[1])


class VectorField:
    """Homogeneous derivation stored by its coordinate action table."""

    __slots__ = ("sig", "degree", "actions")

    def __init__(self, sig: GradedSignature, degree: int, actions: Dict[Coord, GradedFunction]):
        self.sig = sig
        self.degree = degree
        clean: Dict[Coord, GradedFunction] = {}
        for c, f in actions.items():
            if f.is_zero():
                continue
            target = coord_degree(c) + degree
            if target < 0:
                raise DegreeMismatch(
                    f"action on {coord_name(sig, c)} would have negative degree {target}"
                )
            if not f.is_homogeneous(target):
                raise DegreeMismatch(
                    f"action on {coord_name(sig, c)} must be homogeneous of degree {target}"
                )
            clean[c] = f
        self.actions = clean

    # --- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, sig: GradedSignature, degree: int = 0) -> "VectorField":
        return cls(sig, degree, {})

    @classmethod
    def coordinate_field(cls, sig: GradedSignature, c: Coord) -> "VectorField":
        one = GradedFunction.one(sig)
        return cls(sig, -coord_degree(c), {c: one})

    # --- algebra ----------------------------------------------------------

    def action(self, c: Coord) -> GradedFunction:
        return self.actions.get(c, GradedFunction.zero(self.sig))

    def is_zero(self) -> bool:
        return not self.actions

    def add(self, other: "VectorField") -> "VectorField":
        if self.sig != other.sig:
            raise SignatureMismatch("fields live on different charts")
        if not self.is_zero() and not other.is_zero() and self.degree != other.degree:
            raise DegreeMismatch("cannot add fields of different degrees")
        degree = other.degree if self.is_zero() else self.degree
        actions = dict(self.actions)
        for c, f in other.actions.items():
            accumulate(actions, c, f)
        return VectorField(self.sig, degree, actions)

    def neg(self) -> "VectorField":
        return VectorField(self.sig, self.degree, {c: f.neg() for c, f in self.actions.items()})

    def sub(self, other: "VectorField") -> "VectorField":
        return self.add(other.neg())

    def scale(self, f) -> "VectorField":
        """Module action: multiply by a scalar or a homogeneous function."""
        if isinstance(f, GradedFunction):
            if f.is_zero():
                return VectorField.zero(self.sig, self.degree)
            d = f.homogeneous_degree()
            if d is None:
                raise DegreeMismatch("can only scale by a homogeneous function")
            return VectorField(
                self.sig, self.degree + d,
                {c: f.mul(g) for c, g in self.actions.items()},
            )
        return VectorField(self.sig, self.degree,
                           {c: g.scale(Fraction(f)) for c, g in self.actions.items()})

    def apply(self, f: GradedFunction) -> GradedFunction:
        """Leibniz extension of the coordinate table."""
        if f.sig != self.sig:
            raise SignatureMismatch("function lives on a different chart")
        terms: dict = {}
        for c, val in self.actions.items():
            d = f.derivative_base(c[1]) if c[0] == "x" else f.derivative_gen(c[1])
            if d:
                for w, p in val.mul(d).terms.items():
                    accumulate(terms, w, p)
        return _gf(self.sig, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorField)
            and self.sig == other.sig
            and self.actions == other.actions
            and (self.is_zero() or other.is_zero() or self.degree == other.degree)
        )

    def __repr__(self):
        items = ", ".join(
            f"d/d{coord_name(self.sig, c)} = {f.to_string()}"
            for c, f in sorted(self.actions.items(), key=lambda kv: coord_sort_key(kv[0]))
        )
        return f"VectorField(deg {self.degree}: {items})"

    def table(self) -> dict:
        """Printable coordinate-action table."""
        return {
            coord_name(self.sig, c): f.to_string()
            for c, f in sorted(self.actions.items(), key=lambda kv: coord_sort_key(kv[0]))
        }


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Graded commutator, represented by its coordinate actions.

    Only the coordinates that X or Y acts on are visited: on any other c
    both terms of [X, Y](c) apply a field to a zero action.
    """
    if x.sig != y.sig:
        raise SignatureMismatch("fields live on different charts")
    sign = -1 if (x.degree * y.degree) % 2 else 1
    actions: Dict[Coord, GradedFunction] = {}
    for c in set(x.actions) | set(y.actions):
        target = coord_degree(c) + x.degree + y.degree
        if target < 0:
            continue
        f = x.apply(y.action(c)).sub(y.apply(x.action(c)).scale(sign))
        if not f.is_zero():
            actions[c] = f
    return VectorField(x.sig, x.degree + y.degree, actions)


@dataclass
class TangentVector:
    point: tuple
    components: dict  # Coord -> Fraction

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.components.values())


def tangent_at(x: VectorField, point: Sequence) -> TangentVector:
    """Body evaluation of every coordinate action."""
    pt = tuple(Fraction(v) for v in point)
    comps = {}
    for c in all_coords(x.sig):
        comps[c] = x.action(c).body_eval(pt)
    return TangentVector(pt, comps)


def linearly_independent(fields: Sequence[VectorField], points: Sequence) -> bool:
    """Pointwise independence of tangent vectors at every supplied point."""
    if not fields:
        return True
    sig = fields[0].sig
    rows = [[f.action(c).body() for f in fields] for c in all_coords(sig)]
    m = PolyMatrix(len(rows), len(fields), rows, sig.m0)
    return all(rank_at(m, p) == len(fields) for p in points)


def is_homological(q: VectorField) -> bool:
    """Decide exactly whether the degree-1 field q satisfies [Q,Q] = 0.

    On a chart with no base coordinates whose only generators are at most
    two of degree 1, every degree-1 field passes: that chart has no
    degree-3 part, and [Q,Q](c) has degree 3 for each coordinate c.
    """
    if q.degree != 1:
        raise DegreeMismatch("homological check needs a degree 1 field")
    return bracket(q, q).is_zero()


def homological_witness(q: VectorField) -> Optional[VectorField]:
    """The self-bracket [Q,Q] = 2Q^2 when nonzero, as the obstruction witness.

    For a degree-1 field it returns None exactly when is_homological(q)
    holds, so on a chart with no base coordinates and at most two
    generators, all of degree 1, it returns None for every degree-1 field.
    """
    b = bracket(q, q)
    return None if b.is_zero() else b


def restrict_truncation(x: VectorField, r: int) -> VectorField:
    """Restriction to the subalgebra generated by coordinates of degree <= r."""
    if x.degree > 0:
        raise DegreeMismatch("only non-positive fields restrict to truncations")
    tsig = x.sig.truncate(r)
    actions = {}
    for c, f in x.actions.items():
        if coord_degree(c) > r:
            continue
        actions[c if c[0] == "x" else gen_coord(c[1])] = f.truncate_to(tsig)
    return VectorField(tsig, x.degree, actions)


# --- coordinate changes -------------------------------------------------------


class ChartMap:
    """Coordinate substitution: images of every coordinate on a target chart.

    The constructor checks that each image is homogeneous of its
    coordinate's degree.  `identity` and `after` build through `_chart_map`,
    which checks nothing: their images are homogeneous already, since
    substitution is a ring homomorphism.  Callers may assign into `.base`
    and `.gens` after construction, unchecked, so whether a coordinate is
    fixed is read from them at each `fixes` call, and `after` composes
    whatever images they hold."""

    def __init__(self, source: GradedSignature, target: GradedSignature,
                 base: Sequence[GradedFunction], gens: Dict[GenId, GradedFunction]):
        self.source = source
        self.target = target
        self.base = list(base)
        self.gens = dict(gens)
        _check_images(source, self.base, self.gens)

    @classmethod
    def identity(cls, sig: GradedSignature) -> "ChartMap":
        return _chart_map(
            sig, sig,
            [GradedFunction.base_var(sig, a) for a in range(sig.m0)],
            {g: GradedFunction.from_gen(sig, g) for g in sig.gen_ids()},
        )

    def image(self, c: Coord) -> GradedFunction:
        return self.base[c[1]] if c[0] == "x" else self.gens[c[1]]

    def fixes(self, c: Coord) -> bool:
        """Whether the image of source coordinate c is c itself.  A map that
        changes charts fixes none of its images; a generator with no image
        is not fixed, and a base coordinate past the end of `.base` is."""
        if c[0] == "x" and c[1] >= len(self.base):
            return True
        f = self.base[c[1]] if c[0] == "x" else self.gens.get(c[1])
        if self.source != self.target or f is None or len(f.terms) != 1:
            return False
        (word, p), = f.terms.items()
        (exps, coeff), = p.terms.items() if len(p.terms) == 1 else [((), 0)]
        return coeff == 1 and (word == () and sum(exps) == exps[c[1]] == 1 if c[0] == "x"
                               else word == (c[1],) and not any(exps))

    def apply_to(self, f: GradedFunction) -> GradedFunction:
        """f rewritten in the target coordinates.  On a map within one chart,
        only the terms of f whose word or coefficient involves a coordinate
        the map moves go through `GradedFunction.substitute`; the others are
        kept as they are.  A map that changes charts fixes nothing, so every
        term of f is substituted, constant terms included."""
        if f.sig != self.target or self.source != self.target:
            return f.substitute(self.target, self.base, self.gens)
        kept, moved = {}, {}
        for w, p in f.terms.items():
            used = {gen_coord(g) for g in w}
            used.update(base_coord(a) for e in p.terms for a, k in enumerate(e) if k)
            (kept if all(self.fixes(c) for c in used) else moved)[w] = p
        if not moved:
            return f
        return _gf(f.sig, kept) + _gf(f.sig, moved).substitute(self.target, self.base, self.gens)

    def after(self, inner: "ChartMap") -> "ChartMap":
        """Composite substitution: first rewrite through self, then through inner.

        A coordinate that self fixes takes inner's image; only the other
        images go through inner."""
        if inner.source != self.target:
            raise SignatureMismatch("substitutions do not compose")

        def image(c, f):
            return inner.image(c) if self.fixes(c) else inner.apply_to(f)

        return _chart_map(
            self.source, inner.target,
            [image(base_coord(a), f) for a, f in enumerate(self.base)],
            {g: image(gen_coord(g), f) for g, f in self.gens.items()},
        )

    def is_identity(self) -> bool:
        sig = self.source
        return (len(self.base) == sig.m0 and self.gens.keys() == set(sig.gen_ids())
                and all(self.fixes(c) for c in all_coords(sig)))


def _check_images(source: GradedSignature, base: Sequence[GradedFunction],
                  gens: Dict[GenId, GradedFunction]):
    """Raise `DegreeMismatch` unless every base image has degree 0 and every
    nonzero generator image has its generator's degree."""
    for f in base:
        if not f.is_homogeneous(0):
            raise DegreeMismatch("base coordinate image must have degree 0")
    for g, f in gens.items():
        if not f.is_zero() and not f.is_homogeneous(g[0]):
            raise DegreeMismatch(f"image of {source.gen_name(g)} must have degree {g[0]}")


_new = object.__new__


def _chart_map(source: GradedSignature, target: GradedSignature,
               base: Sequence[GradedFunction], gens: Dict[GenId, GradedFunction]) -> ChartMap:
    """A ChartMap on images known to be homogeneous, copied as the
    constructor copies them, without the constructor's check."""
    m = _new(ChartMap)
    m.source, m.target, m.base, m.gens = source, target, list(base), dict(gens)
    return m


def transform_field(x: VectorField, new_in_old: ChartMap, old_in_new: ChartMap) -> VectorField:
    """Coordinate table of the same derivation after a chart substitution.

    `new_in_old` expresses each new coordinate as a function of the old ones,
    `old_in_new` the converse; the new action on a coordinate is the old field
    applied to its defining function, rewritten in new coordinates.  On a
    coordinate that `new_in_old` fixes, that is the old action itself, and
    `old_in_new.apply_to` leaves an action alone when `old_in_new` fixes
    every coordinate it involves.
    """
    actions = {}
    for c in all_coords(new_in_old.source):
        val = x.action(c) if new_in_old.fixes(c) else x.apply(new_in_old.image(c))
        if not val.is_zero():
            actions[c] = old_in_new.apply_to(val)
    return VectorField(old_in_new.target, x.degree, actions)


# --- geometrized description: compatible derivations ---------------------------


class CompatDerivation:
    """Fiberwise matrices of a non-positive-degree derivation on the dual frames.

    `matrices[i]` sends the degree i dual frame to degree i + k frame
    coordinates; when i + k = 0 the row gives plain base functions.  Degree 0
    derivations also carry their base symbol."""

    def __init__(self, degree: int, bundle, matrices: Dict[int, list],
                 symbol: Optional[list] = None):
        self.degree = degree
        self.bundle = bundle
        self.matrices = matrices
        self.symbol = symbol

    def matrix(self, i: int) -> list:
        return self.matrices.get(i)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompatDerivation)
            and self.degree == other.degree
            and self.matrices == other.matrices
            and self.symbol == other.symbol
        )


def to_compat_derivation(x: VectorField, E, chart) -> CompatDerivation:
    """Frame matrices of a field on the geometrized chart of a bundle."""
    if x.degree > 0:
        raise DegreeMismatch("only non-positive fields define frame derivations")
    k = x.degree
    n = E.n
    mats: Dict[int, list] = {}
    for i in range(1, n + 1):
        target = i + k
        if target < 0:
            continue
        cols = []
        for a in range(E.rank(i)):
            g = x.apply(chart.embeddings[i][a])
            if target == 0:
                cols.append([g.body()])
            else:
                cols.append(chart.decompose(g, target))
        rows = len(cols[0]) if cols else (1 if target == 0 else E.rank(target))
        mats[i] = [[cols[a][r] for a in range(E.rank(i))] for r in range(rows)]
    symbol = None
    if k == 0:
        symbol = [x.action(base_coord(a)).body() for a in range(chart.sig.m0)]
    return CompatDerivation(k, E, mats, symbol)


def _mu_entry(E, i: int, j: int, a: int, b: int, c: int) -> Poly:
    """Structure constant of the dual multiplication on frame elements."""
    return E.mu_columns(i + j)[c].get(((i, a), (j, b)), Poly.zero(E.nvars))


def _apply_symbol(sym: list, p: Poly) -> Poly:
    """The degree-0 symbol sum_alpha sym[alpha] * d/dx_alpha applied to p."""
    out = Poly.zero(p.nvars)
    for alpha, coeff in enumerate(sym):
        if not coeff.is_zero():
            out = out.add(coeff.mul(p.derivative(alpha)))
    return out


# A dual-algebra element is a sparse dict {(degree, frame index): Poly}; the
# unit is (0, 0), so a degree-0 element is a base function times the unit.


def _frame_mul(E, u: dict, v: dict) -> dict:
    """Product of dual-algebra elements through the dual multiplication.

    The unit multiplies through the frame index; a product of frame
    elements above degree n vanishes."""
    out: dict = {}
    for (i, a), p in u.items():
        for (j, b), q in v.items():
            pq = p * q
            if not i or not j:
                accumulate(out, (i, a) if j == 0 else (j, b), pq)
            elif i + j <= E.n:
                for c in range(E.rank(i + j)):
                    e = _mu_entry(E, i, j, a, b, c)
                    if e:
                        accumulate(out, (i + j, c), pq * e)
    return out


def _derive(d: CompatDerivation, u: dict) -> dict:
    """A frame derivation applied to a dual-algebra element, by Leibniz over
    coefficient times frame element: the symbol differentiates coefficients
    (degree 0 only), the matrices send frame elements to their images.  An
    image in degree 0 is a multiple of the unit, the matrix's one row."""
    out: dict = {}
    for (i, a), p in u.items():
        if d.degree == 0 and d.symbol:
            accumulate(out, (i, a), _apply_symbol(d.symbol, p))
        for r, row in enumerate(d.matrix(i) or ()):
            if row[a]:
                accumulate(out, (i + d.degree, r), p * row[a])
    return out


def _matrix(E, t: int, cols: list) -> list:
    """Frame matrix whose columns are the given elements of degree t."""
    out = [[Poly.zero(E.nvars) for _ in cols] for _ in range(E.rank(t) if t else 1)]
    for b, col in enumerate(cols):
        for (_, r), p in col.items():
            out[r][b] = p
    return out


def compat_check(d: CompatDerivation, E) -> bool:
    """Exact multiplicativity of a frame derivation against the dual product:
    d(u v) = d(u) v + (-1)^(k deg u) u d(v) on every pair of frame elements."""
    one = Poly.one(E.nvars)
    for i in range(1, E.n + 1):
        sign = -1 if (d.degree * i) % 2 else 1
        for j in range(1, E.n + 1 - i):
            for a in range(E.rank(i)):
                u = {(i, a): one}
                du = _derive(d, u)
                for b in range(E.rank(j)):
                    v = {(j, b): one}
                    rhs = _frame_mul(E, du, v)
                    for key, p in _frame_mul(E, u, _derive(d, v)).items():
                        accumulate(rhs, key, p if sign > 0 else -p)
                    if _derive(d, _frame_mul(E, u, v)) != rhs:
                        return False
    return True


def theta_action(e_frame: Tuple[int, int], d: CompatDerivation, E) -> CompatDerivation:
    """Module action of a dual-frame element on a frame derivation.

    Sends every frame element first through the derivation and then multiplies
    by the chosen element via the dual product."""
    i, a = e_frame
    k = d.degree
    if k + i > 0:
        raise DegreeMismatch("module action must stay in non-positive degrees")
    one = Poly.one(E.nvars)
    e = {(i, a): one}
    mats: Dict[int, list] = {}
    for j in range(1, E.n + 1):
        if j + k + i >= 0:
            cols = [_frame_mul(E, e, _derive(d, {(j, b): one})) for b in range(E.rank(j))]
            mats[j] = _matrix(E, j + k + i, cols)
    return CompatDerivation(k + i, E, mats, None)


def compat_compose(d1: CompatDerivation, d2: CompatDerivation, E) -> CompatDerivation:
    """Operator composition of frame derivations (not itself a derivation)."""
    k1, k2 = d1.degree, d2.degree
    one = Poly.one(E.nvars)
    mats: Dict[int, list] = {}
    for j in range(1, E.n + 1):
        t = j + k1 + k2
        if t < 0 or j + k2 < 0 or d2.matrix(j) is None:
            continue
        mats[j] = _matrix(E, t, [_derive(d1, _derive(d2, {(j, b): one}))
                                 for b in range(E.rank(j))])
    symbol = None
    if k1 == 0 and k2 == 0:
        symbol = [_apply_symbol(d1.symbol or [], p) for p in d2.symbol or []]
    return CompatDerivation(k1 + k2, E, mats, symbol)


def compat_bracket(d1: CompatDerivation, d2: CompatDerivation, E) -> CompatDerivation:
    """Graded commutator of frame derivations."""
    sign = -1 if (d1.degree * d2.degree) % 2 else 1
    a = compat_compose(d1, d2, E)
    b = compat_compose(d2, d1, E)
    nv = E.nvars
    mats: Dict[int, list] = {}
    for j in set(a.matrices) | set(b.matrices):
        ma = a.matrices.get(j)
        mb = b.matrices.get(j)
        if ma is None:
            ma = [[Poly.zero(nv) for _ in row] for row in mb]
        if mb is None:
            mb = [[Poly.zero(nv) for _ in row] for row in ma]
        mats[j] = [
            [pa.sub(pb.scale(sign)) for pa, pb in zip(ra, rb)]
            for ra, rb in zip(ma, mb)
        ]
    symbol = None
    if a.symbol is not None and b.symbol is not None:
        symbol = [pa.sub(pb.scale(sign)) for pa, pb in zip(a.symbol, b.symbol)]
    elif a.symbol is not None:
        symbol = a.symbol
    elif b.symbol is not None:
        symbol = [p.scale(-sign) for p in b.symbol]
    return CompatDerivation(d1.degree + d2.degree, E, mats, symbol)
