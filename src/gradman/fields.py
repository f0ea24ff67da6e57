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
from .exactnum import Poly, rat_rank
from .gradedring import GenId, GradedFunction, GradedSignature

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
            g = actions.get(c)
            g = f if g is None else g.add(f)
            if g.is_zero():
                actions.pop(c, None)
            else:
                actions[c] = g
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
        out = GradedFunction.zero(self.sig)
        for c, val in self.actions.items():
            if c[0] == "x":
                d = f.derivative_base(c[1])
            else:
                d = f.derivative_gen(c[1])
            if not d.is_zero():
                out = out.add(val.mul(d))
        return out

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
    """Graded commutator, represented by its coordinate actions."""
    if x.sig != y.sig:
        raise SignatureMismatch("fields live on different charts")
    sign = -1 if (x.degree * y.degree) % 2 else 1
    actions: Dict[Coord, GradedFunction] = {}
    for c in set(x.actions) | set(y.actions) | set(all_coords(x.sig)):
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
    coords = all_coords(sig)
    for p in points:
        rows = []
        for c in coords:
            rows.append([f.action(c).body_eval(p) for f in fields])
        if rat_rank(rows) < len(fields):
            return False
    return True


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
    """Coordinate substitution: images of every coordinate on a target chart."""

    def __init__(self, source: GradedSignature, target: GradedSignature,
                 base: Sequence[GradedFunction], gens: Dict[GenId, GradedFunction]):
        self.source = source
        self.target = target
        self.base = list(base)
        self.gens = dict(gens)
        for f in self.base:
            if not f.is_homogeneous(0):
                raise DegreeMismatch("base coordinate image must have degree 0")
        for g, f in self.gens.items():
            if not f.is_zero() and not f.is_homogeneous(g[0]):
                raise DegreeMismatch(f"image of {source.gen_name(g)} must have degree {g[0]}")

    @classmethod
    def identity(cls, sig: GradedSignature) -> "ChartMap":
        return cls(
            sig, sig,
            [GradedFunction.base_var(sig, a) for a in range(sig.m0)],
            {g: GradedFunction.from_gen(sig, g) for g in sig.gen_ids()},
        )

    def image(self, c: Coord) -> GradedFunction:
        return self.base[c[1]] if c[0] == "x" else self.gens[c[1]]

    def apply_to(self, f: GradedFunction) -> GradedFunction:
        return f.substitute(self.target, self.base, self.gens)

    def after(self, inner: "ChartMap") -> "ChartMap":
        """Composite substitution: first rewrite through self, then through inner."""
        if inner.source != self.target:
            raise SignatureMismatch("substitutions do not compose")
        return ChartMap(
            self.source, inner.target,
            [inner.apply_to(f) for f in self.base],
            {g: inner.apply_to(f) for g, f in self.gens.items()},
        )

    def is_identity(self) -> bool:
        ident = ChartMap.identity(self.source)
        return self.base == ident.base and self.gens == ident.gens


def transform_field(x: VectorField, new_in_old: ChartMap, old_in_new: ChartMap) -> VectorField:
    """Coordinate table of the same derivation after a chart substitution.

    `new_in_old` expresses each new coordinate as a function of the old ones,
    `old_in_new` the converse; the new action on a coordinate is the old field
    applied to its defining function, rewritten in new coordinates.
    """
    actions = {}
    for c in all_coords(new_in_old.source):
        val = x.apply(new_in_old.image(c))
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


def compat_check(d: CompatDerivation, E) -> bool:
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


def theta_action(e_frame: Tuple[int, int], d: CompatDerivation, E) -> CompatDerivation:
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


def compat_compose(d1: CompatDerivation, d2: CompatDerivation, E) -> CompatDerivation:
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
