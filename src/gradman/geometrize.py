"""Geometrization: from admissible coalgebra bundles to chart algebras.

The chart algebra of a bundle carries one generator per kernel direction of
the comultiplication.  Every frame element of the dual bundle embeds as a
chart function; frame elements dual to the comultiplication image rewrite to
products of lower-degree coordinates.  Reduction to normal form is plain ring
arithmetic in the chart, which makes it terminating and confluent by
construction; the tests verify confluence against the ideal relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .coalgebra import CoalgebraBundle, CoalgebraMorphism, split_from_gens, splitting_iso
from .errors import DegreeOverflow
from .exactnum import Poly, rat_inverse
from .gradedring import (
    GradedFunction,
    GradedSignature,
    _gf,
    dim_symmetric_component,
    monomials_of_degree,
)


@dataclass
class RewriteRule:
    """One image-dual frame covector and its normal form."""

    degree: int
    covector: list  # coordinates over the dual frame of the source fiber
    word: tuple  # chart monomial it rewrites to
    normal_form: GradedFunction


class ChartAlgebra:
    """Quotient presentation of the function algebra of a geometrized bundle."""

    def __init__(self, bundle: CoalgebraBundle, iso: CoalgebraMorphism,
                 sig: GradedSignature, embeddings: Dict[int, list],
                 rewrite_rules: Dict[int, list]):
        self.bundle = bundle
        self.iso = iso
        self.sig = sig
        self.embeddings = embeddings
        self.rewrite_rules = rewrite_rules

    @property
    def n(self) -> int:
        return self.sig.n

    def gen_counts(self) -> list:
        return [self.sig.rank(i) for i in range(1, self.n + 1)]

    def dimension_of_degree(self, level: int) -> int:
        return dim_symmetric_component([d for d, _ in self.sig.gen_ids()], level)

    def embed_covector(self, i: int, covector: Sequence) -> GradedFunction:
        """Chart function of a dual-frame covector in degree i."""
        out = GradedFunction.zero(self.sig)
        for a, c in enumerate(covector):
            if c:
                out = out.add(self.embeddings[i][a].scale(c))
        return out

    def decompose(self, f: GradedFunction, degree: int) -> list:
        """Coefficients of a homogeneous chart function over the embedded frame."""
        if not f.is_homogeneous(degree) and not f.is_zero():
            raise ValueError("function is not homogeneous of the requested degree")
        words = monomials_of_degree(self.sig.gen_ids(), degree)
        windex = {w: t for t, w in enumerate(words)}
        vec = [Poly.zero(self.sig.m0) for _ in words]
        for w, c in f.terms.items():
            vec[windex[w]] = c
        # row mon of the splitting holds the frame coordinates of chart monomial mon
        phi = self.iso.rows.get(degree, [])
        out = []
        for a in range(len(words)):
            acc = Poly.zero(self.sig.m0)
            for row, p in zip(phi, vec):
                if row[a] != 0 and not p.is_zero():
                    acc = acc.add(p.scale(row[a]))
            out.append(acc)
        return out


def geometrize(E: CoalgebraBundle, max_degree: Optional[int] = None) -> ChartAlgebra:
    """Chart algebra of an admissible bundle with a pinned splitting choice."""
    iso = splitting_iso(E)
    phi = iso.rows
    S = iso.target
    n = E.n
    counts = {i: 0 for i in range(1, n + 1)}
    for d, _name in S.split.gens:
        counts[d] += 1
    gen_names = [[f"e{i}_{t + 1}" for t in range(counts[i])] for i in range(1, n + 1)]
    sig = GradedSignature(n, E.base_names, gen_names, max_degree=max_degree)

    embeddings: Dict[int, list] = {}
    rewrite_rules: Dict[int, list] = {}
    for i in range(1, n + 1):
        r = E.rank(i)
        inv = rat_inverse(phi[i])
        words = S.split.monomials[i]
        # frame element a embeds as row a of the inverse splitting: the rows
        # of the splitting hold the frame coordinates of the chart monomials
        # the split model's words are canonical, so the terms need no sort
        embeddings[i] = [_gf(sig, {w: Poly.const(sig.m0, c) for w, c in zip(words, inv[a]) if c})
                         for a in range(r)]
        rules = []
        for mon, w in enumerate(words):
            if len(w) == 1 and w[0][0] == i:
                continue
            covector = [Fraction(c) for c in phi[i][mon]]
            nf = _gf(sig, {w: Poly.one(sig.m0)})
            rules.append(RewriteRule(i, covector, w, nf))
        rewrite_rules[i] = rules
    return ChartAlgebra(E, iso, sig, embeddings, rewrite_rules)


def reduce_product(chart: ChartAlgebra, factors: Sequence[Tuple[int, int]],
                   coeff=Fraction(1)) -> GradedFunction:
    """Normal form of a formal product of dual-frame elements.

    Each factor is (degree, frame index) on the source bundle.  The reduction
    is the unique chart function the product maps to.
    """
    total = sum(i for i, _ in factors)
    if total > chart.sig.max_degree:
        raise DegreeOverflow(
            f"product of degree {total} exceeds cap {chart.sig.max_degree}"
        )
    if isinstance(coeff, Poly):
        out = GradedFunction.from_poly(chart.sig, coeff)
    else:
        out = GradedFunction.constant(chart.sig, coeff)
    for (i, a) in factors:
        out = out.mul(chart.embeddings[i][a])
    return out


def coalgebra_of(chart: ChartAlgebra) -> CoalgebraBundle:
    """Bundle reconstructed from a chart algebra.

    Fibers are dual to the degree components, the comultiplication is dual to
    multiplication restricted below the degree bound.  The result is split by
    construction, hence admissible.
    """
    gens = [(i, chart.sig.gen_name((i, t)))
            for i in range(1, chart.n + 1) for t in range(chart.sig.rank(i))]
    return split_from_gens(chart.sig.base_names, gens, chart.n)


def roundtrip(E: CoalgebraBundle) -> Tuple[CoalgebraBundle, CoalgebraMorphism]:
    """Reconstruct a bundle from its chart and return the comparison morphism."""
    chart = geometrize(E)
    F = coalgebra_of(chart)
    return F, CoalgebraMorphism.from_rows(E, F, chart.iso.rows)


def functor_on_morphism(phi: CoalgebraMorphism,
                        chart_src: Optional[ChartAlgebra] = None,
                        chart_tgt: Optional[ChartAlgebra] = None) -> Dict:
    """Pullback table of a bundle morphism on chart coordinates.

    Maps every generator of the target chart to its pullback expressed on the
    source chart; base coordinates pull back identically.
    """
    if chart_src is None:
        chart_src = geometrize(phi.source)
    if chart_tgt is None:
        chart_tgt = geometrize(phi.target)
    table: Dict[Tuple[int, int], GradedFunction] = {}
    for i in range(1, chart_tgt.n + 1):
        s_tgt = chart_tgt.iso.target
        singleton_rows = {}
        for mon, w in enumerate(s_tgt.split.monomials[i]):
            if len(w) == 1 and w[0][0] == i:
                singleton_rows[w[0][1]] = mon
        tgt_phi = chart_tgt.iso.matrix(i)
        src_mat = phi.matrix(i)
        for t in range(chart_tgt.sig.rank(i)):
            row = singleton_rows[t]
            covector = [tgt_phi.entries[row][b] for b in range(phi.target.rank(i))]
            pulled = [Poly.zero(src_mat.nvars) for _ in range(phi.source.rank(i))]
            for b, c in enumerate(covector):
                if c.is_zero():
                    continue
                for a in range(phi.source.rank(i)):
                    e = src_mat.entries[b][a]
                    if not e.is_zero():
                        pulled[a] = pulled[a].add(c.mul(e))
            table[(i, t)] = chart_src.embed_covector(i, pulled)
    return table
