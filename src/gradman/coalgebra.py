"""Coalgebra bundles over a polynomial chart.

A bundle stores one trivialized fiber space per negative degree plus the
comultiplication components in block form: for each total degree only the
blocks (j, k) with j <= k are kept, the others being forced by
cocommutativity.  `CoalgebraBundle.mu_columns` expands the blocks once per
degree into sparse columns over the ordered pair basis, and every check
reads that one expanded form: cocommutativity, coassociativity and the
coherence constraint space on the columns, morphisms by pushing them
through phi (x) phi, and the rank and pivot questions of admissibility and
the splitting on `CoalgebraBundle.mu_rows`, the same columns as rows over
the pairs they reach.

The column helpers are written on `+`, unary `-`, `*` and truth values, so
each reader runs them on the ints of a constant bundle's `integer_view` (and
constant morphism matrices as plain numbers) and on Polys otherwise.  A
constant bundle with n >= 3 keeps one `splitting`, and `check_coalgebra`
tests columns only at the degrees that splitting does not decide.  A bundle
that is not constant counts dim K from its generators below each degree, and
tests containment on the columns, while every lower degree is admissible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Optional, Sequence, Tuple

from .errors import DvbNotExact, NotAdmissible, UnsupportedXDependence
from .exactnum import (
    Poly,
    PolyMatrix,
    _Monomials,
    _canon,
    accumulate,
    kernel_basis,
    primitive_vector,
    rank_at,
    rank_generic,
    rat_kernel,
    rat_pivots,
    rat_rank,
)
from .gradedring import (
    braiding_sign,
    dim_symmetric_component,
    koszul_merge,
    monomials_of_degree,
)

Elem = Tuple[int, int]  # (positive degree, fiber index)


@dataclass
class SplitData:
    """Metadata kept by split-constructed bundles."""

    gens: list  # [(degree, name)] in canonical order
    monomials: dict  # degree -> list of generator-id words


class CoalgebraBundle:
    """Trivialized graded bundle with comultiplication blocks.

    `ranks[i]` is the rank of the degree -i summand, i = 1..n.  `mu[i]` maps
    (j, k) with j <= k, j + k = i to a PolyMatrix whose rows run over ordered
    frame pairs of the block (row-major) and whose columns run over the
    degree -i frame.  A bundle built from numbers keeps its integer view and
    `mu` None; the first read of `mu` fills the blocks from that view.
    """

    def __init__(self, n: int, base_names: Sequence[str], ranks: Dict[int, int],
                 mu: Optional[Dict[int, Dict[Tuple[int, int], PolyMatrix]]],
                 split: Optional[SplitData] = None):
        self.n = n
        self.base_names = tuple(base_names)
        self.nvars = len(self.base_names)
        self.ranks = {i: int(ranks.get(i, 0)) for i in range(1, n + 1)}
        self._mu = mu
        self.split = split
        self._tensor_cache: dict = {}
        self._power_cache: dict = {}
        self._columns_cache: dict = {}
        self.lam: Optional[int] = None  # set on an integer view only
        self._integer_view: Optional[CoalgebraBundle] = None
        self._splitting: Optional[Splitting] = None
        self._constant: Optional[bool] = None

    # --- basic structure -------------------------------------------------

    def rank(self, i: int) -> int:
        return self.ranks.get(i, 0)

    @property
    def mu(self) -> Dict[int, Dict[Tuple[int, int], PolyMatrix]]:
        """The comultiplication blocks; a bundle built from numbers fills them
        once from its int columns over lam, each entry at (j, k), j <= k."""
        if self._mu is None:
            ranks, nv, lam = self.ranks, self.nvars, self._integer_view.lam
            self._mu = {i: {} for i in range(2, self.n + 1)}
            for i, blocks in self._mu.items():
                for c, col in enumerate(self._integer_view.mu_columns(i)):
                    for ((j, a), (k, b)), v in col.items():
                        if j <= k:
                            if (j, k) not in blocks:
                                blocks[(j, k)] = PolyMatrix.zero(ranks[j] * ranks[k], ranks[i], nv)
                            rows = blocks[(j, k)].entries
                            rows[a * ranks[k] + b][c] = Poly.const(nv, Fraction(v, lam))
        return self._mu

    def is_constant(self) -> bool:
        """Whether every mu entry is constant, scanned once and kept."""
        if self._constant is None:
            self._constant = all(
                m.is_constant() for blocks in self.mu.values() for m in blocks.values()
            )
        return self._constant

    def tensor_basis(self, length: int, degree: int) -> list:
        """All `length`-tuples of frame elements with total degree `degree`, lex ordered."""
        key = (length, degree)
        cached = self._tensor_cache.get(key)
        if cached is not None:
            return cached
        out: list = []

        def rec(remaining: int, slots: int, acc: list):
            if slots == 0:
                if remaining == 0:
                    out.append(tuple(acc))
                return
            for d in range(1, min(self.n, remaining - (slots - 1)) + 1):
                for a in range(self.rank(d)):
                    acc.append((d, a))
                    rec(remaining - d, slots - 1, acc)
                    acc.pop()

        rec(degree, length, [])
        self._tensor_cache[key] = out
        return out

    def mu_columns(self, i: int) -> list:
        """The comultiplication at degree -i as sparse columns, one per frame index.

        Each column maps ordered pairs, in tensor-basis order, to their nonzero
        Poly coefficients.  A pair (u, v) with deg u > deg v reads the stored
        block at (v, u) with the Koszul sign (-1)^(deg u * deg v).  Built once
        per degree and shared between callers, which must not mutate it.
        """
        cols = self._columns_cache.get(i)
        if cols is not None:
            return cols
        blocks = self.mu.get(i, {})
        cols = [{} for _ in range(self.rank(i))]
        for u, v in self.tensor_basis(2, i):
            (j, a), (k, b) = (u, v) if u[0] <= v[0] else (v, u)
            m = blocks.get((j, k))
            if m is None:
                continue
            row = m.entries[a * self.rank(k) + b]
            odd_swap = u[0] > v[0] and j & k & 1
            for c, col in enumerate(cols):
                e = row[c]
                if not e.is_zero():
                    col[(u, v)] = e.neg() if odd_swap else e
        self._columns_cache[i] = cols
        return cols

    def integer_view(self) -> "CoalgebraBundle":
        """This constant bundle on ints, scaled by the common denominator.

        The view shares the ranks and tensor bases.  Its `mu_columns` hold
        lam times the value of each entry, lam being the least common
        denominator of all entries (kept as `lam`), so every term of its k-fold
        `power_columns` iterate is an int, lam^k times the bundle's.  Built
        once and kept; every reader of a constant bundle's mu reads it.
        """
        if self._integer_view is None:
            z = (0,) * self.nvars
            self._keep_view(*_int_columns({
                i: [[(p, c.terms[z]) for p, c in col.items()] for col in self.mu_columns(i)]
                for i in range(2, self.n + 1)}))
        return self._integer_view

    def splitting(self) -> "Splitting":
        """This constant bundle's `build_splitting`, built once and kept;
        `check_coalgebra`, `check_admissible`, `splitting_iso` and
        `geometrize` read it."""
        if self._splitting is None:
            self._splitting = build_splitting(self)
        return self._splitting

    def _keep_view(self, columns: dict, lam: int):
        """Keep as `integer_view` the bundle whose `mu_columns` are the given
        int columns, lam times this bundle's, which is therefore constant."""
        view = CoalgebraBundle(self.n, self.base_names, self.ranks, {})
        view._tensor_cache = self._tensor_cache
        view._columns_cache = columns
        view.lam = lam
        self._integer_view, self._constant = view, True

    def mu_rows(self, i: int) -> list:
        """Comultiplication at degree -i as rows over the ordered pairs that
        occur in some column, in tensor-basis order (the lex order of the
        pairs): Polys, or ints on an `integer_view`.  The pairs left out are
        zero rows, which change no rank and no pivot column.
        """
        cols = self.mu_columns(i)
        zero = Poly.zero(self.nvars) if self.lam is None else 0
        return [[col.get(p, zero) for col in cols] for p in sorted({p for col in cols for p in col})]

    def mu_matrix(self, i: int) -> PolyMatrix:
        """`mu_rows` as a PolyMatrix."""
        rows = self.mu_rows(i)
        return PolyMatrix(len(rows), self.rank(i), rows, self.nvars)

    def power_columns(self, e: Elem, k: int) -> dict:
        """Sparse column of the k-fold comultiplication iterate on one frame element.

        Iterates apply the comultiplication to the last tensor factor.  The
        entries are Polys, or ints on an `integer_view`.
        """
        key = (e, k)
        cached = self._power_cache.get(key)
        if cached is not None:
            return cached
        if k == 0:
            out = {(e,): Poly.one(self.nvars) if self.lam is None else 1}
        else:
            out = apply_mu(self, self.power_columns(e, k - 1), k - 1)
        self._power_cache[key] = out
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoalgebraBundle):
            return NotImplemented
        if (self.n, self.base_names, self.ranks) != (other.n, other.base_names, other.ranks):
            return False
        return all(self.mu_columns(i) == other.mu_columns(i) for i in range(2, self.n + 1))

    def __repr__(self):
        dims = "|".join(str(self.rank(i)) for i in range(1, self.n + 1))
        return f"CoalgebraBundle(n={self.n}, ranks={dims})"


def _int_columns(cols: dict) -> tuple:
    """Columns of (pair, nonzero number) items per degree as (int columns,
    lam): each number times lam, the least common denominator of them all."""
    lam = lcm(*(c.denominator for cs in cols.values() for col in cs for _, c in col))
    return {i: [{p: c.numerator * (lam // c.denominator) for p, c in col} for col in cs]
            for i, cs in cols.items()}, lam


# --- sparse tuple columns ---------------------------------------------------


def apply_mu(E: CoalgebraBundle, col: dict, pos: int) -> dict:
    """Apply the comultiplication to tensor factor `pos` of a sparse tuple column.

    Terms whose factor sits in degree -1 drop: that component vanishes.
    """
    out: dict = {}
    for T, c in col.items():
        u = T[pos]
        if u[0] == 1:
            continue
        for pair, q in E.mu_columns(u[0])[u[1]].items():
            accumulate(out, T[:pos] + pair + T[pos + 1:], c * q)
    return out


def permute_column(col: dict, perm: Sequence[int]) -> dict:
    """Apply a braiding permutation (with Koszul sign) to a sparse tuple column.

    Factor `perm[p]` of each tuple moves to position p.
    """
    if not col:
        return {}
    move = [0] * len(perm)
    for p, q in enumerate(perm):
        move[q] = p
    out: dict = {}
    for T, c in col.items():
        sign = braiding_sign(move, [g[0] & 1 for g in T])
        accumulate(out, tuple(T[q] for q in perm), c if sign > 0 else -c)
    return out


def push_column(phi, col: dict) -> dict:
    """Push a sparse pair column through phi (x) phi: the pair ((j, a), (k, b))
    goes to each ((j, a'), (k, b')) times phi_j[a'][a] phi_k[b'][b], no sign;
    `phi[j]` holds the rows of phi_j (a morphism, or a dict of number rows)."""
    out: dict = {}
    for ((j, a), (k, b)), c in col.items():
        mk = phi[k]
        for ap, row in enumerate(phi[j]):
            if row[a]:
                ca = c * row[a]
                for bp, row_k in enumerate(mk):
                    if row_k[b]:
                        accumulate(out, ((j, ap), (k, bp)), ca * row_k[b])
    return out


def _variant_pair_columns(E: CoalgebraBundle, degree: int, k: int, l: int) -> list:
    """Columns of mu^k (x) mu^l over the ordered pair basis at -degree; the
    iterates' terms are nonzero and their tuples concatenate to distinct
    tuples, so each entry is one product."""
    cols = []
    for u, v in E.tensor_basis(2, degree):
        cu, cv = E.power_columns(u, k), E.power_columns(v, l)
        col: dict = {}
        for t1, c1 in cu.items():
            for t2, c2 in cv.items():
                col[t1 + t2] = c1 * c2
        cols.append(col)
    return cols


# --- checks ----------------------------------------------------------------


@dataclass
class CoalgebraReport:
    cocommutative: bool
    coassociative: bool
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.cocommutative and self.coassociative


def check_coalgebra(E: CoalgebraBundle) -> CoalgebraReport:
    """Verify cocommutativity and coassociativity as exact matrix identities,
    on the `integer_view` of a constant bundle: both sides of the two scale by
    lam and lam^2, so the verdicts and witnesses are the bundle's.

    A constant bundle with n >= 3 (the guard of `check_admissible`) first
    reads off its kept splitting the unbroken run of degrees -2 .. -d that
    it decides, and tests the columns from degree -(d + 1) on only.  Each
    decided degree is a coalgebra degree, so it has no witness and the
    report is unchanged:

    - (i) a degree j the walk passed (`rows`), with phi below j an
      isomorphism (proved in `build_splitting`), has
      mu_E,j = (phi (x) phi)^-1 mu_S phi_j, and the same holds below j.
      phi is degree-preserving, so the graded swap commutes with
      phi (x) phi, and (mu (x) 1) mu and (1 (x) mu) mu at j are both
      conjugated to those of S by phi (x) phi (x) phi.  S is the dual of a
      free graded-commutative algebra, cocommutative and coassociative, so
      both axioms hold at j;
    - (ii) at the rank-mismatch degree i, reached with every lower degree
      passing and hence a coalgebra degree by (i), the recorded containment
      `constraint[i]` is im mu_i in K_i.  K_i lies in the swap kernel and
      in the kernel of the length-3 split mu (x) 1 - 1 (x) mu, so
      containment gives both column tests at i; conversely, with both and
      every lower degree coalgebraic, every iterate variant of every length
      agrees on each column.  So a True containment decides i.

    A failed walk degree, a False containment, a rank mismatch at -2 and the
    degrees past them keep the column tests, as Q[x] bundles and n = 2 do.
    The tests are `_swap_fixes` and `_coassociative`, which `compute_K` and
    `check_admissible` read too.
    """
    decided = 1
    if E.is_constant():
        if E.n >= 3:
            sp = E.splitting()
            decided = max(sp.rows)
            if sp.constraint.get(decided + 1, (0, False))[1]:
                decided += 1  # the rank-mismatch degree, by (ii)
        E = E.integer_view()
    witnesses = []
    for i in range(decided + 1, E.n + 1):
        c = next((c for c, col in enumerate(E.mu_columns(i)) if not _swap_fixes(col)), None)
        if c is not None:
            witnesses.append(("cocommutativity", -i, c))
    cocom, coass = not witnesses, True
    for i in range(decided + 1, E.n + 1):
        for c, col in enumerate(E.mu_columns(i)):
            if not _coassociative(E, col):
                coass = False
                witnesses.append(("coassociativity", -i, c))
    return CoalgebraReport(cocom, coass, witnesses)


def _swap_fixes(col: dict) -> bool:
    """The swap test on one pair column: the graded swap fixes it, i.e. the
    entry at each mirror (v, u) is (-1)^(deg u deg v) times the entry at
    (u, v); an odd diagonal pair, its own mirror, is then absent."""
    return all(col.get((v, u)) == (-c if u[0] & v[0] & 1 else c) for (u, v), c in col.items())


def _coassociative(E: CoalgebraBundle, col: dict) -> bool:
    """The coassociativity test on one pair column: (mu (x) 1) and (1 (x) mu)
    agree on it.  At degree -2 both vanish, every factor sitting in -1."""
    return apply_mu(E, col, 1) == apply_mu(E, col, 0)


@dataclass
class KSpace:
    """Solution space of the coherence constraints in one degree."""

    degree: int  # negative
    pair_basis: list
    vectors: list  # sparse {pair position: coefficient} dicts; ints on a constant bundle
    contains_image: bool  # every comultiplication column at this degree lies in K

    @property
    def dim(self) -> int:
        return len(self.vectors)


def _image(diffs: list, vec) -> dict:
    """Sparse image of a vector, given as (pair position, coefficient) items."""
    img: dict = {}
    for p, coeff in vec:
        if not coeff:
            continue
        for T, c in diffs[p].items():
            accumulate(img, T, coeff * c)
    return img


def _swap_kernel(pairs: list, index: dict, one) -> list:
    """Kernel of the length-2 swap s_0 - id as sparse vectors, listed by the
    later index as its elimination returns them: e_(u,v) + (-1)^(deg u deg v)
    e_(v,u) for each pair (u, v) whose mirror (v, u) comes earlier, and
    e_(u,u) for each even diagonal pair, whose two keys coincide."""
    basis = []
    for t, (u, v) in enumerate(pairs):
        s = index[(v, u)]
        if s < t or s == t and not u[0] & 1:
            basis.append({s: -one if u[0] & v[0] & 1 else one, t: one})
    return basis


def _minus(img: dict, ref: dict) -> dict:
    """img - ref for sparse tuple columns; img is updated in place."""
    for T, c in ref.items():
        accumulate(img, T, -c)
    return img


def compute_K(E: CoalgebraBundle, degree: int) -> KSpace:
    """Constraint space at the given negative degree.

    K is where every iterate variant tau.(mu^k (x) mu^l) of one tensor length
    L agrees; lengths above |degree| vanish because every factor sits in
    degree <= -1.  With the reference R = mu^0 (x) mu^(L-2), each length
    intersects the kernels of 2L - 3 differences: the L - 2 splits
    mu^k (x) mu^(L-2-k) - R (k >= 1) and the L - 1 adjacent transpositions
    s_a.R - R.  That is exact: `permute_column` is a group action and the s_a
    generate S_L, so s_a-invariance of R(x) for all a gives
    tau.V_{k,l}(x) = tau.R(x) = R(x) for every variant.  The vectors are
    independent: each kernel vector has the pivot determinant at its own free
    coordinate and zero at the others.  Length 2 has the swap alone, whose
    kernel `_swap_kernel` writes down, so the loop starts at length 3.

    `contains_image` records whether every difference sends every column of
    the comultiplication at this degree to zero, i.e. whether im mu lies in
    K.  The swap is tested on the columns (`_swap_fixes`).  Then, while all
    differences do, the columns lie in the span of the current basis; so a
    difference that kills the basis kills them too, and an empty basis (the
    early exit) leaves them zero, as K = 0 requires.

    On a constant bundle the columns come from `integer_view`, scaled by
    lam: every term of a length-L variant is a product of L - 2 entries, so
    each difference of that length scales by lam^(L-2) as a whole, which
    changes no kernel and no zero test.  Both rings then run one body on the
    per-pair differences V(p) - R(p), and only the kernel call differs: a
    constant constraint matrix goes to `rat_kernel`, whose vectors do not
    depend on the order of the rows, and they equal those of `kernel_basis`:
    both kernels are positive multiples of the standard kernel vectors, and
    each updated basis vector is made primitive and kept as a sparse dict by
    pair position.
    """
    if not (-(E.n + 1) <= degree <= -2):
        raise ValueError("degree out of range for constraint space")
    d = -degree
    pairs = E.tensor_basis(2, d)
    nv = E.nvars
    if not pairs:
        return KSpace(degree, pairs, [], True)
    constant = E.is_constant()
    view = E.integer_view() if constant else E
    zero, one = (0, 1) if constant else (Poly.zero(nv), Poly.one(nv))
    index = {p: t for t, p in enumerate(pairs)}
    mu_vecs = [[(index[p], c) for p, c in col.items()] for col in view.mu_columns(d)]
    contains = all(map(_swap_fixes, view.mu_columns(d)))
    basis = _swap_kernel(pairs, index, one)
    for length in range(3, d + 1):
        ref_cols = _variant_pair_columns(view, d, 0, length - 2)
        # k > 0 is the split mu^k (x) mu^(L-2-k), k <= 0 the transposition s_(k+L-1)
        for k in itertools.chain(range(1, length - 1), range(1 - length, 0)):
            if not basis:
                break
            if k > 0:
                var_cols = _variant_pair_columns(view, d, k, length - 2 - k)
            else:
                a = k + length - 1
                perm = (*range(a), a + 1, a, *range(a + 2, length))
                var_cols = [permute_column(c, perm) for c in ref_cols]
            diffs = [_minus(dict(col), ref) for col, ref in zip(var_cols, ref_cols)]
            images = [_image(diffs, vec.items()) for vec in basis]
            if not any(images):
                continue
            if contains:
                contains = not any(_image(diffs, vec) for vec in mu_vecs)
            seen = dict.fromkeys(t for img in images for t in img)
            tuples_seen = {t: r for r, t in enumerate(seen)}
            m = [[zero] * len(basis) for _ in tuples_seen]
            for col, img in enumerate(images):
                for t, c in img.items():
                    m[tuples_seen[t]][col] = c
            if constant:
                # rows divided by their content keep lam^(L-2) out of the
                # elimination; the kernel vectors come back as ints
                rows = [primitive_vector(r) for r in m]
                kernel = [primitive_vector(kv) for kv in rat_kernel(rows)]
            else:
                kernel = [kv for kv, _ in kernel_basis(PolyMatrix(len(m), len(basis), m, nv))]
            new_basis = []
            for kv in kernel:
                vec: dict = {}
                for t, coeff in enumerate(kv):
                    if coeff:
                        for s, b in basis[t].items():
                            accumulate(vec, s, coeff * b)
                new_basis.append(dict(zip(vec, primitive_vector(list(vec.values())))))
            basis = new_basis
        if not basis:
            break
    return KSpace(degree, pairs, basis, contains)


@dataclass
class AdmissibilityDegree:
    im_rank: int
    k_rank: int
    equal: bool
    constant_rank: bool


@dataclass
class AdmissibilityReport:
    per_degree: dict
    admissible: bool
    sample_points: list


def check_admissible(E: CoalgebraBundle, sample_points: Sequence) -> AdmissibilityReport:
    """Compare the comultiplication image with the constraint space per degree.

    The spans are equal over the fraction field exactly when im M lies in K
    and rank M = dim K, M being the comultiplication at that degree.  Each
    step is exact:

    - containment is `KSpace.contains_image`: K is the common kernel of the
      constraint differences, so im M lies in K exactly when every difference
      sends every column of M to zero, a sparse product with no elimination;
    - dim K is the number of K vectors, which are independent;
    - when im M lies in K, rank_at(M, p) <= rank M <= dim K at every point p,
      so a sample point of rank dim K certifies rank M = dim K;
    - otherwise rank M is the generic rank over the fraction field.

    The constant-rank flag compares rank M with the rank at every supplied
    sample point.  A constant M has one rank, at every point and over the
    field: the rank of its `integer_view` rows, or the number of pivots
    the splitting kept.

    A constant bundle with n >= 3 reads dim K and containment off its kept
    splitting (proved in `build_splitting`) from degree -2 through the first
    failure; a rank mismatch at -2 and the degrees past the failure keep
    `compute_K`.  At n = 2 the closed-form swap kernel of `compute_K(E, -2)`
    costs less than building a splitting that only this verdict would read.

    A bundle that is not constant builds no constraint kernel while every
    lower degree came out equal.  It keeps the degrees `gens` of the
    generators below -i, rank(j) - dim K_j of degree j, starting from the
    rank(1) generators of degree 1, and at -i:

    - (1) containment is the two column tests, `_swap_fixes` and
      `_coassociative`, on every column.  An equal degree contains its
      image, which gives both column tests there (see (ii) in
      `check_coalgebra`), so every lower degree is a coalgebra degree; and
      then, by the same argument (ii), which holds over any ring, im M lies
      in K_i exactly when both tests hold at -i;
    - (2) dim K_i is the number of words of degree i in `gens`,
      `dim_symmetric_component(gens, i)`.  Every degree below -i being
      equal, E over the field Q(x) is admissible below -i, and the
      `build_splitting` argument, run over Q(x), gives a coalgebra
      isomorphism below -i onto the split model S on `gens` that maps
      K_i(E) onto K_i(S), spanned by the decomposable words of degree i;
      every word of degree i in `gens` is decomposable, their degrees being
      below i.  `compute_K`'s dimension is taken over the fraction field
      too, so the two agree.

    The image and point ranks are read as above.  From the first degree that
    is not equal on, the degrees call `compute_K`.
    """
    points = [tuple(Fraction(x) for x in p) for p in sample_points]
    if not points:
        raise ValueError("at least one sample point is required")
    if any(len(p) != E.nvars for p in points):
        raise ValueError("point has wrong length")
    per = {}
    ok = True
    constant = E.is_constant()
    sp = E.splitting() if constant and E.n >= 3 else None
    read, pivots = (sp.constraint, sp.pivots) if sp else ({}, {})
    gens = None if constant else [1] * E.rank(1)
    for i in range(2, E.n + 1):
        if i in read:
            k_rank, contains = read[i]
        elif gens is not None:
            cols = E.mu_columns(i)
            k_rank = dim_symmetric_component(gens, i)
            contains = all(map(_swap_fixes, cols)) and all(_coassociative(E, c) for c in cols)
        else:
            ks = compute_K(E, -i)
            k_rank, contains = ks.dim, ks.contains_image
        if constant:
            im_rank = len(pivots[i]) if i in pivots else rat_rank(E.integer_view().mu_rows(i))
            point_ranks = [im_rank]
        else:
            m = E.mu_matrix(i)
            point_ranks = [rank_at(m, p) for p in points]
            im_rank = (k_rank if contains and max(point_ranks) == k_rank
                       else rank_generic(m))
        equal = contains and im_rank == k_rank
        const = all(r == im_rank for r in point_ranks)
        per[-i] = AdmissibilityDegree(im_rank, k_rank, equal, const)
        ok = ok and equal and const
        if gens is not None:
            gens = gens + [i] * (E.rank(i) - k_rank) if equal else None
    return AdmissibilityReport(per, ok, points)


# --- constructors -----------------------------------------------------------


def split_from_gens(base_names: Sequence[str], gens: Sequence[Tuple[int, str]],
                    n: int) -> CoalgebraBundle:
    """Split bundle on the free graded-commutative algebra over named generators.

    The degree -i fiber carries the canonical monomial basis in the
    generators; the comultiplication is dual to the product.  Its columns
    (`_free_columns`) are the bundle's `integer_view` (lam = 1), which every
    constant reader reads; the Poly blocks are filled from them only when
    `mu` is read.
    """
    gens = sorted(gens, key=lambda t: t[0])
    by_degree: Dict[int, list] = {}
    gen_ids = []
    for deg, name in gens:
        idx = len(by_degree.setdefault(deg, []))
        by_degree[deg].append(name)
        gen_ids.append((deg, idx))
    monomials = {i: monomials_of_degree(gen_ids, i) for i in range(1, n + 1)}
    ranks = {i: len(monomials[i]) for i in range(1, n + 1)}
    ordered = [(d, name) for d in sorted(by_degree) for name in by_degree[d]]
    E = CoalgebraBundle(n, base_names, ranks, None, split=SplitData(ordered, monomials))
    E._keep_view({i: _free_columns(monomials, i) for i in range(2, n + 1)}, 1)
    return E


def _free_columns(monomials: dict, i: int) -> list:
    """Int columns of the free algebra's comultiplication at degree -i, one
    per word of `monomials[i]`: a pair of words of degrees j <= k holds the
    Koszul sign of their merge, and its mirror that sign times the swap's."""
    index = {w: t for t, w in enumerate(monomials[i])}
    cols = [{} for _ in monomials[i]]
    for j in range(1, i // 2 + 1):
        k = i - j
        mirror = -1 if j & k & 1 else 1
        for a, wa in enumerate(monomials[j]):
            for b, wb in enumerate(monomials[k]):
                sign, canon = koszul_merge(wa, wb)
                if sign:
                    col = cols[index[canon]]
                    col[((j, a), (k, b))] = sign
                    if j < k:
                        col[((k, b), (j, a))] = sign * mirror
    return cols


def split_coalgebra(ranks: Sequence[int], base_names: Sequence[str] = ()) -> CoalgebraBundle:
    """Split bundle from generator counts per degree (index 0 is degree -1)."""
    n = len(ranks)
    gens = [(i + 1, f"d{i + 1}_{t + 1}") for i, r in enumerate(ranks) for t in range(r)]
    return split_from_gens(base_names, gens, n)


def wedge_coalgebra(m1: int, n: int, base_names: Sequence[str] = ()) -> CoalgebraBundle:
    """Exterior-power bundle of a rank m1 space, comultiplication dual to wedge."""
    return split_coalgebra([m1] + [0] * (n - 1), base_names)


def dvb_coalgebra(rk_a: int, rk_b: int, rk_c: int, rk_omega: int,
                  phi: PolyMatrix, n: int,
                  base_names: Sequence[str] = ()) -> CoalgebraBundle:
    """Bundle built from a double-vector-bundle sequence 0 -> C -> Omega -> A(x)B -> 0.

    `phi` maps the Omega frame to A tensor B (rows ordered (a, b) row-major).
    The bundle is the split one on letters a_s of degree 1 and b_t of degree
    n - 1, except in degree -n: there the frame lists the words in A alone,
    then Omega, whose column m is the sum over (s, t) of phi[(s, t)][m] times
    the word a_s b_t, then the remaining words.  Raises when the claimed
    sequence cannot be exact.
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
    S = split_from_gens(base_names, [(1, f"a{s + 1}") for s in range(rk_a)]
                        + [(n - 1, f"b{t + 1}") for t in range(rk_b)], n)
    # for n = 2 the b letters are degree-1 generators numbered after the a's
    b0 = rk_a if n == 2 else 0
    ab_rows = {((1, s), (n - 1, b0 + t)): s * rk_b + t
               for s in range(rk_a) for t in range(rk_b)}
    words = S.split.monomials[n]
    in_a = [w for w in words if all(g[0] == 1 and g[1] < rk_a for g in w)]
    rest = [w for w in words if w not in ab_rows and w not in in_a]
    one = Poly.one(nv)
    frame = ([{w: one} for w in in_a]
             + [{w: phi.entries[r][m] for w, r in ab_rows.items()} for m in range(rk_omega)]
             + [{w: one} for w in rest])
    pos = {w: t for t, w in enumerate(words)}
    select = PolyMatrix.zero(len(words), len(frame), nv)
    for c, col in enumerate(frame):
        for w, e in col.items():
            select.entries[pos[w]][c] = e
    ranks = {**S.ranks, n: len(frame)}
    mu = dict(S.mu)
    products = ((bk, bm.mul(select)) for bk, bm in S.mu[n].items())
    mu[n] = {bk: bm for bk, bm in products if not bm.is_zero()}
    return CoalgebraBundle(n, base_names, ranks, mu)


def truncate(E: CoalgebraBundle, k: int) -> CoalgebraBundle:
    """Drop all summands below degree -k, restricting the comultiplication
    (a split model keeps its generators of degree <= k)."""
    if not 0 <= k <= E.n:
        raise ValueError("truncation level out of range")
    if E.split is not None:
        return split_from_gens(E.base_names, [g for g in E.split.gens if g[0] <= k], k)
    ranks = {i: E.rank(i) for i in range(1, k + 1)}
    mu = {i: dict(E.mu.get(i, {})) for i in range(2, k + 1)}
    return CoalgebraBundle(k, E.base_names, ranks, mu)


# --- morphisms ---------------------------------------------------------------


class CoalgebraMorphism:
    """Degree-preserving fiberwise map between bundles over the same chart.

    A morphism built `from_rows` keeps its number rows as `rows` and builds
    its PolyMatrix `matrices` on first read; otherwise `rows` is None.
    """

    def __init__(self, source: CoalgebraBundle, target: CoalgebraBundle,
                 matrices: Optional[Dict[int, PolyMatrix]]):
        self.source = source
        self.target = target
        self._matrices = matrices
        self.rows: Optional[dict] = None

    @classmethod
    def from_rows(cls, source: CoalgebraBundle, target: CoalgebraBundle,
                  rows: dict) -> "CoalgebraMorphism":
        """The morphism whose degree i matrix has the number rows `rows[i]`."""
        phi = cls(source, target, None)
        phi.rows = rows
        return phi

    @property
    def matrices(self) -> Dict[int, PolyMatrix]:
        if self._matrices is None:
            self._matrices = {i: PolyMatrix.from_rat(len(m), _width(m, self.source.rank(i)), m,
                                                     self.source.nvars)
                              for i, m in self.rows.items()}
        return self._matrices

    def matrix(self, i: int) -> PolyMatrix:
        m = self.matrices.get(i)
        if m is None:
            return PolyMatrix.zero(self.target.rank(i), self.source.rank(i),
                                   self.source.nvars)
        return m

    def __getitem__(self, i: int) -> list:
        return self.matrix(i).entries


def morphism_check(phi: CoalgebraMorphism, E: CoalgebraBundle,
                   F: CoalgebraBundle) -> bool:
    """Exact check of mu_F phi = (phi (x) phi) mu_E, per degree on sparse columns.

    On constant data it reads the integer views, lam_E and lam_F times the
    bundles', and phi's number rows (the kept `rows` of a morphism built
    `from_rows`, else its constant entries read once) as ints, D times the
    numbers, D being their common denominator: the left side carries
    D lam_F and the right, quadratic in phi, D^2 lam_E, so it compares
    D lam_E lhs with lam_F rhs (each scale divided by their gcd), and every
    product is of ints.
    """
    if E.n != F.n:
        return False
    degrees = range(1, E.n + 1)
    constant = E.is_constant() and F.is_constant()
    if constant and phi.rows is not None:
        # the number rows the morphism was built from; a missing degree is zero
        rows = {i: phi.rows[i] if i in phi.rows else
                [[0] * phi.source.rank(i) for _ in range(phi.target.rank(i))] for i in degrees}
        shapes = {i: (len(m), _width(m, phi.source.rank(i))) for i, m in rows.items()}
    else:
        mats = {i: phi.matrix(i) for i in degrees}
        shapes = {i: (m.rows, m.cols) for i, m in mats.items()}
        rows = {i: m.entries for i, m in mats.items()}
        constant = constant and all(m.is_constant() for m in mats.values())
        if constant:
            rows = {i: _numbers(m) for i, m in mats.items()}
    if any(shape != (F.rank(i), E.rank(i)) for i, shape in shapes.items()):
        raise ValueError("morphism matrices have incompatible shapes")
    s_lhs = s_rhs = 1
    if constant:
        E, F = E.integer_view(), F.integer_view()
        den = lcm(*(v.denominator for m in rows.values() for row in m for v in row))
        rows = {i: [[v.numerator * (den // v.denominator) for v in row] for row in m]
                for i, m in rows.items()}
        g = gcd(den * E.lam, F.lam)
        s_lhs, s_rhs = den * E.lam // g, F.lam // g
    for i in range(2, E.n + 1):
        for c, col in enumerate(E.mu_columns(i)):
            lhs = _image(F.mu_columns(i), ((b, row[c]) for b, row in enumerate(rows[i])))
            if _scaled(lhs, s_lhs) != _scaled(push_column(rows, col), s_rhs):
                return False
    return True


def _scaled(col: dict, s: int) -> dict:
    return col if s == 1 else {p: s * c for p, c in col.items()}


def _width(rows: list, cols: int) -> int:
    """Column count of number rows; `cols` when there are none."""
    return len(rows[0]) if rows else cols


def _numbers(m: PolyMatrix) -> list:
    """Entry rows of a constant matrix as plain numbers."""
    return [[p.terms.get((0,) * m.nvars, 0) for p in row] for row in m.entries]


# --- the splitting isomorphism ----------------------------------------------


@dataclass
class Splitting:
    """A constant bundle's splitting onto its split model (`build_splitting`):
    the degrees below its first failure, that failure, and what
    `check_admissible` reads per degree."""

    split: CoalgebraBundle  # the split model, below the first rank mismatch
    rows: dict  # degree -> number rows of phi_i, below the first failure
    pivots: dict  # degree -> pivot columns of mu_i, through the first rank mismatch
    constraint: dict  # degree -> (dim K, contains), through the first failure but a -2 mismatch
    failure: Optional[str]  # the NotAdmissible message of the first failure


def build_splitting(E: CoalgebraBundle) -> Splitting:
    """The splitting of a constant bundle onto the split model on its kernels,
    walked degree by degree up to its first failure.

    The split model has one generator per kernel direction of the
    comultiplication, so its ranks are the dimensions of the free
    graded-commutative algebra on the kernel counts.  They are compared with
    the bundle's first; the model is built only below the first mismatch,
    whose refusal stands unless a degree below it fails, so the refusals keep
    their order.  Then, per degree: the standard kernel vector of a free
    column f is 1 at f and 0 at the other free columns, and every pivot
    column is 0 at all free columns, so the rows onto the new generators are
    unit rows at the free columns.  The rows onto the decomposable words hold
    the preimage of each column pushed through the lower-degree map tensor
    itself.  The split comultiplication only selects and signs: each ordered
    pair of split words lies in the column of one word, its Koszul merge,
    with sign +-1; so a coefficient is the pushed entry at one representative
    pair times its sign, and one sparse product checks that the coefficients
    give the pushed column back, else the image leaves the constraint space
    and the walk stops.  The columns of the singleton words are zero, so a
    degree j passes exactly when mu_S phi_j = (phi (x) phi) mu_E.

    Each phi_j that passes is invertible, so no degree is refused as
    singular.  Let phi below j be an isomorphism; then so is phi (x) phi on
    the pairs of degree j.  The decomposable columns of mu_S are
    independent: each is nonzero at its pair (first letter, rest), and no
    pair lies in two of them.  So the decomposable rows D of phi_j have
    ker D = ker mu_j.  The pivot columns of mu_j are independent, so D is
    injective on them, and D has one row per pivot because the ranks match;
    so D on the pivot columns is invertible, and so is phi_j, block
    triangular with the unit rows.

    Hence phi below degree i is a coalgebra isomorphism onto S, and
    phi (x) phi maps K_i(E) onto K_i(S): K_i depends only on mu below i,
    and every constraint variant commutes with such a map.  The split model
    is admissible (the paper's canonical description), so K_i(S) is spanned
    by its decomposable columns.  At each degree i the walk tests, dim K_i
    is therefore the number of decomposable words, and im mu_i lies in K_i
    exactly when the test passes; `constraint` keeps both.  At i = 2, phi_1
    is the identity and K_2 the swap kernel, whose dimension, the number of
    graded-symmetric pairs of degree -1 elements, is the number of words
    of two distinct degree 1 generators.  So it does at a
    rank mismatch at -i, i >= 3, reached with every lower degree passing:
    the split model on the lower generators has no generator of degree i,
    so its words of degree i are all decomposable (`_free_columns` writes
    their int columns; no model is built there); the mismatch stays the refusal.

    It runs on the ints of the `integer_view` and of the split model's (+-1):
    lam moves no pivot and scales the columns pushed through the number rows
    of the lower degrees, and their preimages, so each q is stored as q / lam.
    """
    V = E.integer_view()
    counts, pivots, failure = [], {}, None
    for i in range(1, E.n + 1):
        pivots[i] = rat_pivots(V.mu_rows(i))
        counts.append(E.rank(i) - len(pivots[i]))
        rs = dim_symmetric_component([d for d, k in enumerate(counts, 1) for _ in range(k)], i)
        if rs != E.rank(i):
            failure = f"rank mismatch at degree {-i}: bundle rank {E.rank(i)}, split model rank {rs}"
            counts.pop()
            break
    S = split_coalgebra(counts, E.base_names)
    sp = Splitting(S, {}, pivots, {}, failure)
    for i in range(1, S.n + 1):
        words = S.split.monomials[i]
        pre = _preimages(sp.rows, V.mu_columns(i), S.integer_view().mu_columns(i))
        sp.constraint[i] = (sum(len(w) > 1 for w in words), pre is not None)
        if pre is None:
            sp.failure = f"comultiplication image leaves the constraint space at degree {-i}"
            return sp
        r = E.rank(i)
        free = [c for c in range(r) if c not in pivots[i]]
        mat = [[0] * r for _ in range(r)]
        for t, f in zip((t for t, w in enumerate(words) if len(w) == 1), free):
            mat[t][f] = 1
        for c, preimage in enumerate(pre):
            for t, q in preimage:
                mat[t][c] = _canon(Fraction(q, V.lam))
        sp.rows[i] = mat
    i = S.n + 1
    if failure is not None and i >= 3:
        words = monomials_of_degree([(d, t) for d, k in enumerate(counts, 1) for t in range(k)], i)
        s_cols = _free_columns({**S.split.monomials, i: words}, i)
        sp.constraint[i] = (len(words), _preimages(sp.rows, V.mu_columns(i), s_cols) is not None)
    return sp


def _preimages(rows: dict, cols: list, s_cols: list) -> Optional[list]:
    """Each column pushed through the lower number rows, as split-model
    coordinates (word position, q), q read at one pair of a decomposable
    word's column; None when a pushed column is not given back by them."""
    reps = [(t, *next(iter(col.items()))) for t, col in enumerate(s_cols) if col]
    out = []
    for col in cols:
        pushed = push_column(rows, col)
        preimage = [(t, pushed[p] * sign) for t, p, sign in reps if p in pushed]
        if _image(s_cols, preimage) != pushed:
            return None
        out.append(preimage)
    return out


def splitting_iso(E: CoalgebraBundle, at_point: Optional[Sequence] = None) -> CoalgebraMorphism:
    """Isomorphism from an admissible bundle onto the split model on its
    kernels, from the bundle's kept `splitting`: it raises the first failure
    as NotAdmissible, or returns the morphism `from_rows` of the splitting's
    number rows, whose Poly matrices are built only when read.  Requires
    fiberwise-constant comultiplication; pass `at_point` to split a single
    fiber otherwise, a constant bundle over no base variable built, as a
    split model is, on the int columns of its values at the point.
    """
    if not E.is_constant():
        if at_point is None:
            raise UnsupportedXDependence("splitting needs constant comultiplication entries; "
                                         "supply a base point for a fiberwise splitting")
        if len(at_point) != E.nvars:
            raise ValueError("point has wrong length")
        values, fiber = _Monomials(at_point), CoalgebraBundle(E.n, (), E.ranks, None)
        fiber._keep_view(*_int_columns({
            i: [[(p, v) for p, c in col.items() if (v := c._eval(values))] for col in E.mu_columns(i)]
            for i in range(2, E.n + 1)}))
        E = fiber
    sp = E.splitting()
    if sp.failure is not None:
        raise NotAdmissible(sp.failure)
    return CoalgebraMorphism.from_rows(E, sp.split, sp.rows)
