"""Coalgebra bundles over a polynomial chart.

A bundle stores one trivialized fiber space per negative degree plus the
comultiplication components in block form: for each total degree only the
blocks (j, k) with j <= k are kept, the others being forced by
cocommutativity.  `CoalgebraBundle.mu_columns` expands the blocks once per
degree into sparse columns over the full ordered pair basis; every check
(cocommutativity, coassociativity, the coherence constraint space,
admissibility) reads that one expanded form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .errors import DvbNotExact, NotAdmissible, UnsupportedXDependence
from .exactnum import (
    Poly,
    PolyMatrix,
    kernel_basis,
    poly_inverse,
    primitive_vector,
    rank_at,
    rank_generic,
    rat_inverse,
    rat_kernel,
    rat_rref,
    rat_solve,
    span_rank,
)
from .gradedring import (
    GradedFunction,
    GradedSignature,
    braiding_sign,
    koszul_sort,
    monomials_of_degree,
)

Elem = Tuple[int, int]  # (positive degree, fiber index)


def _accumulate(col: dict, key, val: Poly):
    """Add `val` at `key` of a sparse column, dropping the key when the sum is zero."""
    acc = col.get(key)
    acc = val if acc is None else acc.add(val)
    if acc.is_zero():
        col.pop(key, None)
    else:
        col[key] = acc


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
    degree -i frame.
    """

    def __init__(self, n: int, base_names: Sequence[str], ranks: Dict[int, int],
                 mu: Dict[int, Dict[Tuple[int, int], PolyMatrix]],
                 split: Optional[SplitData] = None,
                 frame_prefix: str = "E"):
        self.n = n
        self.base_names = tuple(base_names)
        self.nvars = len(self.base_names)
        self.ranks = {i: int(ranks.get(i, 0)) for i in range(1, n + 1)}
        self.mu = mu
        self.split = split
        self.frame_prefix = frame_prefix
        self._tensor_cache: dict = {}
        self._power_cache: dict = {}
        self._columns_cache: dict = {}

    # --- basic structure -------------------------------------------------

    def rank(self, i: int) -> int:
        return self.ranks.get(i, 0)

    def elements(self, i: int) -> list:
        return [(i, a) for a in range(self.rank(i))]

    def frame_name(self, e: Elem) -> str:
        if self.split is not None:
            word = self.split.monomials[e[0]][e[1]]
            return "*".join(self.split.gens[self._gen_pos(g)][1] for g in word) or "1"
        return f"{self.frame_prefix}{e[0]}_{e[1] + 1}"

    def _gen_pos(self, gid: Elem) -> int:
        count = -1
        for pos, (d, _) in enumerate(self.split.gens):
            if d == gid[0]:
                count += 1
                if count == gid[1]:
                    return pos
        raise KeyError(gid)

    def is_constant(self) -> bool:
        return all(
            m.is_constant() for blocks in self.mu.values() for m in blocks.values()
        )

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

    def full_mu(self, i: int) -> PolyMatrix:
        """Comultiplication at degree -i as a matrix over the full ordered pair basis."""
        index = {p: r for r, p in enumerate(self.tensor_basis(2, i))}
        out = PolyMatrix.zero(len(index), self.rank(i), self.nvars)
        for c, col in enumerate(self.mu_columns(i)):
            for p, e in col.items():
                out.entries[index[p]][c] = e
        return out

    def power_columns(self, e: Elem, k: int) -> dict:
        """Sparse column of the k-fold comultiplication iterate on one frame element.

        Iterates apply the comultiplication to the last tensor factor.
        """
        key = (e, k)
        cached = self._power_cache.get(key)
        if cached is not None:
            return cached
        if k == 0:
            out = {(e,): Poly.one(self.nvars)}
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
            _accumulate(out, T[:pos] + pair + T[pos + 1:], c.mul(q))
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
        _accumulate(out, tuple(T[q] for q in perm), c.scale(sign))
    return out


def _variant_pair_columns(E: CoalgebraBundle, degree: int, k: int, l: int,
                          perm: Optional[Sequence[int]]) -> list:
    """Columns of tau . (mu^k (x) mu^l) over the ordered pair basis at -degree."""
    pairs = E.tensor_basis(2, degree)
    cols = []
    for (u, v) in pairs:
        cu = E.power_columns(u, k)
        cv = E.power_columns(v, l)
        col: dict = {}
        for t1, c1 in cu.items():
            for t2, c2 in cv.items():
                _accumulate(col, t1 + t2, c1.mul(c2))
        if perm is not None:
            col = permute_column(col, perm)
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
    """Verify cocommutativity and coassociativity as exact matrix identities."""
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


@dataclass
class KSpace:
    """Solution space of the coherence constraints in one degree."""

    degree: int  # negative
    pair_basis: list
    vectors: list  # list of Poly coordinate vectors over pair_basis
    flags: list  # polynomiality flags, one per vector

    @property
    def dim(self) -> int:
        return len(self.vectors)


def compute_K(E: CoalgebraBundle, degree: int) -> KSpace:
    """Constraint space at the given negative degree.

    Intersects the kernels of all pairwise differences between iterate
    variants tau.(mu^k (x) mu^l) of equal total tensor length; lengths above
    |degree| vanish because every factor sits in degree <= -1.
    """
    if not (-(E.n + 1) <= degree <= -2):
        raise ValueError("degree out of range for constraint space")
    d = -degree
    pairs = E.tensor_basis(2, d)
    nv = E.nvars
    if not pairs:
        return KSpace(degree, pairs, [], [])
    basis = []
    for t in range(len(pairs)):
        basis.append([Poly.one(nv) if s == t else Poly.zero(nv) for s in range(len(pairs))])
    flags = [True] * len(basis)

    for length in range(2, d + 1):
        splits = [(k, length - 2 - k) for k in range(length - 1)]
        perms = list(itertools.permutations(range(length)))
        ref_cols = _variant_pair_columns(E, d, splits[0][0], splits[0][1], None)
        variants = []
        first = True
        for (k, l) in splits:
            for perm in perms:
                if first:
                    # reference variant: identity permutation of the first split
                    first = False
                    continue
                variants.append((k, l, perm))
        for (k, l, perm) in variants:
            if not basis:
                break
            var_cols = _variant_pair_columns(E, d, k, l, perm)
            images = []
            tuples_seen = {}
            for vec in basis:
                img: dict = {}
                for p, coeff in enumerate(vec):
                    if coeff.is_zero():
                        continue
                    for T, c in var_cols[p].items():
                        img[T] = img.get(T, Poly.zero(nv)).add(coeff.mul(c))
                    for T, c in ref_cols[p].items():
                        img[T] = img.get(T, Poly.zero(nv)).sub(coeff.mul(c))
                img = {t: c for t, c in img.items() if not c.is_zero()}
                images.append(img)
                for t in img:
                    tuples_seen.setdefault(t, len(tuples_seen))
            if not tuples_seen:
                continue
            rows = len(tuples_seen)
            m = PolyMatrix.zero(rows, len(basis), nv)
            for col, img in enumerate(images):
                for t, c in img.items():
                    m.entries[tuples_seen[t]][col] = c
            kern = kernel_basis(m)
            new_basis = []
            new_flags = []
            for kv, ok in kern:
                vec = [Poly.zero(nv) for _ in range(len(pairs))]
                for t, coeff in enumerate(kv):
                    if coeff.is_zero():
                        continue
                    for s in range(len(pairs)):
                        if not basis[t][s].is_zero():
                            vec[s] = vec[s].add(coeff.mul(basis[t][s]))
                new_basis.append(primitive_vector(vec))
                new_flags.append(ok)
            basis, flags = new_basis, new_flags
        if not basis:
            break
    return KSpace(degree, pairs, basis, flags)


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

    Equality of spans is decided generically over the fraction field; the
    constant-rank flag compares the generic image rank with the rank at every
    supplied sample point.
    """
    points = [tuple(Fraction(x) for x in p) for p in sample_points]
    if not points:
        raise ValueError("at least one sample point is required")
    per = {}
    ok = True
    for i in range(2, E.n + 1):
        m = E.full_mu(i)
        im_rank = rank_generic(m)
        ks = compute_K(E, -i)
        k_rank = span_rank(ks.vectors, E.nvars)
        union = [m.col(c) for c in range(m.cols)] + list(ks.vectors)
        u_rank = span_rank(union, E.nvars)
        equal = im_rank == k_rank == u_rank
        const = all(rank_at(m, p) == im_rank for p in points)
        per[-i] = AdmissibilityDegree(im_rank, k_rank, equal, const)
        ok = ok and equal and const
    return AdmissibilityReport(per, ok, points)


# --- constructors -----------------------------------------------------------


def split_from_gens(base_names: Sequence[str], gens: Sequence[Tuple[int, str]],
                    n: int) -> CoalgebraBundle:
    """Split bundle on the free graded-commutative algebra over named generators.

    The degree -i fiber carries the canonical monomial basis in the
    generators; the comultiplication is dual to the product, so each matrix
    entry is the Koszul sign of merging the two row words into the column
    word.
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
    nv = len(base_names)
    mon_index = {i: {w: t for t, w in enumerate(monomials[i])} for i in range(1, n + 1)}
    mu: Dict[int, Dict[Tuple[int, int], PolyMatrix]] = {}
    for i in range(2, n + 1):
        blocks = {}
        for j in range(1, i // 2 + 1):
            k = i - j
            if ranks.get(j, 0) == 0 or ranks.get(k, 0) == 0:
                continue
            rows = ranks[j] * ranks[k]
            m = PolyMatrix.zero(rows, ranks[i], nv)
            for a, wa in enumerate(monomials[j]):
                for b, wb in enumerate(monomials[k]):
                    sign, canon = koszul_sort(wa + wb)
                    if sign == 0:
                        continue
                    c = mon_index[i].get(canon)
                    if c is None:
                        continue
                    m.entries[a * ranks[k] + b][c] = Poly.const(nv, sign)
            if not m.is_zero():
                blocks[(j, k)] = m
        mu[i] = blocks
    ordered = [(d, name) for d in sorted(by_degree) for name in by_degree[d]]
    return CoalgebraBundle(n, base_names, ranks, mu,
                           split=SplitData(ordered, monomials))


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
    return CoalgebraBundle(n, base_names, ranks, mu, frame_prefix="D")


def truncate(E: CoalgebraBundle, k: int) -> CoalgebraBundle:
    """Drop all summands below degree -k, restricting the comultiplication."""
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
    return CoalgebraBundle(k, E.base_names, ranks, mu, split=split,
                           frame_prefix=E.frame_prefix)


# --- morphisms ---------------------------------------------------------------


class CoalgebraMorphism:
    """Degree-preserving fiberwise map between bundles over the same chart."""

    def __init__(self, source: CoalgebraBundle, target: CoalgebraBundle,
                 matrices: Dict[int, PolyMatrix]):
        self.source = source
        self.target = target
        self.matrices = matrices

    def matrix(self, i: int) -> PolyMatrix:
        m = self.matrices.get(i)
        if m is None:
            return PolyMatrix.zero(self.target.rank(i), self.source.rank(i),
                                   self.source.nvars)
        return m

    def tensor_square(self, i: int) -> PolyMatrix:
        """The induced map on ordered pair bases in total degree -i."""
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

    def compose(self, other: "CoalgebraMorphism") -> "CoalgebraMorphism":
        """self o other (other applied first)."""
        if other.target is not self.source and other.target != self.source:
            raise ValueError("morphisms are not composable")
        mats = {}
        for i in range(1, self.target.n + 1):
            mats[i] = self.matrix(i).mul(other.matrix(i))
        return CoalgebraMorphism(other.source, self.target, mats)

    def inverse(self) -> "CoalgebraMorphism":
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

    def is_identity_shaped(self) -> bool:
        return all(
            self.matrix(i) == PolyMatrix.identity(self.source.rank(i), self.source.nvars)
            for i in range(1, self.source.n + 1)
        )


def morphism_check(phi: CoalgebraMorphism, E: CoalgebraBundle,
                   F: CoalgebraBundle) -> bool:
    """Exact check of the comultiplication-intertwining identity per degree."""
    if E.n != F.n:
        return False
    for i in range(1, E.n + 1):
        m = phi.matrix(i)
        if (m.rows, m.cols) != (F.rank(i), E.rank(i)):
            raise ValueError("morphism matrices have incompatible shapes")
    for i in range(2, E.n + 1):
        lhs = F.full_mu(i).mul(phi.matrix(i))
        rhs = phi.tensor_square(i).mul(E.full_mu(i))
        if lhs != rhs:
            return False
    return True


def split_morphism_from_linear(linear: Dict[Elem, dict], S: CoalgebraBundle,
                               T: CoalgebraBundle) -> CoalgebraMorphism:
    """Extend a degree-preserving linear map on split generators multiplicatively.

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


# --- the splitting isomorphism ----------------------------------------------


def splitting_iso(E: CoalgebraBundle, at_point: Optional[Sequence] = None) -> CoalgebraMorphism:
    """Isomorphism from an admissible bundle onto the split model on its kernels.

    Works degree by degree: the kernel of the comultiplication maps to the new
    generators, a pivot-column complement maps to the unique decomposable
    preimage of its comultiplication image.  Requires fiberwise-constant
    comultiplication; pass `at_point` to work in a single fiber otherwise.
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
        E = CoalgebraBundle(E.n, (), E.ranks, const_mu, frame_prefix=E.frame_prefix)

    mu_rat = {i: E.full_mu(i).to_rat() for i in range(1, E.n + 1)}
    kernels = {i: rat_kernel(m, cols=E.rank(i)) for i, m in mu_rat.items()}
    S = split_coalgebra([len(kernels[i]) for i in range(1, E.n + 1)], E.base_names)

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
        ker = kernels[i]
        d_i = len(ker)
        if rs != r:
            raise NotAdmissible(
                f"rank mismatch at degree {-i}: bundle rank {r}, split model rank {rs}"
            )
        # coordinates along the kernel inside ker (+) complement
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

        # decomposable block of the split comultiplication
        smu = S.full_mu(i).to_rat()
        decomp_cols = [[smu[row][c] for c in decomp_pos] for row in range(len(smu))]
        tsq = CoalgebraMorphism(E, S, matrices).tensor_square(i).to_rat()
        cols_out = []
        for c in range(r):
            w = [row[c] for row in m]
            tw = [sum((tsq[row][s] * w[s] for s in range(len(w))), Fraction(0))
                  for row in range(len(tsq))] if tsq else []
            if decomp_cols and decomp_cols[0]:
                sol, bad = rat_solve(decomp_cols, tw)
            else:
                sol, bad = ([], None) if all(v == 0 for v in tw) else (None, 0)
            if sol is None:
                raise NotAdmissible(
                    f"comultiplication image leaves the constraint space at degree {-i}"
                )
            col = [Fraction(0)] * rs
            for t in range(d_i):
                col[singleton_pos[t]] = proj[t][c] if proj else Fraction(0)
            for t, pos in enumerate(decomp_pos):
                col[pos] = sol[t]
            cols_out.append(col)
        mat = [[cols_out[c][row] for c in range(r)] for row in range(rs)]
        try:
            rat_inverse(mat)
        except ValueError:
            raise NotAdmissible(f"splitting map is singular at degree {-i}")
        matrices[i] = PolyMatrix.from_rat(rs, r, mat, nv)
    return CoalgebraMorphism(E, S, matrices)
