"""Exact rational scalars, sparse multivariate polynomials and fraction-field
linear algebra.

Scalars are `fractions.Fraction` (arbitrary precision, normalized gcd = 1,
positive denominator), aliased as `Rat`.  Polynomials are sparse maps from
exponent vectors to nonzero coefficients in canonical form: a Python `int`
when the coefficient is integral and a `Fraction` otherwise, so integral data
never pays for Fraction objects.  The form is canonical on construction:
`Poly(nvars, terms)` drops zeros and coerces every coefficient, so input
built from Fractions or floats runs on ints like parsed input; the operations
here build their already canonical results through `_poly`, which checks
nothing.  Values that leave a polynomial
(`constant_value`, `leading`, `eval`) are always Fractions.  On Polys, `+`,
unary `-`, `*` and truth values are `add`, `neg`, `mul` and `not is_zero`,
so `accumulate`, written on the operators, sums Polys, chart functions and numbers.
The monomial order used for pivoting is graded lexicographic.  Everything here is
immutable in spirit: operations return fresh values and never mutate their
inputs.

All linear algebra (rank, echelon form, kernel, solve, inverse, over the
rationals and over Q[x]) is one fraction-free Gauss-Jordan routine,
`_eliminate`, run on integer rows when every entry is constant and on Poly
rows otherwise.  The kernels of the coherence constraints in
`coalgebra.compute_K` come from `rat_kernel` on constant bundles and from
`kernel_basis` otherwise.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from math import gcd, lcm, log10
from typing import Optional, Sequence

from .errors import NumberTooLong

Rat = Fraction

RAT_ZERO = Fraction(0)
RAT_ONE = Fraction(1)


def _canon(c):
    """A rational in stored form: an int when integral, else the Fraction."""
    return c.numerator if c.denominator == 1 else c


def _coeff(c):
    """Any exact rational value (int, bool, Fraction, float, numeric string) in
    stored form."""
    return c if type(c) is int else _canon(Fraction(c))


def _point(point: Sequence) -> list:
    """Rational coordinates in canonical form, so integral data evaluates on ints."""
    return [_canon(Fraction(p)) for p in point]


def _key(exps: tuple, degree: int):
    # graded lex: total degree first, then plain lex on the exponent vector
    return (degree, exps)


class Poly:
    """Sparse multivariate polynomial over the rationals.

    `terms` maps exponent tuples (length `nvars`) to nonzero coefficients,
    each an `int` when integral and a `Fraction` otherwise.  The form is
    canonical on construction: the constructor drops zero coefficients and
    stores the rest by the rule of `Poly.const`, so no float is ever kept.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {e: c for e, c in ((e, _coeff(v)) for e, v in terms.items()) if c}

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return _poly(nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        c = _coeff(c)
        return _poly(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.const(nvars, 1)

    @classmethod
    def var(cls, nvars: int, i: int) -> "Poly":
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return _poly(nvars, {exps: 1})

    # --- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return RAT_ZERO
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(next(iter(self.terms.values())))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # --- arithmetic ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    def add(self, other: "Poly") -> "Poly":
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, 0) + c
            if s:
                terms[exps] = _canon(s)
            else:
                terms.pop(exps, None)
        return _poly(self.nvars, terms)

    def neg(self) -> "Poly":
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.neg())

    def mul(self, other: "Poly") -> "Poly":
        self._check(other)
        if len(self.terms) == 1 == len(other.terms):
            # one term times one term: a single product, nonzero because
            # stored coefficients are
            (e1, c1), = self.terms.items()
            (e2, c2), = other.terms.items()
            return _poly(self.nvars, {tuple(map(operator.add, e1, e2)): _canon(c1 * c2)})
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return _poly(self.nvars, {e: _canon(c) for e, c in terms.items() if c})

    def scale(self, c) -> "Poly":
        c = _coeff(c)
        if c == 0:
            return Poly.zero(self.nvars)
        return _poly(self.nvars, {e: _canon(c * v) for e, v in self.terms.items()})

    # `*` goes through the `mul` attribute, so a counter patched onto
    # `Poly.mul` counts operator products too
    __add__ = add
    __neg__ = neg

    def __mul__(self, other: "Poly") -> "Poly":
        return self.mul(other)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def pow(self, k: int) -> "Poly":
        """self^k by repeated squaring, with no product by one or unread square."""
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result.mul(base)
            k >>= 1
            if k:
                base = base.mul(base)
        return Poly.one(self.nvars) if result is None else result

    # --- calculus -----------------------------------------------------

    def derivative(self, i: int) -> "Poly":
        terms = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            e = list(exps)
            k = e[i]
            e[i] -= 1
            te = tuple(e)
            terms[te] = terms.get(te, 0) + c * k
        return _poly(self.nvars, {e: _canon(c) for e, c in terms.items() if c})

    def antiderivative(self, i: int) -> "Poly":
        """Termwise antiderivative in variable i with zero constant term."""
        terms = {}
        for exps, c in self.terms.items():
            e = list(exps)
            e[i] += 1
            terms[tuple(e)] = _canon(Fraction(c, e[i]))
        return _poly(self.nvars, terms)

    def eval(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        return Fraction(self._eval(_point(point)))

    def _eval(self, pt: list):
        """Value at a point of canonical coordinates, as an int or Fraction."""
        total = 0
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(pt, exps):
                if e:
                    v *= x**e
            total += v
        return total

    def compose(self, subs: Sequence["Poly"]) -> "Poly":
        """Substitute subs[i] for variable i.  All subs share one variable count;
        each power subs[i]^e is computed once per call."""
        if len(subs) != self.nvars:
            raise ValueError("substitution list has wrong length")
        nv = subs[0].nvars if subs else 0
        powers: dict = {}
        result = Poly.zero(nv)
        for exps, c in self.terms.items():
            term = Poly.const(nv, c)
            for i, e in enumerate(exps):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = subs[i].pow(e)
                    term = term.mul(powers[i, e])
            result = result.add(term)
        return result

    # --- leading data & division ---------------------------------------

    def _leading_exps(self) -> tuple:
        return max(self.terms, key=lambda e: _key(e, sum(e)))

    def leading(self):
        """Leading (exponents, coefficient) under graded lex order."""
        if not self.terms:
            return None
        exps = self._leading_exps()
        return exps, Fraction(self.terms[exps])

    def div_exact(self, other: "Poly") -> Optional["Poly"]:
        """Exact quotient self / other, or None when division is not exact."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return Poly.zero(self.nvars)
        if other.is_constant():
            return self.scale(1 / other.constant_value())
        lo = other._leading_exps()
        lc = other.terms[lo]
        rem = self
        qterms: dict = {}
        while not rem.is_zero():
            le = rem._leading_exps()
            qe = tuple(a - b for a, b in zip(le, lo))
            if any(e < 0 for e in qe):
                return None
            # leading exponents strictly fall, so each qe is new
            qterms[qe] = qc = _canon(Fraction(rem.terms[le], lc))
            rem = rem.sub(_poly(self.nvars, {qe: qc}).mul(other))
        return _poly(self.nvars, qterms)

    # --- dunder -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        try:
            text = self.to_string([f"x{i}" for i in range(self.nvars)])
        except NumberTooLong as err:
            text = f"<{err}>"
        return f"Poly({text})"

    def to_string(self, names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: _key(kv[0], sum(kv[0])), reverse=True)
        parts = []
        for exps, c in items:
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            coeff = rat_text(c)
            if factors and abs(c) == 1:
                body = "*".join(factors)
                text = body if c > 0 else "-" + body
            elif factors:
                text = coeff + "*" + "*".join(factors)
            else:
                text = coeff
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _digits(n: int) -> int:
    """Decimal digit count of a positive int, without converting it to text."""
    k = int(log10(n))
    while 10**k <= n:
        k += 1
    return k


def rat_text(c) -> str:
    """Decimal text of an int or Fraction.

    A numerator or denominator past Python's int-string limit is a
    `NumberTooLong` naming its digit count and the limit; the limit itself is
    left as it is.
    """
    try:
        return str(c)
    except ValueError:
        digits = _digits(max(abs(c.numerator), c.denominator))
    raise NumberTooLong(f"coefficient of {digits} digits exceeds the limit of "
                        f"{sys.get_int_max_str_digits()} digits for decimal output")


_new = object.__new__


def _poly(nvars: int, terms: dict) -> Poly:
    """A Poly on terms already in canonical form, without the constructor's pass."""
    p = _new(Poly)
    p.nvars = nvars
    p.terms = terms
    return p


def accumulate(col: dict, key, val):
    """Add `val` at `key` of a sparse column, dropping the key when the sum is zero."""
    acc = col.get(key)
    acc = val if acc is None else acc + val
    if not acc:
        col.pop(key, None)
    else:
        col[key] = acc


# --- matrices ------------------------------------------------------------


class PolyMatrix:
    """Rectangular matrix with Poly entries."""

    __slots__ = ("rows", "cols", "entries", "nvars")

    def __init__(self, rows: int, cols: int, entries: list, nvars: int):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.nvars = nvars

    @classmethod
    def zero(cls, rows: int, cols: int, nvars: int) -> "PolyMatrix":
        return cls(rows, cols, [[Poly.zero(nvars) for _ in range(cols)] for _ in range(rows)], nvars)

    @classmethod
    def identity(cls, n: int, nvars: int) -> "PolyMatrix":
        m = cls.zero(n, n, nvars)
        for i in range(n):
            m.entries[i][i] = Poly.one(nvars)
        return m

    @classmethod
    def from_rat(cls, rows: int, cols: int, data: list, nvars: int) -> "PolyMatrix":
        return cls(
            rows, cols,
            [[Poly.const(nvars, data[i][j]) for j in range(cols)] for i in range(rows)],
            nvars,
        )

    def is_constant(self) -> bool:
        return all(e.is_constant() for row in self.entries for e in row)

    def to_rat(self) -> list:
        return [[e.constant_value() for e in row] for row in self.entries]

    def eval_at(self, point: Sequence) -> list:
        return [[e.eval(point) for e in row] for row in self.entries]

    def mul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = PolyMatrix.zero(self.rows, other.cols, self.nvars)
        for i in range(self.rows):
            for k in range(self.cols):
                a = self.entries[i][k]
                if a.is_zero():
                    continue
                for j in range(other.cols):
                    b = other.entries[k][j]
                    if b.is_zero():
                        continue
                    out.entries[i][j] = out.entries[i][j].add(a.mul(b))
        return out

    def add(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return PolyMatrix(
            self.rows, self.cols,
            [[self.entries[i][j].add(other.entries[i][j]) for j in range(self.cols)]
             for i in range(self.rows)],
            self.nvars,
        )

    def sub(self, other: "PolyMatrix") -> "PolyMatrix":
        return self.add(other.scale(-1))

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix(
            self.rows, self.cols,
            [[e.scale(c) for e in row] for row in self.entries],
            self.nvars,
        )

    def col(self, j: int) -> list:
        return [self.entries[i][j] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def map_entries(self, f) -> "PolyMatrix":
        return PolyMatrix(
            self.rows, self.cols,
            [[f(e) for e in row] for row in self.entries],
            self.nvars,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


# --- fraction-free elimination ---------------------------------------------


def _exact_div(a: Poly, b: Poly) -> Poly:
    q = a.div_exact(b)
    if q is None:
        # Bareiss guarantees exactness; guard for safety
        raise ArithmeticError("fraction-free elimination lost exactness")
    return q


# (mul, sub, exact div, is_zero, one) over the integers; `_prepare` builds
# the Q[x] tuple, whose one depends on the variable count
_INT_OPS = (operator.mul, operator.sub, operator.floordiv, operator.not_, 1)


def _eliminate(a: list, ops, ncols: Optional[int] = None, reduce: bool = True):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the rows of `a`, in place.

    The pivot of each column is its first nonzero entry at or below the
    current rank; only the first `ncols` columns (default all) take pivots.
    Every other row r becomes (pivot * row_r - row_r[c] * pivot_row) divided
    by the previous pivot.  By Sylvester's identity every entry is then a
    minor of the input, so each division is exact and entry degrees stay
    within the Cramer bound.  A row whose entry in column c is zero, under a
    pivot equal to the previous one, would become (pivot * row_r) / pivot =
    row_r exactly, so it is left as it is; eliminating an identity updates
    no row.
    With `reduce` the rows above the pivot are cleared too and `a` ends as
    det * RREF, det being the last pivot; without it only the rows below
    are, which is enough for the rank.

    Returns (pivot columns, perm, det), where row r of `a` came from input
    row perm[r].
    """
    mul, sub, div, is_zero, one = ops
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if ncols is not None:
        cols = min(cols, ncols)
    perm = list(range(rows))
    pivots = []
    det = one
    for c in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        piv = next((r for r in range(rank, rows) if not is_zero(a[r][c])), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        perm[rank], perm[piv] = perm[piv], perm[rank]
        prow = a[rank]
        p = prow[c]
        for r in range(0 if reduce else rank + 1, rows):
            f = a[r][c]
            if r == rank or is_zero(f) and p == det:
                continue
            row = [sub(mul(v, p), mul(f, w)) for v, w in zip(a[r], prow)]
            a[r] = [div(v, det) for v in row] if rank else row
        pivots.append(c)
        det = p
    return pivots, perm, det


def _int_rows(m: list) -> list:
    """Rows of ints and Fractions as integer rows, each scaled by its common
    denominator; rows already all int pass through.

    Row scaling changes no rank, echelon form, kernel or solution.
    """
    out = []
    for row in m:
        if all(type(v) is int for v in row):
            out.append(row)
            continue
        den = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (den // v.denominator) for v in row])
    return out


def _prepare(rows: list, nvars: int):
    """Elimination input for rows of Poly entries, with its ops.

    Integer rows when every entry is constant, else copies of the Poly rows.
    """
    if all(p.is_constant() for row in rows for p in row):
        z = (0,) * nvars
        return _int_rows([[p.terms.get(z, 0) for p in row] for row in rows]), _INT_OPS
    ops = (Poly.mul, Poly.sub, _exact_div, Poly.is_zero, Poly.one(nvars))
    return [list(row) for row in rows], ops


def _to_poly(v, nvars: int) -> Poly:
    return Poly.const(nvars, v) if isinstance(v, int) else v


def _quotient(v, det, nvars: int) -> Optional[Poly]:
    """v / det as a Poly, or None when the quotient is not a polynomial."""
    if isinstance(v, int):
        q, rem = divmod(v, det)
        return Poly.const(nvars, Fraction(v, det) if rem else q)
    return v.div_exact(det)


def primitive_vector(vec: list) -> list:
    """Vector divided by the positive rational gcd of all its coefficients.

    The entries are all Polys, or all plain ints and Fractions; a vector of
    plain numbers comes back as ints.
    """
    if vec and not isinstance(vec[0], Poly):
        den = lcm(*(v.denominator for v in vec))
        ints = [v.numerator * (den // v.denominator) for v in vec]
        g = gcd(*ints)
        return ints if g < 2 else [v // g for v in ints]
    num, den = 0, 1
    for p in vec:
        for c in p.terms.values():
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
    content = Fraction(num, den)
    if content in (0, 1):
        return vec
    return [p.scale(1 / content) for p in vec]


# --- rational (Fraction) linear algebra ----------------------------------


def rat_pivots(m: list) -> list:
    """Pivot columns of a matrix given as list of Fraction rows, from one
    forward elimination; they are the pivots of its RREF."""
    return _eliminate(_int_rows(m), _INT_OPS, reduce=False)[0]


def rat_rank(m: list) -> int:
    """Rank of a matrix given as list of Fraction rows."""
    return len(rat_pivots(m))


def rat_rref(m: list):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    a = _int_rows(m)
    pivots, _, det = _eliminate(a, _INT_OPS)
    return [[Fraction(v, det) for v in row] for row in a], pivots


def rat_kernel(m: list, cols: Optional[int] = None) -> list:
    """Basis of the right kernel, cleared to standard form vectors.

    Vector f is 1 at the non-pivot column f, 0 at the other non-pivot
    columns, and a Fraction at each pivot column.  `coalgebra.compute_K`
    eliminates each constraint matrix of a constant bundle here, on its
    integer rows.
    """
    if not m:
        return [[RAT_ONE if i == j else RAT_ZERO for i in range(cols or 0)] for j in range(cols or 0)]
    ncols = len(m[0])
    a = _int_rows(m)
    pivots, _, det = _eliminate(a, _INT_OPS)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [RAT_ZERO] * ncols
        v[f] = RAT_ONE
        for r, p in enumerate(pivots):
            v[p] = Fraction(-a[r][f], det)
        basis.append(v)
    return basis


def rat_solve(m: list, b: list):
    """One solution of m x = b over the rationals, or None when inconsistent.

    Free variables are set to zero; returns (solution, None) or
    (None, index of an inconsistent row in the eliminated system).
    """
    if not m:
        return ([], None) if all(v == 0 for v in b) else (None, 0)
    cols = len(m[0])
    a = _int_rows([list(row) + [b[r]] for r, row in enumerate(m)])
    pivots, _, det = _eliminate(a, _INT_OPS, ncols=cols)
    for r in range(len(pivots), len(a)):
        if a[r][cols]:
            return None, r
    x = [RAT_ZERO] * cols
    for r, p in enumerate(pivots):
        x[p] = Fraction(a[r][cols], det)
    return x, None


def rat_inverse(m: list) -> list:
    n = len(m)
    a = _int_rows([list(row) + [int(c == r) for c in range(n)] for r, row in enumerate(m)])
    pivots, _, det = _eliminate(a, _INT_OPS, ncols=n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [[Fraction(v, det) for v in row[n:]] for row in a]


# --- polynomial-matrix operations ----------------------------------------


def rank_generic(m: PolyMatrix) -> int:
    """Rank over the rational function field."""
    a, ops = _prepare(m.entries, m.nvars)
    return len(_eliminate(a, ops, reduce=False)[0])


def rank_at(m: PolyMatrix, point: Sequence) -> int:
    """Rank of the numeric specialization at a rational point."""
    if len(point) != m.nvars:
        raise ValueError("point has wrong length")
    pt = _point(point)
    rows = _int_rows([[e._eval(pt) for e in row] for row in m.entries])
    return len(_eliminate(rows, _INT_OPS, reduce=False)[0])


def kernel_basis(m: PolyMatrix):
    """Kernel of m over the fraction field.

    Returns a list of (vector, polynomial_flag) pairs, one per non-pivot
    column f.  Each vector is the fraction-free one (the pivot determinant at
    f, minors of m elsewhere), signed so that its entry at f has a positive
    leading coefficient and divided by its rational content.  The flag is
    always True; the benchmark tracer (`bench/tracer.py`) unpacks the pairs.
    `coalgebra.compute_K` calls it for the constraint matrices of bundles
    with non-constant entries; those of constant bundles go to `rat_kernel`.
    """
    nv = m.nvars
    a, ops = _prepare(m.entries, nv)
    pivots, _, det = _eliminate(a, ops)
    det = _to_poly(det, nv)
    sign = 1 if det.leading()[1] > 0 else -1
    det = det.scale(sign)
    basis = []
    for f in range(m.cols):
        if f in pivots:
            continue
        v = [Poly.zero(nv) for _ in range(m.cols)]
        v[f] = det
        for r, p in enumerate(pivots):
            v[p] = _to_poly(a[r][f], nv).scale(-sign)
        basis.append((primitive_vector(v), True))
    return basis


def poly_solve(m: PolyMatrix, b: list):
    """Solve m x = b over the fraction field.

    Returns (x, None) on success, with free variables set to zero and x[j]
    the value of unknown j as a Poly, or None where exact division by the
    pivot determinant fails (the value is not a polynomial); or (None,
    row_index) naming an inconsistent row of the original system.
    """
    nv = m.nvars
    a, ops = _prepare([row + [b[r]] for r, row in enumerate(m.entries)], nv)
    pivots, perm, det = _eliminate(a, ops, ncols=m.cols)
    is_zero = ops[3]
    for r in range(len(pivots), m.rows):
        if not is_zero(a[r][m.cols]):
            return None, perm[r]
    x = [Poly.zero(nv) for _ in range(m.cols)]
    for r, p in enumerate(pivots):
        x[p] = _quotient(a[r][m.cols], det, nv)
    return x, None


def poly_inverse(m: PolyMatrix) -> Optional[PolyMatrix]:
    """Inverse with polynomial entries, or None when no polynomial inverse exists.
    The inverse of I is a fresh I, with no elimination."""
    n = m.rows
    if n != m.cols:
        raise ValueError("inverse of a non-square matrix")
    nv = m.nvars
    one, zero = Poly.one(nv), Poly.zero(nv)
    ident = [[one if c == r else zero for c in range(n)] for r in range(n)]
    if m.entries == ident:
        return PolyMatrix(n, n, ident, nv)
    a, ops = _prepare([row + ident[r] for r, row in enumerate(m.entries)], nv)
    pivots, _, det = _eliminate(a, ops, ncols=n)
    if len(pivots) < n:
        return None
    inv = [[_quotient(v, det, nv) for v in row[n:]] for row in a]
    if any(v is None for row in inv for v in row):
        return None
    return PolyMatrix(n, n, inv, nv)
