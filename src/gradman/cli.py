"""Command line front end: a line-oriented chart/bundle/field DSL plus one
subcommand per engine operation.

Exit codes: 0 positive verdict, 1 negative verdict with witness, 2 usage or
parse error, 3 unsupported case (fiberwise-only or non-polynomial scope).
Reports are plain text by default and a single JSON object with --format=json.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence

from .coalgebra import (
    CoalgebraBundle,
    check_admissible,
    check_coalgebra,
    morphism_check,
    splitting_iso,
)
from .distrib import frobenius_normal_form, is_involutive, make_distribution
from .errors import (
    DegreeMismatch,
    GradmanError,
    NonConstantSymbols,
    NonPolynomialFlatFrame,
    NotAdmissible,
    NotInvolutive,
    ParseError,
    UnsupportedXDependence,
)
from .exactnum import Poly, PolyMatrix, rat_text
from .fields import (
    VectorField,
    base_coord,
    bracket,
    coord_name,
    gen_coord,
    homological_witness,
    is_homological,
    tangent_at,
)
from .geometrize import geometrize, reduce_product, roundtrip
from .gradedring import GradedFunction, GradedSignature

# Largest declared `coord` or `rank` degree.  The engine's work grows with the
# square of the chart degree: `admissible` on `rank -1000 = 1` takes about
# 0.2 s, so the cap keeps any declaration well under a second.
MAX_DECLARED_DEGREE = 1000

# Largest count of ordered frame pairs of one degree -i, the sum over
# j + k = i of rank_j * rank_k.  The comultiplication, the constraint space
# and the splitting all work over these pairs, and the work grows with the
# square of the count.  At the cap, in-process on one Xeon core (Python
# 3.11): `rank -1 = 500`, `rank -2 = 1` takes 0.71 s on `geometrize` and
# 0.71 s on `admissible`; `rank -1 = 350`, `rank -2 = 350`, `rank -3 = 1`
# (245,000 pairs at degree -3) takes 2.7 s on `admissible`.  It also caps
# rank_i ** 2, the entries of the dense rank_i x rank_i splitting of degree
# -i: `rank -1 = 500` alone takes 1.0 s on `geometrize` and 2.0 s on
# `roundtrip`.
MAX_DEGREE_PAIRS = 250_000

# --- tokenizer -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<dd>d/d[A-Za-z_][A-Za-z0-9_]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<arrow>->)
  | (?P<sep>;)
  | (?P<sym>[{}\[\](),:=+\-*^@/])
  | (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
    """,
    re.VERBOSE,
)

# a rational entry of a flag: -p or -p/q, the literal grammar of a document
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def read_int(text: str, line: Optional[int] = None, col: Optional[int] = None) -> int:
    """The value of a digit string; one longer than Python's int-string limit
    is a ParseError at the given position."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer literal of {len(text)} digits exceeds the limit of "
                         f"{sys.get_int_max_str_digits()} digits", line, col) from None


def read_rational(text: str) -> Optional[tuple]:
    """(p, q) of a flag entry `-p` or `-p/q` (q = 1 for `-p`), each read by
    `read_int`; None for any other text.  A zero q is returned for the
    caller to refuse."""
    m = _RATIONAL_RE.fullmatch(text.strip())
    return m and (read_int(m[1]), read_int(m[2] or "1"))


def tokenize(source: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            tokens.append(Token("sep", "\n", line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class Cursor:
    """A read position in a token list that ends in an `eof` token: a whole
    document, or the slice of one expression."""

    def __init__(self, tokens: list):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        """The next token.  Only an expression runs into its `eof` this way,
        so that is a ParseError at the expression's last token."""
        t = self.tokens[self.pos]
        if t.kind == "eof":
            last = self.tokens[self.pos - 1]
            raise ParseError(f"unexpected end of expression after {last.text!r}",
                             last.line, last.col)
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        """Whether the next token is the symbol `text`; no token of another
        kind has a symbol's text."""
        return self.tokens[self.pos].text == text

    def accept(self, text: str) -> bool:
        """Read the symbol `text` if it is next."""
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}",
                             t.line, t.col)
        self.pos += 1
        return t

    def expect_int(self) -> int:
        t = self.expect("int")
        return read_int(t.text, t.line, t.col)


# --- declarations ----------------------------------------------------------------


@dataclass
class CoalgebraDecl:
    name: str
    ranks: dict  # positive degree -> rank
    mu: dict  # positive degree -> matrix of Poly (stored block layout)


@dataclass
class VfDecl:
    name: str
    degree: int
    actions: list  # (coord name, GradedFunction)


@dataclass
class DistDecl:
    name: str
    generators: list
    points: list


@dataclass
class MorphismDecl:
    name: str
    source: str
    target: str
    matrices: dict  # positive degree -> matrix of Poly


@dataclass
class Document:
    base_names: tuple
    coords: tuple  # ((name, degree), ...)
    sig: GradedSignature
    coalgebras: dict
    vfs: dict
    dists: dict
    morphisms: dict

    def bundle(self, name: str) -> CoalgebraBundle:
        decl = self.coalgebras[name]
        n = max(decl.ranks) if decl.ranks else 0
        ranks = {i: decl.ranks.get(i, 0) for i in range(1, n + 1)}
        nv = len(self.base_names)
        mu: Dict[int, dict] = {}
        for i in range(2, n + 1):
            mat = decl.mu.get(i)
            blocks = {}
            if mat is not None:
                expected = rows_expected_blocks(ranks, i)
                rows = sum(count for _, count in expected)
                if len(mat) != rows or any(len(row) != ranks[i] for row in mat):
                    raise ParseError(f"mu {-i} of {name!r} must be {rows}x{ranks[i]}")
                offset = 0
                for (j, k), count in expected:
                    m = PolyMatrix(count, ranks[i],
                                   [mat[offset + r] for r in range(count)], nv)
                    if not m.is_zero():
                        blocks[(j, k)] = m
                    offset += count
            mu[i] = blocks
        return CoalgebraBundle(n, self.base_names, ranks, mu)

    def distribution(self, name: str, extra_points: Optional[list] = None):
        decl = self.dists[name]
        gens = []
        for g in decl.generators:
            if g not in self.vfs:
                raise ParseError(f"unknown vector field {g!r} in dist {name!r}")
            gens.append(self._field(g))
        for p in decl.points:
            if len(p) != self.sig.m0:
                raise ParseError(f"a point of dist {name!r} has {len(p)} coordinates, "
                                 f"the chart has {self.sig.m0} base coordinates")
        try:
            return make_distribution(gens, decl.points + (extra_points or []), sig=self.sig)
        except ValueError as exc:
            raise ParseError(f"dist {name!r}: {exc}") from None

    def _field(self, name: str) -> VectorField:
        decl = self.vfs[name]
        actions = {}
        for cname, f in decl.actions:
            if cname in self.sig.base_names:
                c = base_coord(self.sig.base_names.index(cname))
            else:
                c = gen_coord(self.sig.gen_by_name(cname))
            actions[c] = f
        return VectorField(self.sig, decl.degree, actions)


def rows_expected_blocks(ranks: dict, i: int) -> list:
    out = []
    for j in range(1, i // 2 + 1):
        k = i - j
        count = ranks.get(j, 0) * ranks.get(k, 0)
        if count:
            out.append(((j, k), count))
    return out


# --- parser ---------------------------------------------------------------------


class Parser(Cursor):
    def __init__(self, source: str, max_degree: Optional[int] = None):
        super().__init__(tokenize(source))
        self.max_degree = max_degree

    def skip_seps(self):
        while self.peek().kind == "sep":
            self.pos += 1

    def closes_block(self) -> bool:
        """Skip separators, then read the `}` that closes a block if it is next."""
        self.skip_seps()
        return self.accept("}")

    def parse(self) -> Document:
        base: list = []
        coords: list = []
        raw: Dict[str, list] = {"coalgebra": [], "vf": [], "dist": [], "morphism": []}
        while True:
            self.skip_seps()
            t = self.peek()
            if t.kind == "eof":
                break
            if t.kind != "id":
                raise ParseError(f"expected a declaration, found {t.text!r}",
                                 t.line, t.col)
            if t.text == "chart":
                self.advance()
            elif t.text == "base":
                self.advance()
                while self.peek().kind == "id":
                    base.append(self.advance().text)
            elif t.text == "coord":
                self.advance()
                name = self.expect("id").text
                self.expect("sym", ":")
                deg = self.expect_int()
                if deg < 1:
                    raise ParseError("coordinate degree must be >= 1", t.line, t.col)
                if deg > MAX_DECLARED_DEGREE:
                    raise ParseError(f"coordinate degree {deg} exceeds the cap "
                                     f"{MAX_DECLARED_DEGREE}", t.line, t.col)
                coords.append((name, deg))
            elif t.text in raw:
                decl = getattr(self, "parse_" + t.text)()
                if any(d[0] == decl[0] for d in raw[t.text]):
                    raise ParseError(f"{t.text} {decl[0]!r} is declared twice", t.line, t.col)
                raw[t.text].append(decl)
            else:
                raise ParseError(f"unknown declaration {t.text!r}", t.line, t.col)
        n = max((d for _, d in coords), default=0)
        gen_names = [tuple(nm for nm, d in coords if d == i) for i in range(1, n + 1)]
        try:
            sig = GradedSignature(n, tuple(base), gen_names, max_degree=self.max_degree)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        doc = Document(tuple(base), tuple(coords), sig, {}, {}, {}, {})
        for name, ranks, mu_raw in raw["coalgebra"]:
            mu = {i: [[_expr_to_poly(e, sig) for e in row] for row in m]
                  for i, m in mu_raw.items()}
            doc.coalgebras[name] = CoalgebraDecl(name, ranks, mu)
        for name, degree, entries in raw["vf"]:
            actions = []
            for cname, expr_tokens, etok in entries:
                f = ExprEval(expr_tokens, sig).parse()
                cd = 0 if cname in sig.base_names else (
                    sig.gen_by_name(cname)[0] if cname in [nm for nm, _ in coords] else None
                )
                if cd is None:
                    raise ParseError(f"unknown coordinate {cname!r}", etok.line, etok.col)
                # a nonzero action has degree >= 0, so this also refuses want < 0
                want = cd + degree
                if not f.is_zero() and not f.is_homogeneous(want):
                    raise ParseError(
                        f"action on {cname} must have degree {want}", etok.line, etok.col
                    )
                actions.append((cname, f))
            doc.vfs[name] = VfDecl(name, degree, actions)
        for name, gens, points in raw["dist"]:
            doc.dists[name] = DistDecl(name, gens, points)
        for name, src, tgt, mats_raw, tok in raw["morphism"]:
            for end in (src, tgt):
                if end not in doc.coalgebras:
                    raise ParseError(f"unknown coalgebra {end!r} in morphism {name!r}",
                                     tok.line, tok.col)
            src_ranks, tgt_ranks = doc.coalgebras[src].ranks, doc.coalgebras[tgt].ranks
            n = max(list(src_ranks) + list(tgt_ranks), default=0)
            for i, m in mats_raw.items():
                if i > n:
                    raise ParseError(f"morphism {name!r} has degree {-i}, outside -1..{-n}",
                                     tok.line, tok.col)
                rows, cols = tgt_ranks.get(i, 0), src_ranks.get(i, 0)
                if len(m) != rows or any(len(row) != cols for row in m):
                    raise ParseError(f"deg {-i} of morphism {name!r} must be {rows}x{cols}",
                                     tok.line, tok.col)
            mats = {i: [[_expr_to_poly(e, sig) for e in row] for row in m]
                    for i, m in mats_raw.items()}
            doc.morphisms[name] = MorphismDecl(name, src, tgt, mats)
        return doc

    # --- declaration parsers ------------------------------------------------

    def parse_coalgebra(self):
        tok = self.expect("id", "coalgebra")
        name = self.expect("id").text
        self.expect("sym", "{")
        ranks = {}
        mu = {}
        mu_keys = {}
        while not self.closes_block():
            key = self.expect("id")
            if key.text == "rank":
                deg = self.parse_signed_int()
                if deg >= 0:
                    raise ParseError("rank degree must be negative", key.line, key.col)
                if -deg > MAX_DECLARED_DEGREE:
                    raise ParseError(f"rank degree {deg} is below the cap "
                                     f"-{MAX_DECLARED_DEGREE}", key.line, key.col)
                self.expect("sym", "=")
                ranks[-deg] = self.expect_int()
            elif key.text == "mu":
                deg = self.parse_signed_int()
                if deg >= -1:
                    raise ParseError("mu degree must be <= -2", key.line, key.col)
                self.expect("sym", "=")
                mu[-deg] = self.parse_matrix()
                mu_keys[-deg] = key
            else:
                raise ParseError(f"unknown coalgebra entry {key.text!r}",
                                 key.line, key.col)
        n = max(ranks, default=0)
        for i, key in mu_keys.items():
            if i > n:
                raise ParseError(f"mu {-i} of {name!r} lies below its lowest rank degree {-n}",
                                 key.line, key.col)
        pairs: Dict[int, int] = {}
        for j, rj in ranks.items():
            for k, rk in ranks.items():
                if j + k <= n:
                    pairs[j + k] = pairs.get(j + k, 0) + rj * rk
        for i in sorted(pairs):
            if pairs[i] > MAX_DEGREE_PAIRS:
                raise ParseError(f"coalgebra {name!r} has more than the cap of {MAX_DEGREE_PAIRS} "
                                 f"ordered frame pairs at degree {-i}", tok.line, tok.col)
        for i in sorted(ranks):
            r = ranks[i]
            if r * r > MAX_DEGREE_PAIRS:
                raise ParseError(f"coalgebra {name!r} has rank {r} at degree {-i}: its {r} x {r} "
                                 f"splitting exceeds the cap of {MAX_DEGREE_PAIRS} entries",
                                 tok.line, tok.col)
        return name, ranks, mu

    def parse_vf(self):
        self.expect("id", "vf")
        name = self.expect("id").text
        self.expect("sym", ":")
        degree = self.parse_signed_int()
        self.expect("sym", "{")
        entries = []
        while not self.closes_block():
            dd = self.expect("dd")
            self.expect("sym", "=")
            entries.append((dd.text[3:], self.collect_expr_tokens(), dd))
        return name, degree, entries

    def parse_dist(self):
        self.expect("id", "dist")
        name = self.expect("id").text
        self.expect("sym", "=")
        gens = [self.expect("id").text]
        while self.accept(","):
            gens.append(self.expect("id").text)
        points = []
        if self.accept("@"):
            self.expect("id", "points")
            while self.at("("):
                points.append(self.parse_point())
        return name, gens, points

    def parse_morphism(self):
        tok = self.expect("id", "morphism")
        name = self.expect("id").text
        self.expect("sym", ":")
        src = self.expect("id").text
        self.expect("arrow")
        tgt = self.expect("id").text
        self.expect("sym", "{")
        mats = {}
        while not self.closes_block():
            key = self.expect("id", "deg")
            deg = self.parse_signed_int()
            if deg >= 0:
                raise ParseError("morphism degree must be negative", key.line, key.col)
            self.expect("sym", "=")
            mats[-deg] = self.parse_matrix()
        return name, src, tgt, mats, tok

    def parse_point(self):
        self.expect("sym", "(")
        vals = []
        while not self.at(")"):
            vals.append(self.parse_rational())
            self.accept(",")
        self.expect("sym", ")")
        return tuple(vals)

    def parse_rational(self) -> Fraction:
        neg = self.accept("-")
        num = self.expect_int()
        den = 1
        if self.accept("/"):
            den_tok = self.peek()
            den = self.expect_int()
            if den == 0:
                raise ParseError("division by zero", den_tok.line, den_tok.col)
        v = Fraction(num, den)
        return -v if neg else v

    def parse_signed_int(self) -> int:
        neg = self.accept("-")
        v = self.expect_int()
        return -v if neg else v

    def parse_matrix(self):
        self.expect("sym", "[")
        rows = []
        self.skip_seps()
        while not self.at("]"):
            rows.append(self.parse_row())
            self.skip_seps()
            if self.accept(","):
                self.skip_seps()
        self.expect("sym", "]")
        return rows

    def parse_row(self):
        self.expect("sym", "[")
        row = []
        while not self.at("]"):
            row.append(self.collect_expr_tokens(stop=(",", "]")))
            self.accept(",")
        self.expect("sym", "]")
        return row

    def collect_expr_tokens(self, stop: tuple = ()) -> list:
        """The token slice of one expression, ended by an `eof` token.  It
        stops at `}`, at the end of the input, and outside brackets at a
        separator, an unmatched closing bracket or a stop symbol."""
        start = self.pos
        depth = 0
        while True:
            t = self.peek()
            if t.kind == "eof" or t.text == "}" or depth == 0 and t.kind == "sep":
                break
            if t.text in ("(", "["):
                depth += 1
            elif t.text in (")", "]"):
                if depth == 0:
                    break
                depth -= 1
            if depth == 0 and t.text in stop:
                break
            self.pos += 1
        if self.pos == start:
            raise ParseError("empty expression", t.line, t.col)
        return self.tokens[start:self.pos] + [Token("eof", "", t.line, t.col)]


def _expr_to_poly(tokens: list, sig: GradedSignature) -> Poly:
    f = ExprEval(tokens, sig).parse()
    if f.terms and set(f.terms) != {()}:
        t0 = tokens[0]
        raise ParseError("matrix entries must have degree 0", t0.line, t0.col)
    return f.body()


class ExprEval(Cursor):
    """Recursive-descent evaluator over the token slice of one expression."""

    def __init__(self, tokens: list, sig: GradedSignature):
        super().__init__(tokens)
        self.sig = sig
        # largest product of nested exponents expanded in the factor being parsed
        self.power = 1

    def parse(self) -> GradedFunction:
        """The value of the whole slice."""
        f = self.parse_expr()
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected token {t.text!r} in expression", t.line, t.col)
        return f

    def parse_expr(self) -> GradedFunction:
        neg = self.accept("-")
        f = self.parse_term()
        if neg:
            f = f.neg()
        while self.at("+") or self.at("-"):
            op = self.advance().text
            g = self.parse_term()
            f = f.add(g) if op == "+" else f.sub(g)
        return f

    def parse_term(self) -> GradedFunction:
        f = self.parse_factor()
        while self.accept("*"):
            f = f.mul(self.parse_factor())
        return f

    def parse_factor(self) -> GradedFunction:
        """An atom with an optional power.

        The exponent is capped by the chart's degree cap, because expanding a
        power costs time that grows with it, except on a bare base variable:
        that power is one monomial, and the pretty printer writes any base
        degree that way.  A power of an atom that already holds a power is
        capped on the product of the nested exponents, so nesting cannot
        multiply its way past the cap.
        """
        outer, self.power = self.power, 1
        a = self.peek()
        f = self.parse_atom()
        if self.accept("^"):
            e = self.advance()
            if e.kind != "int":
                raise ParseError("exponent must be a non-negative integer",
                                 e.line, e.col)
            k = read_int(e.text, e.line, e.col)
            sig = self.sig
            if a.kind == "id" and a.text in sig.base_names:
                self.power = outer
                return GradedFunction.from_poly(
                    sig, Poly.var(sig.m0, sig.base_names.index(a.text)).pow(k))
            power = k * self.power
            if power > sig.max_degree:
                what = f"exponent {k}" if self.power == 1 else f"nested exponent {power}"
                raise ParseError(f"{what} exceeds the degree cap {sig.max_degree}",
                                 e.line, e.col)
            self.power = power
            f = f.pow(k)
        self.power = max(outer, self.power)
        return f

    def parse_atom(self) -> GradedFunction:
        t = self.advance()
        if t.kind == "int":
            num = read_int(t.text, t.line, t.col)
            if self.accept("/"):
                den_tok = self.advance()
                if den_tok.kind != "int":
                    raise ParseError("expected denominator", den_tok.line, den_tok.col)
                den = read_int(den_tok.text, den_tok.line, den_tok.col)
                if den == 0:
                    raise ParseError("division by zero", den_tok.line, den_tok.col)
                return GradedFunction.constant(self.sig, Fraction(num, den))
            return GradedFunction.constant(self.sig, num)
        if t.kind == "id":
            if t.text in self.sig.base_names:
                return GradedFunction.base_var(self.sig, self.sig.base_names.index(t.text))
            try:
                g = self.sig.gen_by_name(t.text)
            except GradmanError:
                raise ParseError(f"unknown name {t.text!r}", t.line, t.col) from None
            return GradedFunction.from_gen(self.sig, g)
        if t.text == "(":
            f = self.parse_expr()
            if not self.accept(")"):
                raise ParseError("expected ')'", t.line, t.col)
            return f
        if t.text == "-":
            return self.parse_atom().neg()
        raise ParseError(f"unexpected token {t.text!r} in expression", t.line, t.col)


def parse_document(source: str, max_degree: Optional[int] = None) -> Document:
    return Parser(source, max_degree=max_degree).parse()


# --- pretty printer ---------------------------------------------------------------


def pretty_print(doc: Document) -> str:
    lines = ["chart"]
    if doc.base_names:
        lines.append("base " + " ".join(doc.base_names))
    for name, deg in doc.coords:
        lines.append(f"coord {name} : {deg}")
    for name, decl in doc.coalgebras.items():
        lines.append("")
        lines.append(f"coalgebra {name} {{")
        for i in sorted(decl.ranks):
            lines.append(f"  rank -{i} = {decl.ranks[i]}")
        for i in sorted(decl.mu):
            lines.append(f"  mu -{i} = {_matrix_text(decl.mu[i], doc.base_names)}")
        lines.append("}")
    for name, decl in doc.vfs.items():
        lines.append("")
        lines.append(f"vf {name} : {decl.degree} {{")
        for cname, f in decl.actions:
            lines.append(f"  d/d{cname} = {f.to_string()}")
        lines.append("}")
    for name, decl in doc.dists.items():
        lines.append("")
        point_text = " ".join(
            "(" + ", ".join(str(v) for v in p) + ")" for p in decl.points
        )
        tail = f" @ points {point_text}" if decl.points else ""
        lines.append(f"dist {name} = " + ", ".join(decl.generators) + tail)
    for name, decl in doc.morphisms.items():
        lines.append("")
        lines.append(f"morphism {name} : {decl.source} -> {decl.target} {{")
        for i in sorted(decl.matrices):
            lines.append(f"  deg -{i} = {_matrix_text(decl.matrices[i], doc.base_names)}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _matrix_text(mat: list, names) -> str:
    rows = ", ".join("[" + ", ".join(p.to_string(names) for p in row) + "]" for row in mat)
    return "[" + rows + "]"


# --- reports -----------------------------------------------------------------------


@dataclass
class Report:
    command: str
    verdict: bool
    exit_code: int
    witnesses: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    timing_ms: int = 0
    schema: int = 1

    def to_json(self) -> str:
        return json.dumps({
            "schema": self.schema,
            "command": self.command,
            "verdict": self.verdict,
            "exit_code": self.exit_code,
            "witnesses": self.witnesses,
            "tables": self.tables,
            "timing_ms": self.timing_ms,
        }, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"verdict: {self.verdict}"]
        for key, val in self.witnesses.items():
            lines.append(f"witness {key}: {val}")
        for key, val in self.tables.items():
            lines.append(f"{key}:")
            if isinstance(val, dict):
                for k2, v2 in val.items():
                    lines.append(f"  {k2} = {v2}")
            else:
                lines.append(f"  {val}")
        lines.append(f"exit: {self.exit_code}")
        return "\n".join(lines) + "\n"


def _field_table(x: VectorField) -> dict:
    return {f"d/d{k}": v for k, v in x.table().items()}


# --- command implementations ----------------------------------------------------


def _pick(doc_map: dict, name: Optional[str], kind: str) -> str:
    if name is not None:
        if name not in doc_map:
            raise ParseError(f"no {kind} named {name!r}")
        return name
    if len(doc_map) == 1:
        return next(iter(doc_map))
    raise ParseError(f"--name is required when several {kind}s are declared"
                     if doc_map else f"no {kind} declared")


def _sample_points(doc: Document, flag: Optional[str]) -> list:
    """The points of --sample-points: `;`-separated, each one pair of
    parentheses around a `,`-separated list of entries `-p` or `-p/q`."""
    if not flag:
        return [tuple(Fraction(0) for _ in range(doc.sig.m0))]
    points = []
    for point in flag.split(";"):
        point = point.strip()
        part = point[1:-1]
        if point[:1] != "(" or point[-1:] != ")" or "(" in part or ")" in part:
            raise ParseError(f"sample point {point!r} is not one parenthesized list")
        vals = [read_rational(v) for v in part.split(",") if v.strip()] if part else []
        if not all(v and v[1] for v in vals):
            raise ParseError(f"sample point ({part}) has an entry that is not a rational")
        if len(vals) != doc.sig.m0:
            raise ParseError(f"sample point ({part}) has {len(vals)} coordinates, "
                             f"the chart has {doc.sig.m0} base coordinates")
        points.append(tuple(Fraction(*v) for v in vals))
    return points


def _bundle(doc: Document, args) -> tuple:
    """The coalgebra that --name picks and its bundle."""
    name = _pick(doc.coalgebras, args.name, "coalgebra")
    return name, doc.bundle(name)


def _distribution(doc: Document, args):
    """The dist that --name picks, with the points of --sample-points added."""
    name = _pick(doc.dists, args.name, "dist")
    extra = _sample_points(doc, args.sample_points) if args.sample_points else None
    return doc.distribution(name, extra_points=extra)


def _flag_fields(doc: Document, names: list, usage: str) -> list:
    """The declared vector fields `names` of a --field or --fields flag; no
    names is the usage error."""
    if not names:
        raise ParseError(usage)
    for n in names:
        if n not in doc.vfs:
            raise ParseError(f"unknown vector field {n!r}")
    return [doc._field(n) for n in names]


def cmd_check_coalgebra(doc: Document, args) -> Report:
    _, e = _bundle(doc, args)
    rep = check_coalgebra(e)
    witnesses = {}
    if rep.witnesses:
        witnesses["failures"] = [
            {"law": w[0], "degree": w[1], "frame_index": w[2]} for w in rep.witnesses
        ]
    return Report(
        "check-coalgebra", rep.ok, 0 if rep.ok else 1, witnesses,
        {"laws": {"cocommutative": rep.cocommutative, "coassociative": rep.coassociative}},
    )


def cmd_admissible(doc: Document, args) -> Report:
    _, e = _bundle(doc, args)
    points = _sample_points(doc, args.sample_points)
    rep = check_admissible(e, points)
    table = {
        str(deg): {
            "im_rank": d.im_rank, "K_rank": d.k_rank,
            "equal": d.equal, "constant_rank": d.constant_rank,
        }
        for deg, d in rep.per_degree.items()
    }
    return Report("admissible", rep.admissible, 0 if rep.admissible else 1,
                  {}, {"degrees": table})


def cmd_split_iso(doc: Document, args) -> Report:
    _, e = _bundle(doc, args)
    iso = splitting_iso(e)
    ok = morphism_check(iso, e, iso.target)
    tables = {
        "kernel_ranks": {
            str(-i): len([g for g in iso.target.split.gens if g[0] == i])
            for i in range(1, e.n + 1)
        },
        "matrices": {
            str(-i): [[p.to_string(doc.base_names) for p in row]
                      for row in iso.matrix(i).entries]
            for i in range(1, e.n + 1)
        },
    }
    return Report("split-iso", ok, 0 if ok else 1, {}, tables)


def cmd_geometrize(doc: Document, args) -> Report:
    name, e = _bundle(doc, args)
    chart = geometrize(e, max_degree=args.max_degree)
    sig_table = {
        "base": list(chart.sig.base_names),
        "generators": {str(i): list(chart.sig.gen_names[i - 1])
                       for i in range(1, chart.n + 1)},
    }
    embed_table = {}
    for i in range(1, chart.n + 1):
        for a, f in enumerate(chart.embeddings[i]):
            embed_table[f"{name}_{i}_{a + 1}"] = f.to_string()
    rewrites = {}
    for i, rules in chart.rewrite_rules.items():
        for r_idx, rule in enumerate(rules):
            rewrites[f"deg{i}_{r_idx}"] = rule.normal_form.to_string()
    return Report("geometrize", True, 0, {},
                  {"signature": sig_table, "embeddings": embed_table,
                   "rewrites": rewrites})


def cmd_reduce(doc: Document, args) -> Report:
    if not args.expr:
        raise ParseError("reduce requires --expr")
    name, e = _bundle(doc, args)
    chart = geometrize(e, max_degree=args.max_degree)
    coeff, factors = _parse_frame_expr(args.expr, name, e)
    f = reduce_product(chart, factors, coeff)
    return Report("reduce", True, 0, {}, {"normal_form": f.to_string()})


def _parse_frame_expr(text: str, name: str, e: CoalgebraBundle):
    coeff = Fraction(1)
    factors = []
    for raw in text.split("*"):
        part = raw.strip()
        if not part:
            raise ParseError("empty factor in --expr")
        m = re.fullmatch(rf"{re.escape(name)}_([0-9]+)_([0-9]+)", part)
        if m:
            i, a = read_int(m.group(1)), read_int(m.group(2))
            if not (1 <= i <= e.n) or not (1 <= a <= e.rank(i)):
                raise ParseError(f"frame element {part!r} out of range")
            factors.append((i, a - 1))
            continue
        value = read_rational(part)
        if value:
            if not value[1]:
                raise ParseError(f"division by zero in factor {part!r}")
            coeff *= Fraction(*value)
            continue
        raise ParseError(f"cannot read factor {part!r}: use {name}_<deg>_<index> or a rational")
    return coeff, factors


def cmd_bracket(doc: Document, args) -> Report:
    names = args.fields.split(",") if args.fields else []
    x, y = _flag_fields(doc, [n.strip() for n in names] if len(names) == 2 else [],
                        "bracket requires --fields X,Y")
    b = bracket(x, y)
    return Report("bracket", True, 0, {},
                  {"bracket": _field_table(b) or {"zero": "0"},
                   "degree": b.degree})


def cmd_tangent(doc: Document, args) -> Report:
    x, = _flag_fields(doc, [args.field] if args.field else [], "tangent requires --field")
    points = _sample_points(doc, args.sample_points)
    table = {}
    for p in points:
        tv = tangent_at(x, p)
        table["(" + ", ".join(map(rat_text, p)) + ")"] = {
            coord_name(doc.sig, c): rat_text(v) for c, v in tv.components.items() if v != 0
        }
    return Report("tangent", True, 0, {}, {"tangents": table})


def cmd_qsquare(doc: Document, args) -> Report:
    q, = _flag_fields(doc, [args.field] if args.field else [], "qsquare requires --field")
    ok = is_homological(q)
    witnesses = {}
    if not ok:
        witnesses["square"] = _field_table(homological_witness(q))
    return Report("qsquare", ok, 0 if ok else 1, witnesses, {})


def cmd_involutive(doc: Document, args) -> Report:
    d = _distribution(doc, args)
    rep = is_involutive(d)
    witnesses = {}
    if not rep.involutive:
        witnesses["pair"] = list(rep.failing_pair)
        witnesses["bracket"] = _field_table(rep.witness)
        if rep.certificate and rep.certificate.witness:
            witnesses["refutation"] = str(rep.certificate.witness[0])
    return Report("involutive", rep.involutive, 0 if rep.involutive else 1,
                  witnesses, {"ranks": "|".join(map(str, d.ranks()))})


def cmd_frobenius(doc: Document, args) -> Report:
    d = _distribution(doc, args)
    chart = frobenius_normal_form(d)
    ok = chart.span_preserved and chart.inverse_ok
    tables = {
        "substitution": chart.substitution_table() or {"identity": "true"},
        "inverse": chart.inverse_table() or {"identity": "true"},
        "flattened": [coord_name(doc.sig, c) for c in chart.flattened],
        "checks": {"span_preserved": chart.span_preserved,
                   "inverse_ok": chart.inverse_ok},
    }
    return Report("frobenius", ok, 0 if ok else 1, {}, tables)


def cmd_roundtrip(doc: Document, args) -> Report:
    _, e = _bundle(doc, args)
    # phi is the splitting, invertible in every degree that passes (the
    # build_splitting docstring), which geometrize has already inverted
    f, phi = roundtrip(e)
    ok = morphism_check(phi, e, f)
    tables = {
        "ranks": {str(-i): f.rank(i) for i in range(1, f.n + 1)},
        "checks": {"morphism": ok, "invertible": True},
    }
    return Report("roundtrip", ok, 0 if ok else 1, {}, tables)


COMMANDS = {
    "check-coalgebra": cmd_check_coalgebra,
    "admissible": cmd_admissible,
    "split-iso": cmd_split_iso,
    "geometrize": cmd_geometrize,
    "reduce": cmd_reduce,
    "bracket": cmd_bracket,
    "tangent": cmd_tangent,
    "qsquare": cmd_qsquare,
    "involutive": cmd_involutive,
    "frobenius": cmd_frobenius,
    "roundtrip": cmd_roundtrip,
}


def run(subcommand: str, doc: Document, **flags) -> Report:
    """Programmatic dispatch with the same semantics as the command line: the
    options take the command line's defaults, then `flags`."""
    if subcommand not in COMMANDS:
        raise ParseError(f"unknown subcommand {subcommand!r}")
    ns = ARG_PARSER.parse_args([subcommand, ""])
    vars(ns).update(flags)
    return COMMANDS[subcommand](doc, ns)


# One flat parser, built at import: options may come before or after the
# subcommand and the file.
ARG_PARSER = argparse.ArgumentParser(
    prog="gradman",
    description="exact computer algebra for graded charts, bundles and distributions",
)
ARG_PARSER.add_argument("subcommand", choices=tuple(COMMANDS))
ARG_PARSER.add_argument("file", help="input .gm document")
ARG_PARSER.add_argument("--format", choices=("text", "json"), default="text")
ARG_PARSER.add_argument("--max-degree", type=int, default=None)
ARG_PARSER.add_argument("--sample-points", default=None,
                        help="semicolon-separated points, e.g. '(0,0);(1,2)'")
ARG_PARSER.add_argument("--name", default=None)
ARG_PARSER.add_argument("--fields", default=None)
ARG_PARSER.add_argument("--field", default=None)
ARG_PARSER.add_argument("--expr", default=None)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = ARG_PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    start = time.perf_counter()
    try:
        with open(args.file, encoding="utf-8") as fh:
            source = fh.read()
        doc = parse_document(source, max_degree=args.max_degree)
        report = COMMANDS[args.subcommand](doc, args)
    except ParseError as exc:
        report = Report(args.subcommand, False, 2, {"error": str(exc)}, {})
    except (UnsupportedXDependence, NonConstantSymbols, NonPolynomialFlatFrame) as exc:
        report = Report(args.subcommand, False, 3,
                        {"unsupported": type(exc).__name__, "error": str(exc)}, {})
    except NotInvolutive as exc:
        witnesses = {"error": str(exc)}
        if exc.witness is not None:
            witnesses["bracket"] = _field_table(exc.witness)
        if exc.pair is not None:
            witnesses["pair"] = list(exc.pair)
        report = Report(args.subcommand, False, 1, witnesses, {})
    except (NotAdmissible, DegreeMismatch) as exc:
        report = Report(args.subcommand, False, 1,
                        {"error": str(exc), "kind": type(exc).__name__}, {})
    except (OSError, UnicodeDecodeError) as exc:
        report = Report(args.subcommand, False, 2, {"error": str(exc)}, {})
    except GradmanError as exc:
        report = Report(args.subcommand, False, 2, {"error": str(exc)}, {})
    report.timing_ms = int((time.perf_counter() - start) * 1000)
    out = report.to_json() if args.format == "json" else report.to_text()
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return report.exit_code


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
