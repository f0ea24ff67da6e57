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
    CoalgebraMorphism,
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
from .exactnum import Poly, PolyMatrix
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

# --- tokenizer -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<dd>d/d[A-Za-z_][A-Za-z0-9_]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<arrow>->)
  | (?P<sym>[{}\[\](),;:=+\-*^@/])
  | (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


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
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            if kind == "sym" and text == ";":
                tokens.append(Token("sep", ";", line, col))
            else:
                tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


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

    def canonical(self):
        """Structure used for round-trip equality."""
        return (
            self.base_names,
            self.coords,
            {n: (tuple(sorted(c.ranks.items())),
                 {i: [[p.terms for p in row] for row in m] for i, m in sorted(c.mu.items())})
             for n, c in self.coalgebras.items()},
            {n: (v.degree, tuple((c, tuple(sorted(f.terms.items(), key=lambda kv: kv[0]))) for c, f in v.actions))
             for n, v in self.vfs.items()},
            {n: (tuple(d.generators), tuple(map(tuple, d.points))) for n, d in self.dists.items()},
            {n: (m.source, m.target,
                 {i: [[p.terms for p in row] for row in mat] for i, mat in sorted(m.matrices.items())})
             for n, m in self.morphisms.items()},
        )

    def bundle(self, name: str, max_degree: Optional[int] = None) -> CoalgebraBundle:
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
        return CoalgebraBundle(n, self.base_names, ranks, mu, frame_prefix=name)

    def distribution(self, name: str, extra_points: Optional[list] = None):
        decl = self.dists[name]
        gens = []
        for g in decl.generators:
            if g not in self.vfs:
                raise ParseError(f"unknown vector field {g!r} in dist {name!r}")
            gens.append(self._field(g))
        points = [tuple(map(Fraction, p)) for p in decl.points]
        for p in points:
            if len(p) != self.sig.m0:
                raise ParseError(f"a point of dist {name!r} has {len(p)} coordinates, "
                                 f"the chart has {self.sig.m0} base coordinates")
        if extra_points:
            points += [tuple(map(Fraction, p)) for p in extra_points]
        if not points:
            points = [tuple(Fraction(0) for _ in range(self.sig.m0))]
        try:
            return make_distribution(gens, points, sig=self.sig)
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

    def morphism(self, name: str) -> CoalgebraMorphism:
        decl = self.morphisms[name]
        src = self.bundle(decl.source)
        tgt = self.bundle(decl.target)
        nv = len(self.base_names)
        mats = {}
        for i in range(1, max(src.n, 1) + 1):
            m = decl.matrices.get(i)
            if m is None:
                mats[i] = PolyMatrix.zero(tgt.rank(i), src.rank(i), nv)
            else:
                mats[i] = PolyMatrix(len(m), len(m[0]) if m else 0, m, nv)
        return CoalgebraMorphism(src, tgt, mats)


def rows_expected_blocks(ranks: dict, i: int) -> list:
    out = []
    for j in range(1, i // 2 + 1):
        k = i - j
        count = ranks.get(j, 0) * ranks.get(k, 0)
        if count:
            out.append(((j, k), count))
    return out


# --- parser ---------------------------------------------------------------------


class Parser:
    def __init__(self, source: str, max_degree: Optional[int] = None):
        self.tokens = tokenize(source)
        self.pos = 0
        self.max_degree = max_degree

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {t.text or t.kind!r}",
                             t.line, t.col)
        return self.advance()

    def skip_seps(self):
        while self.peek().kind == "sep":
            self.advance()

    def parse(self) -> Document:
        base: list = []
        coords: list = []
        raw_coalgebras: list = []
        raw_vfs: list = []
        raw_dists: list = []
        raw_morphisms: list = []
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
                deg = int(self.expect("int").text)
                if deg < 1:
                    raise ParseError("coordinate degree must be >= 1", t.line, t.col)
                coords.append((name, deg))
            elif t.text == "coalgebra":
                raw_coalgebras.append(self.parse_coalgebra())
            elif t.text == "vf":
                raw_vfs.append(self.parse_vf())
            elif t.text == "dist":
                raw_dists.append(self.parse_dist())
            elif t.text == "morphism":
                raw_morphisms.append(self.parse_morphism())
            else:
                raise ParseError(f"unknown declaration {t.text!r}", t.line, t.col)
        n = max((d for _, d in coords), default=0)
        gen_names = [tuple(nm for nm, d in coords if d == i) for i in range(1, n + 1)]
        try:
            sig = GradedSignature(n, tuple(base), gen_names, max_degree=self.max_degree)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        nv = len(base)
        doc = Document(tuple(base), tuple(coords), sig, {}, {}, {}, {})
        for name, ranks, mu_raw, tok in raw_coalgebras:
            mu = {i: [[self._expr_to_poly(e, sig, tok) for e in row] for row in m]
                  for i, m in mu_raw.items()}
            doc.coalgebras[name] = CoalgebraDecl(name, ranks, mu)
        for name, degree, entries, tok in raw_vfs:
            actions = []
            for cname, expr_tokens, etok in entries:
                f = self._expr_to_function(expr_tokens, sig, etok)
                cd = 0 if cname in sig.base_names else (
                    sig.gen_by_name(cname)[0] if cname in [nm for nm, _ in coords] else None
                )
                if cd is None:
                    raise ParseError(f"unknown coordinate {cname!r}", etok.line, etok.col)
                want = cd + degree
                if not f.is_zero() and not f.is_homogeneous(want):
                    raise ParseError(
                        f"action on {cname} must have degree {want}", etok.line, etok.col
                    )
                if want < 0 and not f.is_zero():
                    raise ParseError(
                        f"action on {cname} lands in negative degree", etok.line, etok.col
                    )
                actions.append((cname, f))
            doc.vfs[name] = VfDecl(name, degree, actions)
        for name, gens, points in raw_dists:
            doc.dists[name] = DistDecl(name, gens, points)
        for name, src, tgt, mats_raw, tok in raw_morphisms:
            mats = {i: [[self._expr_to_poly(e, sig, tok) for e in row] for row in m]
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
        while True:
            self.skip_seps()
            t = self.peek()
            if t.kind == "sym" and t.text == "}":
                self.advance()
                break
            key = self.expect("id")
            if key.text == "rank":
                deg = self.parse_signed_int()
                if deg >= 0:
                    raise ParseError("rank degree must be negative", key.line, key.col)
                self.expect("sym", "=")
                ranks[-deg] = int(self.expect("int").text)
            elif key.text == "mu":
                deg = self.parse_signed_int()
                if deg >= -1:
                    raise ParseError("mu degree must be <= -2", key.line, key.col)
                self.expect("sym", "=")
                mu[-deg] = self.parse_matrix()
            else:
                raise ParseError(f"unknown coalgebra entry {key.text!r}",
                                 key.line, key.col)
        return name, ranks, mu, tok

    def parse_vf(self):
        tok = self.expect("id", "vf")
        name = self.expect("id").text
        self.expect("sym", ":")
        degree = self.parse_signed_int()
        self.expect("sym", "{")
        entries = []
        while True:
            self.skip_seps()
            t = self.peek()
            if t.kind == "sym" and t.text == "}":
                self.advance()
                break
            dd = self.expect("dd")
            cname = dd.text[3:]
            self.expect("sym", "=")
            expr_tokens = self.collect_expr_tokens()
            entries.append((cname, expr_tokens, dd))
        return name, degree, entries, tok

    def parse_dist(self):
        self.expect("id", "dist")
        name = self.expect("id").text
        self.expect("sym", "=")
        gens = [self.expect("id").text]
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.advance()
            gens.append(self.expect("id").text)
        points = []
        if self.peek().kind == "sym" and self.peek().text == "@":
            self.advance()
            self.expect("id", "points")
            while self.peek().kind == "sym" and self.peek().text == "(":
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
        while True:
            self.skip_seps()
            t = self.peek()
            if t.kind == "sym" and t.text == "}":
                self.advance()
                break
            self.expect("id", "deg")
            deg = self.parse_signed_int()
            if deg >= 0:
                raise ParseError("morphism degree must be negative", t.line, t.col)
            self.expect("sym", "=")
            mats[-deg] = self.parse_matrix()
        return name, src, tgt, mats, tok

    def parse_point(self):
        self.expect("sym", "(")
        vals = []
        while not (self.peek().kind == "sym" and self.peek().text == ")"):
            vals.append(self.parse_rational())
            if self.peek().kind == "sym" and self.peek().text == ",":
                self.advance()
        self.expect("sym", ")")
        return tuple(vals)

    def parse_rational(self) -> Fraction:
        neg = False
        if self.peek().kind == "sym" and self.peek().text == "-":
            self.advance()
            neg = True
        num = int(self.expect("int").text)
        den = 1
        if self.peek().kind == "sym" and self.peek().text == "/":
            self.advance()
            den_tok = self.expect("int")
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("division by zero", den_tok.line, den_tok.col)
        v = Fraction(num, den)
        return -v if neg else v

    def parse_signed_int(self) -> int:
        neg = False
        if self.peek().kind == "sym" and self.peek().text == "-":
            self.advance()
            neg = True
        v = int(self.expect("int").text)
        return -v if neg else v

    def parse_matrix(self):
        self.expect("sym", "[")
        rows = []
        self.skip_seps()
        while not (self.peek().kind == "sym" and self.peek().text == "]"):
            rows.append(self.parse_row())
            self.skip_seps()
            if self.peek().kind == "sym" and self.peek().text == ",":
                self.advance()
                self.skip_seps()
        self.expect("sym", "]")
        return rows

    def parse_row(self):
        self.expect("sym", "[")
        row = []
        while not (self.peek().kind == "sym" and self.peek().text == "]"):
            row.append(self.collect_expr_tokens(stop={",", "]"}))
            if self.peek().kind == "sym" and self.peek().text == ",":
                self.advance()
        self.expect("sym", "]")
        return row

    def collect_expr_tokens(self, stop: Optional[set] = None):
        """Grab the token slice of one expression (up to separator or stop symbol)."""
        out = []
        depth = 0
        stop = stop or set()
        while True:
            t = self.peek()
            if t.kind == "eof":
                break
            if t.kind == "sep" and depth == 0:
                break
            if t.kind == "sym" and t.text in "([":
                depth += 1
            if t.kind == "sym" and t.text in ")]":
                if depth == 0:
                    break
                depth -= 1
            if depth == 0 and t.kind == "sym" and t.text in stop:
                break
            if t.kind == "sym" and t.text == "}":
                break
            out.append(self.advance())
        if not out:
            t = self.peek()
            raise ParseError("empty expression", t.line, t.col)
        return out

    # --- expression evaluation ------------------------------------------------

    def _expr_to_function(self, tokens: list, sig: GradedSignature, tok) -> GradedFunction:
        ev = ExprEval(tokens, sig)
        f = ev.parse_expr()
        ev.expect_end()
        return f

    def _expr_to_poly(self, tokens: list, sig: GradedSignature, tok) -> Poly:
        f = self._expr_to_function(tokens, sig, tok)
        if f.terms and set(f.terms) != {()}:
            t0 = tokens[0]
            raise ParseError("matrix entries must have degree 0", t0.line, t0.col)
        return f.body()


class ExprEval:
    """Recursive-descent evaluator over a token slice."""

    def __init__(self, tokens: list, sig: GradedSignature):
        self.tokens = tokens
        self.pos = 0
        self.sig = sig

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_end(self):
        t = self.peek()
        if t is not None:
            raise ParseError(f"unexpected token {t.text!r} in expression",
                             t.line, t.col)

    def parse_expr(self) -> GradedFunction:
        t = self.peek()
        neg = False
        if t and t.kind == "sym" and t.text == "-":
            self.advance()
            neg = True
        f = self.parse_term()
        if neg:
            f = f.neg()
        while True:
            t = self.peek()
            if t is None or t.kind != "sym" or t.text not in "+-":
                break
            op = self.advance().text
            g = self.parse_term()
            f = f.add(g) if op == "+" else f.sub(g)
        return f

    def parse_term(self) -> GradedFunction:
        f = self.parse_factor()
        while True:
            t = self.peek()
            if t is None or t.kind != "sym" or t.text != "*":
                break
            self.advance()
            f = f.mul(self.parse_factor())
        return f

    def parse_factor(self) -> GradedFunction:
        f = self.parse_atom()
        t = self.peek()
        if t is not None and t.kind == "sym" and t.text == "^":
            self.advance()
            e = self.advance()
            if e.kind != "int":
                raise ParseError("exponent must be a non-negative integer",
                                 e.line, e.col)
            f = f.pow(int(e.text))
        return f

    def parse_atom(self) -> GradedFunction:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of expression")
        if t.kind == "int":
            self.advance()
            num = int(t.text)
            nxt = self.peek()
            if nxt is not None and nxt.kind == "sym" and nxt.text == "/":
                self.advance()
                den_tok = self.advance()
                if den_tok.kind != "int":
                    raise ParseError("expected denominator", den_tok.line, den_tok.col)
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("division by zero", den_tok.line, den_tok.col)
                return GradedFunction.constant(self.sig, Fraction(num, den))
            return GradedFunction.constant(self.sig, num)
        if t.kind == "id":
            self.advance()
            if t.text in self.sig.base_names:
                return GradedFunction.base_var(self.sig, self.sig.base_names.index(t.text))
            try:
                g = self.sig.gen_by_name(t.text)
            except GradmanError:
                raise ParseError(f"unknown name {t.text!r}", t.line, t.col) from None
            return GradedFunction.from_gen(self.sig, g)
        if t.kind == "sym" and t.text == "(":
            self.advance()
            f = self.parse_expr()
            close = self.peek()
            if close is None or close.kind != "sym" or close.text != ")":
                raise ParseError("expected ')'", t.line, t.col)
            self.advance()
            return f
        if t.kind == "sym" and t.text == "-":
            self.advance()
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
    if not flag:
        return [tuple(Fraction(0) for _ in range(doc.sig.m0))]
    points = []
    for part in flag.split(";"):
        part = part.strip().strip("()")
        try:
            vals = [Fraction(v.strip()) for v in part.split(",") if v.strip()] if part else []
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"sample point ({part}) has an entry that is not a rational") from None
        if len(vals) != doc.sig.m0:
            raise ParseError(f"sample point ({part}) has {len(vals)} coordinates, "
                             f"the chart has {doc.sig.m0} base coordinates")
        points.append(tuple(vals))
    return points


def cmd_check_coalgebra(doc: Document, args) -> Report:
    name = _pick(doc.coalgebras, args.name, "coalgebra")
    e = doc.bundle(name)
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
    name = _pick(doc.coalgebras, args.name, "coalgebra")
    e = doc.bundle(name)
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
    name = _pick(doc.coalgebras, args.name, "coalgebra")
    e = doc.bundle(name)
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
    name = _pick(doc.coalgebras, args.name, "coalgebra")
    e = doc.bundle(name)
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
    name = _pick(doc.coalgebras, args.name, "coalgebra")
    e = doc.bundle(name)
    chart = geometrize(e, max_degree=args.max_degree)
    coeff, factors = _parse_frame_expr(args.expr, name, e, doc)
    f = reduce_product(chart, factors, coeff)
    return Report("reduce", True, 0, {}, {"normal_form": f.to_string()})


def _parse_frame_expr(text: str, name: str, e: CoalgebraBundle, doc: Document):
    coeff = Fraction(1)
    factors = []
    for raw in text.split("*"):
        part = raw.strip()
        if not part:
            raise ParseError("empty factor in --expr")
        m = re.fullmatch(rf"{re.escape(name)}_(\d+)_(\d+)", part)
        if m:
            i, a = int(m.group(1)), int(m.group(2))
            if not (1 <= i <= e.n) or not (1 <= a <= e.rank(i)):
                raise ParseError(f"frame element {part!r} out of range")
            factors.append((i, a - 1))
            continue
        m = re.fullmatch(r"-?\d+(/\d+)?", part)
        if m:
            coeff *= Fraction(part)
            continue
        raise ParseError(f"cannot read factor {part!r}: use {name}_<deg>_<index> or a rational")
    return coeff, factors


def cmd_bracket(doc: Document, args) -> Report:
    if not args.fields or len(args.fields.split(",")) != 2:
        raise ParseError("bracket requires --fields X,Y")
    n1, n2 = [s.strip() for s in args.fields.split(",")]
    for n in (n1, n2):
        if n not in doc.vfs:
            raise ParseError(f"unknown vector field {n!r}")
    b = bracket(doc._field(n1), doc._field(n2))
    return Report("bracket", True, 0, {},
                  {"bracket": _field_table(b) or {"zero": "0"},
                   "degree": b.degree})


def cmd_tangent(doc: Document, args) -> Report:
    if not args.field:
        raise ParseError("tangent requires --field")
    if args.field not in doc.vfs:
        raise ParseError(f"unknown vector field {args.field!r}")
    x = doc._field(args.field)
    points = _sample_points(doc, args.sample_points)
    table = {}
    for p in points:
        tv = tangent_at(x, p)
        table["(" + ", ".join(str(v) for v in p) + ")"] = {
            coord_name(doc.sig, c): str(v) for c, v in tv.components.items() if v != 0
        }
    return Report("tangent", True, 0, {}, {"tangents": table})


def cmd_qsquare(doc: Document, args) -> Report:
    if not args.field:
        raise ParseError("qsquare requires --field")
    if args.field not in doc.vfs:
        raise ParseError(f"unknown vector field {args.field!r}")
    q = doc._field(args.field)
    ok = is_homological(q)
    witnesses = {}
    if not ok:
        witnesses["square"] = _field_table(homological_witness(q))
    return Report("qsquare", ok, 0 if ok else 1, witnesses, {})


def cmd_involutive(doc: Document, args) -> Report:
    name = _pick(doc.dists, args.name, "dist")
    extra = _sample_points(doc, args.sample_points) if args.sample_points else None
    d = doc.distribution(name, extra_points=extra)
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
    name = _pick(doc.dists, args.name, "dist")
    extra = _sample_points(doc, args.sample_points) if args.sample_points else None
    d = doc.distribution(name, extra_points=extra)
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
    name = _pick(doc.coalgebras, args.name, "coalgebra")
    e = doc.bundle(name)
    f, phi = roundtrip(e)
    ok = morphism_check(phi, e, f)
    try:
        phi.inverse()
        invertible = True
    except ValueError:
        invertible = False
    verdict = ok and invertible
    tables = {
        "ranks": {str(-i): f.rank(i) for i in range(1, f.n + 1)},
        "checks": {"morphism": ok, "invertible": invertible},
    }
    return Report("roundtrip", verdict, 0 if verdict else 1, {}, tables)


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
    """Programmatic dispatch with the same semantics as the command line."""
    if subcommand not in COMMANDS:
        raise ParseError(f"unknown subcommand {subcommand!r}")
    ns = argparse.Namespace(
        name=flags.get("name"),
        fields=flags.get("fields"),
        field=flags.get("field"),
        expr=flags.get("expr"),
        sample_points=flags.get("sample_points"),
        max_degree=flags.get("max_degree"),
        format=flags.get("format", "text"),
    )
    return COMMANDS[subcommand](doc, ns)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gradman",
        description="exact computer algebra for graded charts, bundles and distributions",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("file", help="input .gm document")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-degree", type=int, default=None)
        p.add_argument("--sample-points", default=None,
                       help="semicolon-separated points, e.g. '(0,0);(1,2)'")
        p.add_argument("--name", default=None)
        p.add_argument("--fields", default=None)
        p.add_argument("--field", default=None)
        p.add_argument("--expr", default=None)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
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
    except FileNotFoundError as exc:
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
