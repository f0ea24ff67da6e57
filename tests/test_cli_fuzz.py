"""Grammar fuzz of the command line.

Random token streams and small, often broken, documents go through `main`
with a random subcommand and options. No exception may escape, the exit
code must be one of 0/1/2/3, and on every document that parses,
pretty-printing must be a fixed point: parse(pretty(parse(s))) equals
parse(s), and printing it again gives the same text.

The runs are derandomized and keep no example database, so the suite stays
deterministic and writes nothing beside the sources.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from gradman.cli import COMMANDS, main, parse_document, pretty_print
from gradman.errors import ParseError

# Hypothesis caches the constants it reads from local sources in its home
# directory whatever the example database; a temporary one keeps the checkout
# clean and is removed at exit.
_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HOME.name)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)

BASE = ("x", "y")
COORDS = ("e", "f", "p")
NAMES = BASE + COORDS + ("zz",)
# an integer literal past Python's default int-string limit of 4,300 digits
LONG = "7" * 4400
VOCAB = (
    "chart", "base", "coord", "coalgebra", "rank", "mu", "vf", "dist", "morphism",
    "deg", "points", "x", "y", "e", "p", "A", "C", "D", "d/dx", "d/de", "d/dp",
    "0", "1", "2", "-", "+", "*", "^", "/", "(", ")", "[", "]", "{", "}", ",",
    ";", ":", "=", "@", "->", "\n", "# note\n", "é", LONG,
)

small_int = st.integers(min_value=0, max_value=3).map(str)


def expressions(names):
    atoms = st.one_of(small_int, st.sampled_from(names),
                      st.tuples(small_int, st.sampled_from("123")).map("/".join))
    return st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(" ".join),
        st.tuples(inner, small_int).map("^".join),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
    ), max_leaves=5)


# degree-0 expressions, which most actions and every matrix entry need
scalars = expressions(BASE)
# an expression cut short: a dangling operator or an open parenthesis
cut_short = st.tuples(scalars, st.sampled_from("+-*^/(")).map("".join)
exprs = st.one_of(scalars, expressions(NAMES), cut_short)
points = st.lists(st.lists(st.sampled_from(("0", "1", "-1", "1/2", LONG)), max_size=3)
                  .map(lambda p: "(" + ", ".join(p) + ")"), max_size=2).map(" ".join)


def matrix(draw, rows, cols):
    """A rows x cols matrix of scalars, or one of a random shape; one entry in
    four is cut short."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    m = [[draw(st.one_of(scalars, scalars, scalars, cut_short)) for _ in range(cols)]
         for _ in range(rows)]
    return "[" + ", ".join("[" + ", ".join(r) + "]" for r in m) + "]"


@st.composite
def documents(draw):
    """A small document from the grammar, then maybe cut or spliced."""
    lines = ["chart"]
    base = draw(st.lists(st.sampled_from(BASE), unique=True, max_size=2))
    if base:
        lines.append("base " + " ".join(base))
    coords = draw(st.lists(st.sampled_from(COORDS), unique=True, max_size=3))
    for name in coords:
        lines.append(f"coord {name} : {draw(st.sampled_from((1, 1, 2, 3)))}")
    if draw(st.booleans()):
        r1, r2 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        lines += ["coalgebra C {", f" rank -1 = {r1}", f" rank -2 = {r2}"]
        if draw(st.booleans()):
            lines.append(f" mu -2 = {matrix(draw, r1 * r1, r2)}")
        lines.append("}")
        if draw(st.booleans()):
            lines.append(f"morphism F : C -> C {{ deg -1 = {matrix(draw, r1, r1)} }}")
    vfs = draw(st.lists(st.sampled_from(("A", "B")), unique=True, max_size=2))
    for name in vfs:
        lines.append(f"vf {name} : {draw(st.sampled_from((-1, -1, -2, 0, 1)))} {{")
        for cname in draw(st.lists(st.sampled_from(base + coords + ["zz"]), unique=True,
                                   max_size=3)):
            lines.append(f"  d/d{cname} = {draw(exprs)}")
        lines.append("}")
    if vfs and draw(st.booleans()):
        gens = draw(st.lists(st.sampled_from(vfs), min_size=1, max_size=2))
        lines.append(f"dist D = {', '.join(gens)} @ points {draw(points)}")
    source = "\n".join(lines) + "\n"
    cut = draw(st.integers(min_value=0, max_value=len(source)))
    mutation = draw(st.sampled_from(("none", "none", "splice", "cut")))
    if mutation == "splice":
        source = source[:cut] + draw(st.sampled_from(VOCAB)) + source[cut:]
    elif mutation == "cut":
        source = source[:cut] + "\n"
    return source


token_streams = st.lists(st.sampled_from(VOCAB), max_size=30).map(" ".join)

options = st.lists(st.sampled_from((
    ("--name", "C"), ("--name", "D"), ("--field", "A"), ("--fields", "A,B"),
    ("--expr", "C_1_1 * C_1_1"), ("--sample-points", "(0)"),
    ("--sample-points", "(1/2, 1)"), ("--max-degree", "2"), ("--format", "json"),
)), unique_by=lambda o: o[0], max_size=3)


def run_main(source, subcommand, opts):
    """Exit code of `main` on `source` written to a fresh file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.gm")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(source)
        argv = [subcommand, path] + [a for opt in opts for a in opt]
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)


def check_document(source, subcommand, opts):
    assert run_main(source, subcommand, opts) in (0, 1, 2, 3)
    try:
        doc = parse_document(source)
    except ParseError:
        return
    printed = pretty_print(doc)
    again = parse_document(printed)
    assert again == doc
    assert pretty_print(again) == printed


@FUZZ
@given(documents(), st.sampled_from(tuple(COMMANDS)), options)
def test_documents(source, subcommand, opts):
    check_document(source, subcommand, opts)


@FUZZ
@given(token_streams, st.sampled_from(tuple(COMMANDS)), options)
def test_token_streams(source, subcommand, opts):
    check_document(source, subcommand, opts)
