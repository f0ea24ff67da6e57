"""The four workloads: seeded input pools, per-case builds, checked verdicts.

A workload turns a seed into a pool of case specs made of plain data
(`make_pool`), turns one spec into fresh engine objects (`build`, untimed),
and runs one verdict on them (`verdict`, timed), returning the list of ways
the verdict differs from the answer known from the construction. An empty
list is a correct verdict. Engine functions are always looked up on the
module objects in `gm` at call time, so a traced run sees every call.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
from fractions import Fraction

from oracles import (
    conjugate_blocks,
    freeze,
    gen_degrees,
    image_rank,
    nonzero_columns,
    padd,
    partition_count,
    pconst,
    pmul,
    pvar,
    split_rank,
    unimodular_pair,
)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _split_blocks(gm, profile, nv):
    """Comultiplication blocks of the split bundle as plain polynomials."""
    e = gm.coalgebra.split_coalgebra(list(profile))
    blocks = {}
    for i in range(2, e.n + 1):
        blocks[i] = {
            jk: [[pconst(nv, v) for v in row] for row in m.to_rat()]
            for jk, m in e.mu.get(i, {}).items()
        }
    return dict(e.ranks), blocks


def _frames(rng, ranks, nv, linear):
    return {i: unimodular_pair(rng, r, nv, linear) for i, r in ranks.items()}


def _bundle(gm, profile, ranks, blocks, nv):
    ex = gm.exactnum
    base = tuple(f"x{a + 1}" for a in range(nv))
    mu = {}
    for i, by_pair in blocks.items():
        mats = {}
        for jk, rows in by_pair.items():
            entries = [[ex.Poly(nv, dict(p)) for p in row] for row in rows]
            mats[jk] = ex.PolyMatrix(len(rows), ranks[i], entries, nv)
        mu[i] = mats
    return gm.coalgebra.CoalgebraBundle(len(profile), base, ranks, mu)


def _gen_counts(split_bundle, n):
    counts = [0] * n
    for d, _name in split_bundle.split.gens:
        counts[d - 1] += 1
    return tuple(counts)


def _check_ranks(out, adm, profile, skip_top=False):
    for i in range(2, len(profile) + 1):
        if skip_top and i == len(profile):
            continue
        want = image_rank(profile, i)
        deg = adm.per_degree[-i]
        if (deg.im_rank, deg.k_rank, deg.equal) != (want, want, True):
            out.append(f"degree -{i}: im/K/equal {deg.im_rank}/{deg.k_rank}/{deg.equal},"
                       f" want {want}/{want}/True")


def _expect_raise(out, fn, exc_type, label):
    try:
        fn()
    except exc_type:
        return
    except Exception as exc:  # a wrong refusal type is a wrong verdict
        out.append(f"{label}: raised {type(exc).__name__}, want {exc_type.__name__}")
        return
    out.append(f"{label}: returned, want {exc_type.__name__}")


# --- split-tower ----------------------------------------------------------------


class SplitTower:
    """Constant bundles of degree 2..7: split, frame-conjugated, and negatives
    with nonzero top-degree comultiplication columns zeroed."""

    name = "split-tower"
    # Cheap and expensive profiles alternate, so any prefix of a pass has a
    # similar mix. About 40% of the cases take under 15 ms, so the median
    # falls among the many 25-35 ms cases rather than at the edge of a gap.
    PROFILES = [
        (3, 3), (3, 0, 0), (2, 1), (0, 1, 1, 0, 0, 0, 0), (2, 2, 1), (1, 1, 1, 1),
        (1, 1, 1, 1, 1), (2, 2, 2), (1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0, 1), (2, 1, 1),
        (2, 1, 0, 1), (1, 1, 0, 0, 1),
    ]
    KINDS = ("split", "conj", "neg", "conj", "neg")
    trace_cases = 39

    def make_pool(self, seed, gm):
        rng = random.Random(seed)
        pool = []
        for kind in self.KINDS:
            for profile in self.PROFILES:
                spec = {"kind": kind, "profile": profile}
                if kind != "split":
                    ranks, blocks = _split_blocks(gm, profile, 0)
                    n = len(profile)
                    if kind == "neg":
                        cols = nonzero_columns(blocks[n], ranks[n])
                        zeroed = rng.sample(cols, min(len(cols), rng.randint(1, 2)))
                        for rows in blocks[n].values():
                            for row in rows:
                                for c in zeroed:
                                    row[c] = {}
                        spec["zeroed"] = len(zeroed)
                    spec["ranks"] = ranks
                    spec["blocks"] = conjugate_blocks(
                        blocks, ranks, _frames(rng, ranks, 0, False), 0)
                pool.append(spec)
        return pool

    def build(self, spec, gm):
        if spec["kind"] == "split":
            return gm.coalgebra.split_coalgebra(list(spec["profile"]))
        return _bundle(gm, spec["profile"], spec["ranks"], spec["blocks"], 0)

    def verdict(self, spec, e, gm):
        co, geo = gm.coalgebra, gm.geometrize
        profile, kind = spec["profile"], spec["kind"]
        n = len(profile)
        out = []
        if not co.check_coalgebra(e).ok:
            out.append("check_coalgebra: not a coalgebra")
        adm = co.check_admissible(e, [()])
        if kind == "neg":
            want_k = image_rank(profile, n)
            top = adm.per_degree[-n]
            if adm.admissible:
                out.append("admissible: True, want False")
            if (top.k_rank, top.im_rank) != (want_k, want_k - spec["zeroed"]):
                out.append(f"degree -{n}: K/im {top.k_rank}/{top.im_rank},"
                           f" want {want_k}/{want_k - spec['zeroed']}")
            _check_ranks(out, adm, profile, skip_top=True)
            _expect_raise(out, lambda: geo.roundtrip(e), gm.errors.NotAdmissible,
                          "roundtrip")
            return out
        if not adm.admissible:
            out.append("admissible: False, want True")
        _check_ranks(out, adm, profile)
        if kind == "split":
            f, phi = geo.roundtrip(e)
            if _gen_counts(f, n) != tuple(profile):
                out.append(f"roundtrip generators {_gen_counts(f, n)}, want {profile}")
            if not co.morphism_check(phi, e, f):
                out.append("morphism_check: roundtrip map is not a morphism")
            return out
        chart = geo.geometrize(e)
        degrees = gen_degrees(profile)
        if tuple(chart.gen_counts()) != tuple(profile):
            out.append(f"chart generators {chart.gen_counts()}, want {profile}")
        for level in range(n + 2):
            if chart.dimension_of_degree(level) != partition_count(degrees, level):
                out.append(f"chart dimension at degree {level} is wrong")
        r1 = profile[0]
        if r1:
            if not geo.reduce_product(chart, [(1, 0), (1, 0)]).is_zero():
                out.append("reduce_product: odd square is nonzero")
            top = geo.reduce_product(chart, [(1, a) for a in range(r1)])
            if [len(w) for w in top.terms] != [r1]:
                out.append("reduce_product: degree -1 frame product is not one top monomial")
        if not co.morphism_check(chart.iso, e, chart.iso.target):
            out.append("morphism_check: splitting map is not a morphism")
        return out


# --- xdep-admissible --------------------------------------------------------------


class XdepAdmissible:
    """Split bundles over 1-2 base variables conjugated by unimodular
    polynomial frame changes, plus rank-dropping and refusal negatives."""

    name = "xdep-admissible"
    # (profile, base variable count). (3, 2) over one variable appears twice:
    # it is the heaviest case whose cost barely depends on its random frame,
    # and a sixth of the pass puts p90 inside it. (3, 0) over one variable
    # also appears twice: with (1, 1, 1, 1) it makes a quarter of the pass at
    # about 15 ms, where the median falls. Bundles like (3, 1) or (2, 1, 1)
    # over two variables swing 3x in cost with the frame.
    PROFILES = [((2, 1), 1), ((3, 2), 1), ((1, 1, 1), 1), ((3, 0), 1), ((2, 1), 2),
                ((2, 1, 1), 1), ((3, 2), 1), ((1, 1, 1), 2), ((3, 1), 1), ((3, 0), 2),
                ((3, 0), 1), ((1, 1, 1, 1), 1)]
    KINDS = ("pos", "vanish", "refuse")
    ROUNDS = 2
    trace_cases = 36

    def make_pool(self, seed, gm):
        rng = random.Random(seed)
        pool = []
        for kind in [k for _ in range(self.ROUNDS) for k in self.KINDS]:
            for profile, nv in self.PROFILES:
                ranks, blocks = _split_blocks(gm, profile, nv)
                n = len(profile)
                spec = {"kind": kind, "profile": profile, "nv": nv, "ranks": ranks}
                a = Fraction(rng.randint(-2, 2))
                generic = tuple(Fraction(rng.randint(-3, 3)) for _ in range(nv))
                special = (a,) + tuple(Fraction(rng.randint(-3, 3)) for _ in range(nv - 1))
                if generic[0] == a:
                    generic = (a + 1,) + generic[1:]
                spec["points"] = [generic, special]
                spec["fiber"] = special
                if kind == "vanish":
                    # scale one decomposable top column by (x1 - a): the rank
                    # drops exactly where x1 = a
                    col = rng.choice(nonzero_columns(blocks[n], ranks[n]))
                    factor = padd(pvar(nv, 0), pconst(nv, -a))
                    for rows in blocks[n].values():
                        for row in rows:
                            row[col] = pmul(row[col], factor) if row[col] else {}
                spec["blocks"] = conjugate_blocks(
                    blocks, ranks, _frames(rng, ranks, nv, True), nv)
                if not any(len(p) > 1 or any(any(e) for e in p)
                           for by_pair in spec["blocks"].values()
                           for rows in by_pair.values() for row in rows for p in row):
                    raise RuntimeError(f"{profile}: conjugation left constant entries")
                pool.append(spec)
        return pool

    def build(self, spec, gm):
        return _bundle(gm, spec["profile"], spec["ranks"], spec["blocks"], spec["nv"])

    def verdict(self, spec, e, gm):
        co = gm.coalgebra
        profile, kind = spec["profile"], spec["kind"]
        n = len(profile)
        out = []
        adm = co.check_admissible(e, spec["points"])
        _check_ranks(out, adm, profile)
        const = [adm.per_degree[-i].constant_rank for i in range(2, n + 1)]
        want_const = [kind != "vanish" or i < n for i in range(2, n + 1)]
        if const != want_const:
            out.append(f"constant_rank {const}, want {want_const}")
        if adm.admissible != (kind != "vanish"):
            out.append(f"admissible {adm.admissible}, want {kind != 'vanish'}")
        if kind == "vanish":
            return out
        if kind == "refuse":
            _expect_raise(out, lambda: gm.geometrize.geometrize(e),
                          gm.errors.UnsupportedXDependence, "geometrize without a fiber")
            return out
        phi = co.splitting_iso(e, at_point=spec["fiber"])
        s = phi.target
        if _gen_counts(s, n) != tuple(profile):
            out.append(f"split model generators {_gen_counts(s, n)}, want {profile}")
        if [s.rank(i) for i in range(1, n + 1)] != [split_rank(profile, i)
                                                   for i in range(1, n + 1)]:
            out.append("split model ranks are wrong")
        if not co.morphism_check(phi, phi.source, phi.target):
            out.append("morphism_check: splitting map is not a morphism")
        return out


# --- frobenius-flatten --------------------------------------------------------------


def _words(gens, g):
    """Words that may be added to the image of generator g: earlier generators
    of the same degree, and products of lower-degree generators. Keeping the
    same-degree part unipotent triangular, as the acceptance corpus does,
    keeps every input inside the engine's documented flattening scope."""
    gens = sorted(gens)
    out = [(h,) for h in gens if h[0] == g[0] and h < g]
    lower = [h for h in gens if h[0] < g[0]]

    def rec(start, remaining, acc):
        if remaining == 0:
            if len(acc) > 1:
                out.append(tuple(acc))
            return
        for t in range(start, len(lower)):
            h = lower[t]
            if h[0] <= remaining:
                acc.append(h)
                rec(t + 1 if h[0] & 1 else t, remaining - h[0], acc)
                acc.pop()

    rec(0, g[0], [])
    return out


def _shears(rng, m0, gens, slot, base_only=False):
    """Four elementary coordinate changes, each with an obvious inverse.

    ("gen", g, terms) sends g to g + sum(terms); the terms do not involve g,
    so g - sum(terms) undoes it. ("base", b, b2, c, k) sends x_b to
    x_b + c*x_b2 + k and is undone by x_b - c*x_b2 - k. Which coordinates
    move depends on the case's slot only; the seed picks the added words and
    their coefficients, constants or one base variable times a sign.
    """
    steps = []
    for j in range(4):
        if base_only or j == 1:
            b = (slot + j) % m0
            b2 = (b + 1) % m0
            c = Fraction(rng.choice([-1, 1])) if b2 != b else Fraction(0)
            steps.append(("base", b, b2, c, Fraction(rng.randint(-1, 1))))
            continue
        g = gens[(slot + j) % len(gens)]
        words = _words(gens, g)
        terms = []
        for w in rng.sample(words, min(len(words), 2)):
            sign = Fraction(rng.choice([-1, 1]))
            if m0 and rng.random() < 0.5:
                coeff = {k: sign for k in pvar(m0, rng.randrange(m0))}
            else:
                coeff = pconst(m0, sign * rng.randint(1, 2))
            terms.append((w, coeff))
        if terms:
            steps.append(("gen", g, terms))
    return steps


class FrobeniusFlatten:
    """Flat distributions pushed through seeded coordinate changes, obstructed
    fields with a known bracket witness, non-constant symbols, and degree-1
    fields whose square is known."""

    name = "frobenius-flatten"
    # (base variable count, generator counts per degree 1..n): at most six
    # generators, degree at most four
    CHARTS = [
        (1, (2, 1)),
        (2, (2, 1, 1)),
        (1, (3, 1)),
        (2, (2, 1, 0, 1)),
        (1, (2, 2, 1)),
        (2, (3, 2)),
    ]
    KINDS = ("flat", "flat", "flat", "obstructed", "nonconst", "homological")
    ROUNDS = 4
    trace_cases = 36

    def make_pool(self, seed, gm):
        rng = random.Random(seed)
        pool = []
        kinds = [k for _ in range(self.ROUNDS) for k in self.KINDS]
        for slot, (kind, (m0, counts)) in enumerate(
                (k, c) for k in kinds for c in self.CHARTS):
            # which coordinates are flat depends on the slot only, so that
            # every seed has the same mix of sizes
            gens = [(d + 1, t) for d, r in enumerate(counts) for t in range(r)]
            picked = [("g", g) for t, g in enumerate(gens) if (slot + t) % 2 == 0]
            spec = {"kind": kind, "m0": m0, "counts": counts,
                    "points": [tuple(Fraction(rng.randint(-2, 2)) for _ in range(m0))
                               for _ in range(2)]}
            if kind == "flat":
                spec["flats"] = ([("x", 0)] if slot % 3 == 0 else []) + picked
            elif kind == "obstructed":
                # Y = d/de + e*d/dp; [Y, Y] = 2 d/dp, outside the span
                spec["flats"] = [c for c in picked if c[1] not in ((1, 0), (2, 0))]
            elif kind == "nonconst":
                spec["flats"] = picked
            else:
                spec["negative"] = counts[0] >= 3 and slot % 4 < 2
            spec["steps"] = _shears(rng, m0, gens, slot, base_only=kind == "nonconst")
            pool.append(spec)
        return pool

    def build(self, spec, gm):
        gr, fl = gm.gradedring, gm.fields
        GF, VF = gr.GradedFunction, fl.VectorField
        m0 = spec["m0"]
        names = [[f"{'epqr'[d]}{t + 1}" for t in range(r)]
                 for d, r in enumerate(spec["counts"])]
        sig = gr.GradedSignature(len(names), [f"x{a + 1}" for a in range(m0)], names)
        ex = gm.exactnum
        nio = oin = fl.ChartMap.identity(sig)
        for step in spec["steps"]:
            fwd, back = fl.ChartMap.identity(sig), fl.ChartMap.identity(sig)
            if step[0] == "base":
                _, b, b2, c, k = step
                shift = GF.base_var(sig, b2).scale(c).add(GF.constant(sig, k))
                fwd.base[b] = fwd.base[b].add(shift)
                back.base[b] = back.base[b].sub(shift)
            else:
                _, g, terms = step
                f = GF.zero(sig)
                for w, coeff in terms:
                    f = f.add(GF.monomial(sig, w, ex.Poly(m0, dict(coeff))))
                fwd.gens[g] = fwd.gens[g].add(f)
                back.gens[g] = back.gens[g].sub(f)
            nio, oin = fwd.after(nio), oin.after(back)

        def moved(x):
            return fl.transform_field(x, nio, oin)

        def coord_field(c):
            return VF.coordinate_field(sig, c)

        kind = spec["kind"]
        fields = [coord_field(c) for c in spec.get("flats", [])]
        expected = None
        if kind == "obstructed":
            e = GF.from_gen(sig, (1, 0))
            fields.append(coord_field(("g", (1, 0))).add(coord_field(("g", (2, 0))).scale(e)))
            expected = moved(coord_field(("g", (2, 0))).scale(2))
        elif kind == "nonconst":
            x1 = GF.base_var(sig, 0)
            if m0 == 1:
                fields.append(coord_field(("x", 0)).scale(x1.mul(x1).add(GF.one(sig))))
            else:
                fields.append(coord_field(("x", 0)).add(coord_field(("x", 1)).scale(x1)))
        elif kind == "homological":
            e = [GF.from_gen(sig, (1, t)) for t in range(spec["counts"][0])]
            if spec["negative"]:
                # one flipped structure sign on three odd generators
                actions = {("g", (1, 2)): e[0].mul(e[1]).neg(),
                           ("g", (1, 0)): e[2].mul(e[0]).scale(-2),
                           ("g", (1, 1)): e[2].mul(e[1]).scale(-2)}
            else:
                # Q = e1 times the coordinate fields of e2 and p1: Q(e1) = 0
                # and e1*e1 = 0, so Q(Q(c)) = -e1*Q(c) = 0 for every c
                p1 = GF.from_gen(sig, (2, 0))
                actions = {("g", (1, 1)): e[0].mul(e[1]), ("g", (2, 0)): e[0].mul(p1)}
            fields = [VF(sig, 1, actions)]
        return sig, [moved(x) for x in fields], expected

    def verdict(self, spec, inp, gm):
        sig, fields, expected = inp
        di, fl = gm.distrib, gm.fields
        kind = spec["kind"]
        out = []
        if kind == "homological":
            got = fl.is_homological(fields[0])
            if got == spec["negative"]:
                out.append(f"is_homological {got}, want {not spec['negative']}")
            return out
        dist = di.make_distribution(fields, spec["points"], sig=sig)
        rep = di.is_involutive(dist)
        if kind == "obstructed":
            k = len(fields) - 1
            if rep.involutive or rep.failing_pair != (k, k) or rep.witness != expected:
                out.append(f"is_involutive {rep.involutive} at {rep.failing_pair},"
                           f" want False at {(k, k)} with witness 2 d/dp")
            _expect_raise(out, lambda: di.frobenius_normal_form(dist),
                          gm.errors.NotInvolutive, "frobenius_normal_form")
            return out
        if not rep.involutive:
            out.append(f"is_involutive False at {rep.failing_pair}, want True")
            return out
        if kind == "nonconst":
            _expect_raise(out, lambda: di.frobenius_normal_form(dist),
                          gm.errors.NonConstantSymbols, "frobenius_normal_form")
            return out
        chart = di.frobenius_normal_form(dist)
        if not (chart.span_preserved and chart.inverse_ok):
            out.append(f"span_preserved/inverse_ok {chart.span_preserved}/{chart.inverse_ok}")
        want = sorted(fl.coord_degree(c) for c in spec["flats"])
        if sorted(fl.coord_degree(c) for c in chart.flattened) != want:
            out.append(f"flattened degrees {chart.flattened}, want degrees {want}")
        return out


# --- cli-golden ---------------------------------------------------------------------


class CliGolden:
    """The command line in-process on the golden documents: every argv and
    exit code of the acceptance matrix that reads a file."""

    name = "cli-golden"
    CASES = [
        (0, ["involutive", "ex2dis.gm", "--name", "DD"]),
        (1, ["involutive", "ex2dis.gm", "--name", "DDp"]),
        (0, ["frobenius", "frobA.gm"]),
        (0, ["check-coalgebra", "wedge22.gm"]),
        (0, ["admissible", "wedge22.gm"]),
        (1, ["admissible", "zeromu.gm"]),
        (0, ["split-iso", "wedge22.gm"]),
        (3, ["split-iso", "xdep.gm"]),
        (3, ["geometrize", "xdep.gm"]),
        (0, ["geometrize", "wedge22.gm"]),
        (0, ["reduce", "wedge22.gm", "--expr", "E_2_1"]),
        (0, ["bracket", "vftang.gm", "--fields", "X,Y"]),
        (0, ["tangent", "vftang.gm", "--field", "Y"]),
        (0, ["qsquare", "qsquare.gm", "--field", "Q"]),
        (1, ["qsquare", "qsquare.gm", "--field", "Qbad"]),
        (0, ["roundtrip", "wedge22.gm"]),
        (1, ["roundtrip", "zeromu.gm"]),
        (3, ["frobenius", "nonconst.gm"]),
        (2, ["involutive", "ex2dis.gm"]),
    ]
    trace_cases = 19

    def make_pool(self, seed, gm):
        order = list(range(len(self.CASES)))
        random.Random(seed).shuffle(order)
        pool = []
        for t in order:
            code, argv = self.CASES[t]
            pool.append({"code": code, "argv": argv,
                         "source": (GOLDEN / argv[1]).read_text(encoding="utf-8")})
        return pool

    def build(self, spec, gm):
        argv = spec["argv"]
        return [argv[0], str(GOLDEN / argv[1])] + argv[2:] + ["--format=json"]

    def verdict(self, spec, argv, gm):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = gm.cli.main(argv)
        out = []
        rep = json.loads(buf.getvalue())
        want = spec["code"]
        if code != want or rep.get("exit_code") != want:
            out.append(f"{argv[0]}: exit {code}, report {rep.get('exit_code')}, want {want}")
        if rep.get("schema") != 1 or rep.get("command") != argv[0]:
            out.append(f"{argv[0]}: schema/command {rep.get('schema')}/{rep.get('command')}")
        if rep.get("verdict") != (want == 0):
            out.append(f"{argv[0]}: verdict {rep.get('verdict')}, want {want == 0}")
        return out


WORKLOADS = {w.name: w for w in (SplitTower(), XdepAdmissible(), FrobeniusFlatten(), CliGolden())}


def fingerprint(pool):
    """Stable digest of a pool's plain data, for the determinism check."""
    return hashlib.sha256(repr(freeze(pool)).encode()).hexdigest()[:16]
