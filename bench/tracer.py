"""Spans and counters recorded from outside the engine.

`Tracer.install` replaces each traced function with a wrapper on every
engine module (and class) that holds it, because callers look functions up
by module attribute at call time. A wrapper records a span only inside a
root span opened with `Tracer.root`, so building inputs is not traced.
Spans are aggregated in memory per (layer, parent layer): calls, total time
and self time, where self time is the span's duration minus the time of
its child spans. Self times of all layers plus the root's own self time add
up to the root's total.
"""

import time
from collections import defaultdict

ROOT = "bench.verdict"

# layer -> [(module name, attribute path)]; an attribute path "Cls.meth"
# patches a method on the class.
SPANS = {
    "exactnum.kernel_basis": [("exactnum", "kernel_basis")],
    "exactnum.rank_generic": [("exactnum", "rank_generic")],
    "exactnum.poly_solve": [("exactnum", "poly_solve")],
    "exactnum.rat": [("exactnum", n) for n in
                     ("rat_rank", "rat_rref", "rat_kernel", "rat_solve", "rat_inverse",
                      "rank_at")],
    "coalgebra.compute_K": [("coalgebra", "compute_K")],
    "coalgebra.check_coalgebra": [("coalgebra", "check_coalgebra")],
    "coalgebra.check_admissible": [("coalgebra", "check_admissible")],
    "coalgebra.splitting_iso": [("coalgebra", "splitting_iso")],
    "coalgebra.morphism_check": [("coalgebra", "morphism_check")],
    "geometrize.geometrize": [("geometrize", "geometrize")],
    "geometrize.roundtrip": [("geometrize", "roundtrip")],
    "geometrize.reduce_product": [("geometrize", "reduce_product")],
    "gradedring.mul": [("gradedring", "GradedFunction.mul")],
    "gradedring.substitute": [("gradedring", "GradedFunction.substitute")],
    "fields.bracket": [("fields", "bracket")],
    "fields.transform_field": [("fields", "transform_field")],
    "fields.is_homological": [("fields", "is_homological")],
    "distrib.membership": [("distrib", "membership")],
    "distrib.is_involutive": [("distrib", "is_involutive")],
    "distrib.frobenius_normal_form": [("distrib", "frobenius_normal_form")],
    "cli.main": [("cli", "main")],
    "cli.parse_document": [("cli", "parse_document")],
}

# counted without a span: too frequent for a span to be cheap
COUNTS = {"exactnum.poly_mul": ("exactnum", "Poly.mul")}


class Tracer:
    def __init__(self, gm):
        self.gm = gm
        self._saved = []
        self.stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(int)  # (layer, parent layer) -> calls
        self.reset()

    def reset(self):
        """Forget everything recorded; installed wrappers keep working."""
        self.stack.clear()
        self.calls.clear()
        self.self_s.clear()
        self.edges.clear()
        self.root_s = 0.0
        self.max_terms = 0
        self.max_degree = 0
        self.member_ok = 0
        self.member_refused = 0

    # --- patching ---------------------------------------------------------

    def _owner(self, module, path):
        obj = getattr(self.gm, module)
        parts = path.split(".")
        for p in parts[:-1]:
            obj = getattr(obj, p)
        return obj, parts[-1]

    def _replace(self, original, wrapper):
        """Point every engine module attribute that holds `original` at `wrapper`."""
        for mod in self.gm.modules:
            for name, val in list(vars(mod).items()):
                if val is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self):
        for layer, targets in SPANS.items():
            for module, path in targets:
                owner, attr = self._owner(module, path)
                original = getattr(owner, attr)
                wrapper = self._span(layer, original)
                if "." in path:
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                else:
                    self._replace(original, wrapper)
        for layer, (module, path) in COUNTS.items():
            owner, attr = self._owner(module, path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._count(layer, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # --- recording ----------------------------------------------------------

    def _span(self, layer, fn):
        stack = self.stack
        clock = time.perf_counter
        post = {"exactnum.kernel_basis": self._post_kernel_basis,
                "distrib.membership": self._post_membership}.get(layer)

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += dur - frame[1]
                self.edges[(layer, parent[0])] += 1
                parent[1] += dur
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, layer, fn):
        stack = self.stack
        calls = self.calls

        def wrapper(*args, **kwargs):
            if stack:
                calls[layer] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _post_kernel_basis(self, basis):
        for vec, _ok in basis:
            for p in vec:
                self.max_terms = max(self.max_terms, len(p.terms))
                if p.terms:
                    self.max_degree = max(self.max_degree, p.total_degree())

    def _post_membership(self, cert):
        if cert.ok:
            self.member_ok += 1
        elif cert.witness and cert.witness[0] == "nonpolynomial":
            self.member_refused += 1

    def root(self):
        return _Root(self)

    # --- results --------------------------------------------------------------

    def counts(self):
        """Deterministic counters: identical for identical case lists."""
        out = {f"{layer}.calls": self.calls[layer] for layer in list(SPANS) + list(COUNTS)}
        out["exactnum.kernel_basis.max_terms"] = self.max_terms
        out["exactnum.kernel_basis.max_degree"] = self.max_degree
        out["coalgebra.compute_K.kernel_calls"] = self.edges[
            ("exactnum.kernel_basis", "coalgebra.compute_K")]
        out["distrib.membership.refusals"] = self.member_refused
        out["distrib.membership.ok"] = self.member_ok
        return out


class _Root:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.frame = [ROOT, 0.0]
        self.tracer.stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dur = time.perf_counter() - self.t0
        t = self.tracer
        t.stack.pop()
        t.calls[ROOT] += 1
        t.root_s += dur
        t.self_s[ROOT] += dur - self.frame[1]
        return False
