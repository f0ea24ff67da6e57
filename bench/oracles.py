"""Known answers and input construction that do not call the engine.

Every expected value the benchmark checks comes from here or from how an
input was built: generator counts, partition counts, ranks of the
constructed comultiplication, and the frame changes with their inverses.
Polynomials are plain dicts {exponent tuple: Fraction} so that building an
input never depends on the arithmetic under test.
"""

from fractions import Fraction


def partition_count(degrees, level):
    """Dimension of the degree-`level` part of the free graded-commutative
    algebra on generators of the given degrees (odd ones square to zero)."""
    coeffs = [0] * (level + 1)
    coeffs[0] = 1
    for d in degrees:
        if d % 2 == 1:
            nxt = coeffs[:]
            for k in range(level + 1 - d):
                nxt[k + d] += coeffs[k]
            coeffs = nxt
        else:
            for k in range(d, level + 1):
                coeffs[k] += coeffs[k - d]
    return coeffs[level]


def gen_degrees(profile):
    """Generator degrees of a split profile (index 0 counts degree-1 generators)."""
    return [d + 1 for d, r in enumerate(profile) for _ in range(r)]


def split_rank(profile, i):
    """Rank of the degree -i summand of the split bundle on `profile`."""
    return partition_count(gen_degrees(profile), i)


def image_rank(profile, i):
    """Rank of the comultiplication at degree -i of the split bundle: the
    decomposable monomials, which is also the constraint-space dimension."""
    return partition_count([d for d in gen_degrees(profile) if d < i], i)


# --- plain polynomials ------------------------------------------------------


def pconst(nv, c):
    c = Fraction(c)
    return {(0,) * nv: c} if c else {}


def pvar(nv, i):
    return {tuple(1 if k == i else 0 for k in range(nv)): Fraction(1)}


def padd(p, q):
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def pneg(p):
    return {e: -c for e, c in p.items()}


def pmul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def matmul(a, b):
    if not a or not b:
        return [[{} for _ in range(len(b[0]) if b else 0)] for _ in a]
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = {}
            for k, x in enumerate(row):
                if x and b[k][j]:
                    acc = padd(acc, pmul(x, b[k][j]))
            new.append(acc)
        out.append(new)
    return out


def identity(r, nv):
    return [[pconst(nv, 1 if i == j else 0) for j in range(r)] for i in range(r)]


def random_entry(rng, nv, linear):
    """Small integer constant; when `linear`, a nonzero constant plus or minus
    one base variable, so that every such entry costs about the same."""
    if not (linear and nv):
        return pconst(nv, rng.randint(-2, 2))
    p = pconst(nv, rng.choice([-2, -1, 1, 2]))
    return padd(p, {k: Fraction(rng.choice([-1, 1])) for k in pvar(nv, rng.randrange(nv))})


def unimodular_pair(rng, r, nv, linear):
    """A frame change P = L.U with unit triangular factors, and its inverse
    U^-1.L^-1. The determinant is 1, so P is invertible over the polynomial
    ring and the rank of anything it conjugates is the same at every point."""
    low = identity(r, nv)
    up = identity(r, nv)
    for i in range(r):
        for j in range(i):
            low[i][j] = random_entry(rng, nv, linear)
            up[j][i] = random_entry(rng, nv, linear)
    low_inv = identity(r, nv)
    for j in range(r):
        for i in range(j + 1, r):
            acc = {}
            for k in range(j, i):
                acc = padd(acc, pmul(low[i][k], low_inv[k][j]))
            low_inv[i][j] = pneg(acc)
    up_inv = identity(r, nv)
    for j in range(r):
        for i in range(j - 1, -1, -1):
            acc = {}
            for k in range(i + 1, j + 1):
                acc = padd(acc, pmul(up[i][k], up_inv[k][j]))
            up_inv[i][j] = pneg(acc)
    return matmul(low, up), matmul(up_inv, low_inv)


def conjugate_blocks(blocks, ranks, frames, nv):
    """Transport comultiplication blocks through per-degree frame changes.

    `blocks[i][(j, k)]` has rows over ordered pairs (a, b) of the (j, k)
    block, row-major, and columns over the degree -i frame. The new block is
    (P_j (x) P_k) . B . P_i^-1, which is the same bundle in another frame.
    """
    out = {}
    for i, by_pair in blocks.items():
        new_pairs = {}
        p_inv = frames[i][1]
        for (j, k), mat in by_pair.items():
            c = matmul(mat, p_inv)
            pj, pk = frames[j][0], frames[k][0]
            rj, rk = ranks[j], ranks[k]
            new = [[{} for _ in range(ranks[i])] for _ in range(rj * rk)]
            for a2 in range(rj):
                for b2 in range(rk):
                    row = new[a2 * rk + b2]
                    for a in range(rj):
                        if not pj[a2][a]:
                            continue
                        for b in range(rk):
                            if not pk[b2][b]:
                                continue
                            f = pmul(pj[a2][a], pk[b2][b])
                            src = c[a * rk + b]
                            for col in range(ranks[i]):
                                if src[col]:
                                    row[col] = padd(row[col], pmul(f, src[col]))
            new_pairs[(j, k)] = new
        out[i] = new_pairs
    return out


def nonzero_columns(by_pair, rank):
    """Columns of the degree -i comultiplication that have a nonzero entry."""
    return [c for c in range(rank)
            if any(row[c] for mat in by_pair.values() for row in mat)]


def freeze(obj):
    """Hashable, order-independent canonical form of nested plain data."""
    if isinstance(obj, dict):
        return tuple(sorted((freeze(k), freeze(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(v) for v in obj)
    if isinstance(obj, Fraction):
        return (obj.numerator, obj.denominator)
    return obj
