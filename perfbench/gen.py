"""Seeded input generators, pinned inside the benchmark.

These are copies of the generators in ``tests/genutil.py`` and of the c11
corpus builder in ``tests/test_acceptance.py``.  They are copied, not
imported, so that an edit to the tests cannot silently change what the
benchmark measures.  ``c11_stream`` takes its ``random.Random`` as an
argument; with ``random.Random(1011)`` its first 200 pairs are the
acceptance corpus.
"""

from __future__ import annotations

import random

from aparam.chars import SignTable
from aparam.relevance import is_relevant
from aparam.repcore import AParam, ATerm, SymbolTable, WeilSymbol

POOL = (
    WeilSymbol("alpha", 1, "orthogonal", "alpha"),
    WeilSymbol("beta", 1, "orthogonal", "beta"),
    WeilSymbol("rho2", 2, "symplectic", "rho2"),
    WeilSymbol("sig2", 2, "orthogonal", "sig2"),
    WeilSymbol("chi", 1, "none", "chid"),
    WeilSymbol("tau2", 2, "none", "tau2d"),
    WeilSymbol("crho", 2, "conjugate-symplectic", "crho"),
    WeilSymbol("csig", 1, "conjugate-orthogonal", "csig"),
)
TABLE = SymbolTable(list(POOL))
SELFDUAL_ORTH = [TABLE["1"], TABLE["alpha"], TABLE["beta"], TABLE["sig2"]]
SELFDUAL_SYMPL = [TABLE["rho2"]]
GL_SYMBOLS = [TABLE["1"], TABLE["alpha"], TABLE["rho2"], TABLE["chi"], TABLE["chid"], TABLE["tau2"]]


def rand_relevant_gl(rng, max_labels=5, max_dim=20, max_mult=3, deligne_trivial=False):
    """A random relevant gl pair built from explicit per-label splittings."""
    while True:
        terms_m, terms_n = [], []
        for _ in range(rng.randint(1, max_labels)):
            sym = rng.choice(GL_SYMBOLS)
            d = 1 if deligne_trivial else rng.choice((1, 1, 2, 3))
            depth = rng.randint(1, 4)
            mc: dict[int, int] = {}
            nc: dict[int, int] = {}
            for i in range(depth):
                plus_m = rng.randint(0, max_mult - 1)
                plus_n = rng.randint(0, max_mult - 1)
                mc[i] = mc.get(i, 0) + plus_m
                nc[i + 1] = nc.get(i + 1, 0) + plus_m
                nc[i] = nc.get(i, 0) + plus_n
                mc[i + 1] = mc.get(i + 1, 0) + plus_n
            mc[0] = mc.get(0, 0) + rng.randint(0, max_mult - 1)
            nc[0] = nc.get(0, 0) + rng.randint(0, max_mult - 1)
            for i, c in mc.items():
                if c:
                    terms_m.append(ATerm(sym, d, i + 1, min(c, max_mult)))
            for i, c in nc.items():
                if c:
                    terms_n.append(ATerm(sym, d, i + 1, min(c, max_mult)))
        m = AParam(terms_m, "gl")
        n = AParam(terms_n, "gl")
        if m.dim <= max_dim and n.dim <= max_dim and not m.is_empty() and not n.is_empty():
            # clamping multiplicities can break the splitting; re-check
            if is_relevant(m, n):
                return m, n


def rand_discrete_pair(rng, max_arthur=11):
    """A random relevant discrete (symplectic, orthogonal) Deligne-trivial pair."""
    while True:
        terms_m, terms_n = [], []
        pool = SELFDUAL_ORTH + SELFDUAL_SYMPL
        for sym in rng.sample(pool, rng.randint(1, len(pool))):
            sympl_sym = sym.duality == "symplectic"
            # in the symplectic parameter the Arthur dim is odd iff the symbol is symplectic
            want = 1 if sympl_sym else 0
            bvals = sorted(
                {b for b in (rng.randint(1, max_arthur) for _ in range(3)) if b % 2 == want},
                reverse=True,
            )
            rows = []
            for b in bvals:
                for _ in range(8):
                    bp = b + rng.choice((-1, 1))
                    if bp >= 0 and all(bp != r[1] for r in rows):
                        rows.append((b, bp))
                        break
            if rng.random() < 0.35:
                bfree = 1 if not sympl_sym else 2
                if all(bfree != r[1] for r in rows):
                    rows.append((0, bfree))
            for b, bp in rows:
                if b:
                    terms_m.append(ATerm(sym, 1, b, 1))
                if bp:
                    terms_n.append(ATerm(sym, 1, bp, 1))
        m = AParam(terms_m, "symplectic")
        n = AParam(terms_n, "orthogonal")
        if not m.is_empty() and not n.is_empty() and m.is_discrete() and n.is_discrete():
            if is_relevant(m, n):
                return m, n


def sign_table(rng):
    """Random epsilons and determinant signs over the shared table.

    This is ``rand_sign_table`` from the tests with one change: a symplectic
    symbol gets determinant sign +1, as a symplectic representation has
    trivial determinant.  The tests' checks never read that sign, but the
    tempered recipe behind ``predict_multiplicity`` does, and rejects a
    table that contradicts it.
    """
    ids = sorted(s.id for s in TABLE.symbols())
    eps = {}
    for i, x in enumerate(ids):
        for y in ids[i:]:
            if (x, y) != ("1", "1"):
                eps[(x, y)] = rng.choice((1, -1))
    det = {x: rng.choice((1, -1)) for x in ids if x != "1"}
    for x in ids:
        if TABLE[x].duality == "symplectic":
            det[x] = 1
    return SignTable(eps, det)


def c11_stream(rng):
    """Endless corank-one gl pairs on the trivial and chi lines, padded with fresh lines.

    Occasional tempered Steinberg factors sit on fresh lines, so both
    branching hypotheses hold on every instance.
    """
    counter = [0]

    def fresh_pads(k):
        base = counter[0]
        counter[0] += k
        return [
            ATerm(WeilSymbol(f"q{base+i}", 1, "none", f"qd{base+i}"), 1, 1)
            for i in range(k)
        ]

    syms = [TABLE["1"], TABLE["chi"]]
    while True:
        terms_m, terms_n = [], []
        for _ in range(rng.randint(1, 2)):
            sym = rng.choice(syms)
            mc, nc = {}, {}
            for i in range(rng.randint(1, 3)):
                pm, pn = rng.randint(0, 1), rng.randint(0, 1)
                mc[i] = mc.get(i, 0) + pm
                nc[i + 1] = nc.get(i + 1, 0) + pm
                nc[i] = nc.get(i, 0) + pn
                mc[i + 1] = mc.get(i + 1, 0) + pn
            mc[0] = mc.get(0, 0) + rng.randint(0, 1)
            nc[0] = nc.get(0, 0) + rng.randint(0, 1)
            for i, c in mc.items():
                if c:
                    terms_m.append(ATerm(sym, 1, i + 1, c))
            for i, c in nc.items():
                if c:
                    terms_n.append(ATerm(sym, 1, i + 1, c))
        if rng.random() < 0.4 and terms_m:
            t = terms_m[rng.randrange(len(terms_m))]
            terms_m[terms_m.index(t)] = ATerm(t.weil, 1, t.a_dim + rng.choice((1, 2)), t.mult)
        # occasional tempered Steinberg factors on fresh lines (hypotheses hold)
        for terms in (terms_m, terms_n):
            if rng.random() < 0.3:
                terms.extend(ATerm(f.weil, rng.randint(2, 3), 1) for f in fresh_pads(1))
        m, n = AParam(terms_m, "gl"), AParam(terms_n, "gl")
        if m.dim <= n.dim:
            m = AParam(list(m.terms) + fresh_pads(n.dim + 1 - m.dim), "gl")
        elif m.dim > n.dim + 1:
            n = AParam(list(n.terms) + fresh_pads(m.dim - n.dim - 1), "gl")
        if m.dim != n.dim + 1:
            continue
        yield m, n


def walk_bucket(m, n):
    """log2 of the number of leaves of the larger of the two derivative walks.

    The decision walks the derivatives of each product separately: a
    Z-factor takes zero steps or one, an L-factor of length d takes 0..d.
    The decision's cost grows with the larger walk, so this is the stratum
    of an instance.
    """

    def leaves(p):
        count = 1
        for t in p.terms:
            count *= (2 if t.d_dim == 1 else t.d_dim + 1) ** t.mult
        return count

    return max(leaves(m), leaves(n)).bit_length() - 1
