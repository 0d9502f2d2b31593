import random
from collections import Counter
from fractions import Fraction

import pytest

from aparam.repcore import AParam, ATerm, AparamError, SymbolTable, WeilSymbol, parse_param
from aparam.glbranch import (
    GLFactor,
    GLProduct,
    HypothesisViolated,
    St,
    _derivative_layers,
    Z,
    decide_gl_branching,
    derivative_products,
    derivative_supports,
    parse_product,
    product_from_aparam,
    support,
)
from aparam.relevance import brute_force_relevant, is_relevant
from genutil import TABLE, c11_stream, derivative_walk_oracle, walk_bucket

HALF = Fraction(1, 2)


def prod(*factors):
    return GLProduct(factors)


# ---------------------------------------------------------------------------
# supports


def test_support_examples():
    assert support(prod(Z(3)))["1"] == Counter({Fraction(-1): 1, Fraction(0): 1, Fraction(1): 1})
    s = support(prod(St(2), Z(2)))["1"]
    assert s == Counter({HALF: 2, -HALF: 2})
    n = 6
    left = prod(Z(n - 1, HALF), Z(1, Fraction(-(n - 1), 2)))
    assert support(left) == support(prod(Z(n)))


def test_support_per_line():
    rho = TABLE["rho2"]
    s = support(prod(Z(2, 0, rho), Z(1)))
    assert set(s) == {"1", "rho2"}


def test_rank_bookkeeping():
    rng = random.Random(40)
    for _ in range(60):
        factors = []
        for _ in range(rng.randint(1, 4)):
            line = rng.choice((TABLE["1"], TABLE["rho2"]))
            kind = rng.choice(("Z", "L"))
            factors.append(GLFactor(kind, line, rng.randint(1, 4), Fraction(rng.randint(-2, 2), 2)))
        p = GLProduct(factors)
        for k in range(p.rank + 1):
            for q in derivative_products(p, k):
                assert q.rank == p.rank - k
                got = sum(c for cnt in support(q).values() for c in cnt.values())
                want = sum(
                    f.length * (1 if f.line.is_trivial else 0) + (0 if f.line.is_trivial else f.length)
                    for f in q.factors
                )
                assert got == want


def test_leibnitz_symmetry():
    # derivative supports depend only on the factor multiset
    a = prod(Z(3), St(2), Z(1, HALF))
    b = prod(Z(1, HALF), Z(3), St(2))
    for k in range(a.rank + 1):
        assert derivative_supports(a, k) == derivative_supports(b, k)


def test_derivative_rules():
    # a segment factor takes one full step with the down twist
    outs = derivative_products(prod(Z(4)), 1)
    assert outs == {prod(Z(3, -HALF))}
    # a Steinberg factor walks up j half-steps
    outs = derivative_products(prod(St(4)), 2)
    assert outs == {prod(St(2, 1))}
    # top derivative empties the product
    outs = derivative_products(prod(Z(2)), 2)
    assert outs == set()  # one step only for segments
    outs = derivative_products(prod(St(2)), 2)
    assert outs == {GLProduct([])}


# ---------------------------------------------------------------------------
# the branching decision


def ap(text, parity="gl"):
    return parse_param(text, TABLE, parity)


def test_products_from_parameters():
    p = product_from_aparam(ap("1:D1:A3 + rho2:D2:A1"))
    kinds = sorted((f.line.id, f.kind, f.length) for f in p.factors)
    assert kinds == [("1", "Z", 3), ("rho2", "L", 2)]
    with pytest.raises(HypothesisViolated):
        product_from_aparam(ap("1:D2:A2"))


def test_decide_trivial_chain():
    for n in range(1, 7):
        out = decide_gl_branching(ap(f"1:D1:A{n+1}"), ap(f"1:D1:A{n}"))
        assert out == {"inconclusive": False, "hom_nonzero": True}


def test_decide_chan_instance_inconclusive():
    m = ap("1:D1:A3 + 2*1:D1:A1")
    n = ap("1:D2:A1 + 1:D1:A2")
    assert is_relevant(m, n)
    out = decide_gl_branching(m, n)
    assert out["inconclusive"]
    assert "1:D1:A2" in out["reason"] and "1:D2:A1" in out["reason"]


def test_decide_dimension_check():
    with pytest.raises(AparamError):
        decide_gl_branching(ap("1:D1:A3"), ap("1:D1:A1"))


def test_decide_steinberg_flavor():
    # tempered Steinberg against the trivial line
    m = ap("1:D2:A1")  # St(2) on GL2
    n = ap("1:D1:A1")
    out = decide_gl_branching(m, n)
    assert out == {"inconclusive": False, "hom_nonzero": True}
    # a Steinberg chain that cannot absorb the descent
    m = ap("1:D1:A3")
    n = ap("1:D2:A1")
    out = decide_gl_branching(m, n)
    assert out == {"inconclusive": False, "hom_nonzero": False}
    assert not is_relevant(m, n)


def test_decide_agreement_randomized():
    rng = random.Random(41)
    chi = WeilSymbol("chi", 1, "none", "chid")
    st = SymbolTable([chi])
    syms = [st["1"], st["chi"]]
    counter = [0]

    def fresh_pads(k):
        base = counter[0]
        counter[0] += k
        return [
            ATerm(WeilSymbol(f"p{base+i}", 1, "none", f"pd{base+i}"), 1, 1)
            for i in range(k)
        ]

    agree = 0
    while agree < 80:
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
        m = AParam(terms_m, "gl")
        n = AParam(terms_n, "gl")
        if m.dim <= n.dim:
            m = AParam(list(m.terms) + fresh_pads(n.dim + 1 - m.dim), "gl")
        elif m.dim > n.dim + 1:
            n = AParam(list(n.terms) + fresh_pads(m.dim - n.dim - 1), "gl")
        out = decide_gl_branching(m, n)
        assert not out["inconclusive"]
        assert out["hom_nonzero"] == is_relevant(m, n)
        agree += 1


# ---------------------------------------------------------------------------
# product grammar


def test_parse_product():
    p = parse_product("St2 x Z2@0.5")
    assert p == prod(St(2), Z(2, HALF))
    q = parse_product("Z3@-1/2:rho2 x Z1", SymbolTable([TABLE["rho2"]]))
    assert q.factors[1].line.id == "rho2" or q.factors[0].line.id == "rho2"


# ---------------------------------------------------------------------------
# the grouped walk against the per-copy reference walk


def _keys(products):
    return {
        tuple((f.line.id, f.kind, f.length, int(2 * f.twist)) for f in q.factors)
        for q in products
    }


def test_derivative_layers_match_per_copy_walk():
    # repeated factors, rho2 (dim 2) lines, nonzero starting twists and
    # L-factors whose remnant has length 1 must all occur in the sample
    rng = random.Random(43)
    seen = Counter()
    for _ in range(120):
        factors = []
        size = rng.randint(1, 4)
        while len(factors) < size:
            line = rng.choice((TABLE["1"], TABLE["1"], TABLE["rho2"]))
            f = GLFactor(
                rng.choice(("Z", "L")), line, rng.randint(1, 4), Fraction(rng.randint(-3, 3), 2)
            )
            factors.extend([f] * rng.choice((1, 1, 2, 3)))
        p = GLProduct(factors)
        seen["repeated"] += len(set(p.factors)) < len(p.factors)
        seen["rho2"] += any(f.line.id == "rho2" for f in p.factors)
        seen["twisted"] += any(f.twist for f in p.factors)
        # every L-factor (length >= 2) can step to a length-1 remnant
        seen["L"] += any(f.kind == "L" for f in p.factors)
        kmax = p.rank + 1
        for z_step in (-1, 1):
            layers = _derivative_layers(p.factors, z_step, kmax)
            assert len(layers) == kmax + 1
            for k in range(kmax + 1):
                want = derivative_walk_oracle(p, k, z_step)
                assert layers[k] == _keys(want), (p, z_step, k)
                if z_step == -1:
                    assert derivative_products(p, k) == want
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


def test_decide_heavy_walk_buckets():
    # the corpus instances with the largest per-copy walks (2^11 leaves and
    # more) against the brute-force relevance oracle
    heavy = []
    for m, n in c11_stream(random.Random(1012)):
        if walk_bucket(m, n) >= 11:
            heavy.append((m, n))
            if len(heavy) == 20:
                break
    for m, n in heavy:
        out = decide_gl_branching(m, n)
        assert not out["inconclusive"]
        assert out["hom_nonzero"] == bool(brute_force_relevant(m, n))
