"""Acceptance suite: one test per numbered criterion, exact tolerances.

Each test prints a single pass line; a failing criterion is visible as a
test failure (criterion 1's published constants are marked xfail with the
verified values pinned alongside; see the decisions ledger).
"""

import itertools
import random
from fractions import Fraction

import pytest

from aparam.repcore import (
    AParam,
    ATerm,
    SymbolTable,
    WeilSymbol,
    enumerate_params,
    parse_param,
    render_param,
)
from aparam.lfun import bessel_ratio_order, gl_hom_formula_order, gl_ratio_order
from aparam.relevance import (
    brute_force_relevant,
    check_relevant,
    delta_class_search,
    ep_identities,
    is_relevant,
    special_pairs,
)
from aparam.globlfun import OrderExpr, global_ratio_order, z_key
from aparam.chars import SignTable, alternating_characters, ggp_chi, without_gaps
from aparam.glbranch import decide_gl_branching
from genutil import (
    TABLE,
    alt2_formal,
    c11_stream,
    ord_oracle,
    rand_discrete_pair,
    rand_mult_free_pair,
    rand_relevant_gl,
    rand_sign_table,
    sym2_formal,
    tensor_formal,
)

TRIV = TABLE["1"]


def p(text, parity="gl"):
    return parse_param(text, TABLE, parity)


def _passed(num, msg):
    print(f"[criterion {num:>2}] PASS: {msg}")


# ---------------------------------------------------------------------------
# criterion 1 — the relevant rank-32 pair

C1_M = "1:D3:A4 + 1:D5:A4"
C1_N = "1:D3:A3 + 1:D5:A5"


def test_c01_counterexample2_numerator():
    m, n = p(C1_M, "symplectic"), p(C1_N, "orthogonal")
    num, den, signed = bessel_ratio_order(m, n, detail=True)
    assert num == 25
    _passed(1, f"numerator pole order {num} == 25 (denominator/ratio: see companion and ledger)")


@pytest.mark.xfail(
    strict=True,
    reason="published denominator 20 / ratio +5 contradict the stated pole rules; "
    "verified values are 22 / +3 (decisions ledger)",
)
def test_c01_counterexample2_published_denominator_and_ratio():
    m, n = p(C1_M, "symplectic"), p(C1_N, "orthogonal")
    num, den, signed = bessel_ratio_order(m, n, detail=True)
    assert den == 20 and signed == 5


def test_c01_counterexample2_verified_values():
    # the honest orders, double-checked by the independent explicit-shift oracle
    m, n = p(C1_M, "symplectic"), p(C1_N, "orthogonal")
    num, den, signed = bessel_ratio_order(m, n, detail=True)
    assert (num, den, signed) == (25, 22, 3)
    assert ord_oracle(tensor_formal(m, n), Fraction(1, 2)) == 25
    assert ord_oracle(sym2_formal(m), 1) + ord_oracle(alt2_formal(n), 1) == 22
    assert is_relevant(m, n) and signed > 0
    _passed(1, "verified orders (25, 22, +3): a relevant pair with a genuine pole")


# ---------------------------------------------------------------------------
# criterion 2 — the irrelevant pair with a clean ratio


def test_c02_counterexample1():
    m = p("1:D1:A10", "symplectic")
    n = p("1:D1:A5 + 1:D7:A1 + 1:D9:A1", "orthogonal")
    num, den, signed = bessel_ratio_order(m, n, detail=True)
    assert signed == 0
    assert not is_relevant(m, n)
    assert (num, den) == (7, 7)
    _passed(2, "ratio order 0 with the pair irrelevant (orders 7/7)")


# ---------------------------------------------------------------------------
# criterion 3 — restriction of one-dimensional characters


def test_c03_onedim_family():
    for n in range(1, 6):
        for beta_trivial in (True, False):
            m = p(f"1:D1:A{2*n}", "symplectic")
            first = "1:D1:A1" if beta_trivial else "beta:D1:A1"
            nn = p(f"{first} + 1:D1:A{2*n-1}", "orthogonal")
            num, den, signed = bessel_ratio_order(m, nn, detail=True)
            assert num == (2 * n if beta_trivial else 2 * n - 1), (n, beta_trivial)
            if n == 1 and beta_trivial:
                assert signed == 1
            else:
                assert signed == 0
    _passed(3, "numerator 2n-1 / 2n and ratio 0 (simple pole only at n=1 trivial twist)")


# ---------------------------------------------------------------------------
# criterion 4 — nonnegativity of the gl ratio on relevant pairs


def _c4_pairs():
    rng = random.Random(1004)
    return [rand_relevant_gl(rng, max_labels=5, max_dim=20, max_mult=3) for _ in range(500)]


def test_c04_gl_ratio_nonnegative():
    for m, n in _c4_pairs():
        assert gl_ratio_order(m, n) >= 0, (render_param(m), render_param(n))
    _passed(4, "gl ratio order >= 0 on 500 random relevant pairs")


# ---------------------------------------------------------------------------
# criterion 5 — sign of the Bessel ratio on multiplicity-free pairs


def _c5_pairs():
    rng = random.Random(1005)
    out = []
    while len(out) < 500:
        if len(out) % 2:
            m, n = rand_discrete_pair(rng)
        else:
            m, n = rand_mult_free_pair(rng)
        if m.is_empty() or n.is_empty():
            continue
        out.append((m, n))
    return out


def test_c05_bessel_sign_dichotomy():
    rel = irrel = 0
    for m, n in _c5_pairs():
        order = bessel_ratio_order(m, n)
        assert order <= 0
        if is_relevant(m, n):
            assert order == 0
            rel += 1
        else:
            assert order < 0
            irrel += 1
    assert rel >= 100 and irrel >= 100
    _passed(5, f"ratio <= 0 with equality iff relevant ({rel} relevant, {irrel} not)")


# ---------------------------------------------------------------------------
# criterion 6 — descent against the brute-force oracle


def _c6_pairs():
    rng = random.Random(1006)
    pairs = []
    syms = [TABLE["1"], TABLE["alpha"], TABLE["rho2"], TABLE["chi"]]
    for k in range(500):
        if k % 3 == 0:
            pairs.append(rand_relevant_gl(rng, max_labels=3, max_dim=10, max_mult=2))
            continue
        terms_m, terms_n = [], []
        for sym in rng.sample(syms, rng.randint(1, 4)):
            for terms in (terms_m, terms_n):
                for i in rng.sample(range(5), rng.randint(0, 3)):
                    terms.append(ATerm(sym, 1, i + 1, rng.randint(1, 3)))
        pairs.append((AParam(terms_m, "gl"), AParam(terms_n, "gl")))
    return pairs


def test_c06_oracle_equivalence():
    rel = 0
    for m, n in _c6_pairs():
        a = check_relevant(m, n)
        b = brute_force_relevant(m, n, cap=2_000_000)
        assert a.relevant == b.relevant
        if a.relevant:
            assert a.labels == b.labels  # uniqueness: the one witness matches
            rel += 1
    assert rel >= 50
    _passed(6, f"descent == enumeration on 500 pairs ({rel} relevant, witnesses identical)")


# ---------------------------------------------------------------------------
# criterion 7 — hom-count engine against the order engine


def test_c07_cross_engine():
    rng = random.Random(1007)
    for _ in range(300):
        m, n = rand_relevant_gl(rng, deligne_trivial=True)
        assert gl_hom_formula_order(m, n) == gl_ratio_order(m, n)
    _passed(7, "hom-count order == ratio order on 300 relevant pairs")


# ---------------------------------------------------------------------------
# criterion 8 — the global ratio canonicalizes to the special-pair sum


def test_c08_global_ratio():
    rng = random.Random(1008)
    for _ in range(300):
        m, n = rand_discrete_pair(rng)
        expr = global_ratio_order(m, n)
        assert expr.const == 0
        want = {}
        for sp in special_pairs(m, n):
            key = z_key(sp.i_row.weil, sp.j_row.weil)
            want[key] = want.get(key, 0) - 1
        assert expr == OrderExpr.of(0, want)
    _passed(8, "constant term 0 and expression == -sum of special-pair unknowns, 300 pairs")


# ---------------------------------------------------------------------------
# criterion 9 — sign-flip laws for the distinguished character


def test_c09_flip_laws():
    rng = random.Random(1009)
    orth_syms = [TABLE["1"], TABLE["alpha"], TABLE["beta"], TABLE["sig2"]]
    done = flips = 0
    while done < 300:
        rho = rng.choice(orth_syms)
        a = rng.choice((4, 6))
        nterms = []
        for _ in range(rng.randint(1, 4)):
            sym = rng.choice(orth_syms + [TABLE["rho2"]])
            d = rng.randint(1, 6)
            sgn = (1 if d % 2 else -1) * (1 if sym.duality == "orthogonal" else -1)
            if sgn != 1:
                continue
            nterms.append(ATerm(sym, d, 1, rng.randint(1, 3)))
        if rng.random() < 0.6:
            nterms.append(ATerm(rho, a - 1, 1, rng.randint(1, 3)))
        if not nterms:
            continue
        n0 = AParam(nterms, "orthogonal")
        if n0.dim % 2:
            continue  # even orthogonal side, where the clean laws are stated
        table = rand_sign_table(rng, normalize_det_for=[n0])
        if table is None:
            continue
        chi_a = ggp_chi(rho, a, n0, table)
        chi_a2 = ggp_chi(rho, a - 2, n0, table)
        mult = sum(t.mult for t in n0.terms if t.weil.id == rho.id and t.d_dim == a - 1)
        assert (chi_a * chi_a2 == -1) == (mult % 2 == 1)
        chi_2 = ggp_chi(rho, 2, n0, table)
        mult0 = sum(t.mult for t in n0.terms if t.weil.id == rho.id and t.d_dim == 1)
        assert (chi_2 == -1) == (mult0 % 2 == 1)
        flips += chi_a * chi_a2 == -1
        done += 1
    assert flips >= 40
    _passed(9, f"both flip laws on 300 instances ({flips} sign flips observed)")


# ---------------------------------------------------------------------------
# criterion 10 — the two-SL2 family


def test_c10_family():
    for n in (2, 3):
        base = AParam([ATerm(TRIV, 2 * i, 1) for i in range(1, n + 1)], "symplectic")
        cls = {render_param(q) for q in delta_class_search(base)}
        n_param = AParam([ATerm(TRIV, 2 * j - 1, 1) for j in range(1, n + 1)], "orthogonal")
        relevant_subsets = []
        for mask in range(1 << n):
            subset = tuple(i for i in range(1, n + 1) if mask & (1 << (i - 1)))
            terms = [
                ATerm(TRIV, 1, 2 * i) if i in subset else ATerm(TRIV, 2 * i, 1)
                for i in range(1, n + 1)
            ]
            member = AParam(terms, "symplectic")
            assert render_param(member) in cls  # the class recovers every member
            if is_relevant(member, n_param):
                relevant_subsets.append(subset)
        assert sorted(relevant_subsets) == [(), (1,)]
        # the diagonal image carries a unique alternating character, (-1)^j
        image = base
        assert without_gaps(image)
        alts = alternating_characters(image)
        assert len(alts) == 1
        for j in range(1, n + 1):
            assert alts[0][("M", "1", 2 * j, 1)] == (-1) ** j
    _passed(10, "class recovery, relevance pattern {{}, {1}}, unique alternating character")


# ---------------------------------------------------------------------------
# criterion 11 — branching decision, derivative engine against relevance


def _c11_instances():
    return list(itertools.islice(c11_stream(random.Random(1011)), 200))


def test_c11_branching_decision():
    rel = 0
    for m, n in _c11_instances():
        out = decide_gl_branching(m, n)
        assert not out["inconclusive"]
        assert out["hom_nonzero"] == is_relevant(m, n)
        rel += out["hom_nonzero"]
    chan_m = p("1:D1:A3 + 2*1:D1:A1")
    chan_n = p("1:D2:A1 + 1:D1:A2")
    out = decide_gl_branching(chan_m, chan_n)
    assert out["inconclusive"]
    assert rel >= 50
    _passed(11, f"derivative verdict == relevance on 200 instances ({rel} positive); "
                "the undecided rank-5/4 instance stays inconclusive")


# ---------------------------------------------------------------------------
# criterion 12 — cross-sum identities on every witness from criteria 4-6


def test_c12_ep_identities():
    count = 0
    for m, n in _c4_pairs():
        w = check_relevant(m, n)
        assert w.relevant and ep_identities(w) == []
        count += 1
    for m, n in _c5_pairs():
        w = check_relevant(m, n)
        if w.relevant:
            assert ep_identities(w) == []
            count += 1
    for m, n in _c6_pairs():
        w = check_relevant(m, n)
        if w.relevant:
            assert ep_identities(w) == []
            count += 1
    _passed(12, f"both cross-sum identities hold for all {count} witnesses")


# ---------------------------------------------------------------------------
# criterion 13 — the corank-one reality check


def _c13_table():
    return SymbolTable(
        [
            WeilSymbol("alpha", 1, "orthogonal", "alpha"),
            WeilSymbol("rho2", 2, "symplectic", "rho2"),
            WeilSymbol("chi", 1, "none", "chid"),
        ]
    )


def test_c13_reality_check():
    st = _c13_table()
    for n in range(1, 7):
        top = parse_param(f"1:D1:A{n+1}", st)
        hits = [q for q in enumerate_params(n, st, "gl") if is_relevant(top, q)]
        assert hits == [parse_param(f"1:D1:A{n}", st)], (n, list(map(render_param, hits)))

        partner = parse_param(f"1:D1:A{n}", st)
        expected = {parse_param(f"1:D1:A{n+1}", st)}
        stub = [] if n == 1 else [ATerm(st["1"], 1, n - 1)]
        for tau in enumerate_params(2, st, "gl", tempered_only=True):
            expected.add(AParam(stub + list(tau.terms), "gl"))
        got = {q for q in enumerate_params(n + 1, st, "gl") if is_relevant(q, partner)}
        assert got == expected, (n, sorted(map(render_param, got ^ expected)))
    _passed(13, "corank-one enumeration matches the predicted sets for n = 1..6")
