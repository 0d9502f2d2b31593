import random

import pytest

from aparam.repcore import (
    AParam,
    ATerm,
    AparamError,
    BudgetError,
    SymbolTable,
    WeilSymbol,
    enumerate_params,
    parse_param,
    render_param,
)
from aparam import relevance
from aparam.relevance import (
    NotRelevant,
    brute_force_relevant,
    check_relevant,
    delta_class_search,
    ep_identities,
    is_relevant,
    special_pairs,
)
from genutil import TABLE, delta_class_oracle, label_chains_oracle, rand_relevant_gl, rand_discrete_pair, rand_mult_free_pair


def p(text, parity="gl", table=TABLE):
    return parse_param(text, table, parity)


# ---------------------------------------------------------------------------
# check_relevant


def test_label_merge_matches_oracle():
    # few symbols and small dimensions per pair, so labels repeat within a
    # parameter (several Arthur factors) and are shared by the two sides
    rng = random.Random(61)
    symbols = TABLE.symbols()
    repeated = shared = 0

    def rand_param(pool):
        terms = [
            ATerm(rng.choice(pool), rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3))
            for _ in range(rng.randint(0, 6))
        ]
        return AParam(terms)

    for _ in range(3000):
        pool = rng.sample(symbols, rng.randint(1, 3))
        m, n = rand_param(pool), rand_param(pool)
        merged = relevance._label_chains(m, n)
        assert merged == list(label_chains_oracle(m, n).items()), (render_param(m), render_param(n))
        repeated += any(len(cm) > 1 or len(cn) > 1 for _, (cm, cn) in merged)
        shared += any(cm and cn for _, (cm, cn) in merged)
    assert repeated > 1000 and shared > 1000


def test_label_merge_refuses_two_symbols_with_one_id():
    a = WeilSymbol("rho", 1, "orthogonal", "rho")
    b = WeilSymbol("rho", 2, "orthogonal", "rho")
    with pytest.raises(AparamError, match="share the id 'rho'"):
        check_relevant(AParam([ATerm(a, 1, 2)]), AParam([ATerm(b, 1, 1)]))
    with pytest.raises(AparamError, match="share the id 'rho'"):
        check_relevant(AParam([ATerm(a, 1, 2), ATerm(b, 1, 1)]), AParam([]))
    # distinct labels are never merged, so they raise nothing
    assert check_relevant(AParam([ATerm(a, 1, 1)]), AParam([ATerm(b, 2, 1)]))


def test_trivial_representation_chain():
    for n in range(1, 8):
        assert is_relevant(p(f"1:D1:A{n+1}"), p(f"1:D1:A{n}"))


def test_tempered_pairs_always_relevant():
    rng = random.Random(0)
    for _ in range(50):
        m, _ = rand_mult_free_pair(rng)
        terms = [ATerm(t.weil, t.a_dim, 1, t.mult) for t in m.terms]  # move to first factor
        a = AParam(terms, "gl")
        b = p("alpha:D3:A1 + 2*1:D2:A1")
        w = check_relevant(a, b)
        assert w.relevant
        for _lab, lw in w.labels:
            assert not any(lw.mplus) and not any(lw.nplus)


def test_family_counterexample_not_relevant():
    m = p("1:D1:A4 + alpha:D2:A1", "gl")
    n = p("1:D3:A1 + 1:D1:A1", "gl")
    verdict = check_relevant(m, n)
    assert not verdict.relevant
    assert verdict.label[0].id == "1" and verdict.label[1] == 1


def test_generic_two_label_swap_is_relevant():
    m = p("alpha:D1:A2 + beta:D1:A1")
    n = p("alpha:D1:A1 + beta:D1:A2")
    assert is_relevant(m, n)


def test_symmetry():
    rng = random.Random(1)
    for _ in range(80):
        m, n = rand_mult_free_pair(rng)
        assert is_relevant(m, n) == is_relevant(n, m)
    for _ in range(30):
        m, n = rand_relevant_gl(rng)
        assert is_relevant(n, m)


def test_not_relevant_certificate_fields():
    verdict = check_relevant(p("1:D1:A4"), p("1:D1:A1"))
    assert isinstance(verdict, NotRelevant)
    assert verdict.deficit > 0 and "Arthur index" in verdict.reason


# ---------------------------------------------------------------------------
# brute force oracle


def test_brute_force_agrees_small():
    rng = random.Random(2)
    for _ in range(120):
        m, n = rand_mult_free_pair(rng, max_arthur=6)
        a = check_relevant(m, n)
        b = brute_force_relevant(m, n)
        assert a.relevant == b.relevant
        if a.relevant:
            assert a.labels == b.labels


def test_brute_force_budget():
    m = AParam([ATerm(TABLE["1"], 1, 1, 30), ATerm(TABLE["1"], 1, 2, 30)], "gl")
    n = AParam([ATerm(TABLE["1"], 1, 1, 30), ATerm(TABLE["1"], 1, 2, 30)], "gl")
    with pytest.raises(BudgetError):
        brute_force_relevant(m, n, cap=100)


# ---------------------------------------------------------------------------
# cross-sum identities


def test_ep_identities_tempered():
    m = p("alpha:D2:A1 + 1:D1:A1")
    n = p("alpha:D1:A1")
    w = check_relevant(m, n)
    assert ep_identities(w) == []


def test_ep_identities_chain():
    w = check_relevant(p("1:D1:A4"), p("1:D1:A3"))
    assert ep_identities(w) == []


def test_ep_identities_random():
    rng = random.Random(3)
    for _ in range(100):
        m, n = rand_relevant_gl(rng)
        assert ep_identities(check_relevant(m, n)) == []


# ---------------------------------------------------------------------------
# special pairs


def make_pair(m_terms, n_terms, mpar="symplectic", npar="orthogonal"):
    return AParam(m_terms, mpar), AParam(n_terms, npar)


def test_special_pair_basic():
    V, W = TABLE["rho2"], TABLE["alpha"]
    m, n = make_pair(
        [ATerm(V, 1, 1), ATerm(W, 1, 2)], [ATerm(V, 1, 2), ATerm(W, 1, 1)]
    )
    pairs = special_pairs(m, n)
    assert len(pairs) == 1
    sp = pairs[0]
    assert (sp.i_row.weil.id, sp.j_row.weil.id) == ("rho2", "alpha")


def test_special_pairs_tempered_cross():
    # with no Arthur jumps every summand is a free row, and the opposite-sign
    # condition picks out exactly the cross pairs (one from each side)
    m = AParam([ATerm(TABLE["rho2"], 1, 1)], "symplectic")
    n = AParam([ATerm(TABLE["alpha"], 1, 1), ATerm(TABLE["beta"], 1, 1)], "orthogonal")
    pairs = special_pairs(m, n)
    assert len(pairs) == 2
    assert {(sp.i_row.weil.id, sp.j_row.weil.id) for sp in pairs} == {
        ("rho2", "alpha"),
        ("rho2", "beta"),
    }


def test_special_pairs_same_sign_excluded():
    V, W = TABLE["rho2"], TABLE["alpha"]
    # (m_i, m'_i) = (4, 3) against (n'_j, n_j) = (1, 2): signs of m-n differences agree
    m, n = make_pair(
        [ATerm(V, 1, 4 - 1), ATerm(W, 1, 1 + 1)], [ATerm(V, 1, 3 - 1), ATerm(W, 1, 2 - 1)]
    )
    # adjust to valid parities: rho2 symplectic needs odd dims in the symplectic side
    m, n = make_pair([ATerm(V, 1, 3), ATerm(W, 1, 2)], [ATerm(V, 1, 2), ATerm(W, 1, 1)])
    assert is_relevant(m, n)
    assert special_pairs(m, n) == []


# ---------------------------------------------------------------------------
# diagonal-class search


def test_delta_class_minimal():
    m = p("rho2:D1:A1", "symplectic")
    assert delta_class_search(m) == [m]


def test_delta_class_family_n2():
    m = p("1:D2:A1 + 1:D4:A1", "symplectic")
    cls = delta_class_search(m)
    names = {render_param(q) for q in cls}
    for expect in (
        "1:D2:A1 + 1:D4:A1",
        "1:D1:A2 + 1:D4:A1",
        "1:D1:A4 + 1:D2:A1",
        "1:D1:A2 + 1:D1:A4",
    ):
        assert expect in names
    for q in cls:
        assert q.dim == m.dim
        from aparam.repcore import delta_map

        assert delta_map(q) == delta_map(m)


def test_delta_class_budget():
    m = AParam([ATerm(TABLE["1"], 2 * i, 1) for i in range(1, 7)], "symplectic")
    with pytest.raises(BudgetError):
        delta_class_search(m, bound=3)


def _delta_oracle_inputs():
    rng = random.Random(20)
    chains = [(n, sid) for n in range(1, 8) for sid in ("1", "alpha", "sig2")]
    for n, sid in chains + [(8, rng.choice(("1", "alpha", "sig2")))]:
        terms = [f"{sid}:D1:A{2 * i}" for i in range(1, n + 1)]
        rng.shuffle(terms)
        yield parse_param(" + ".join(terms), TABLE, "symplectic")
    # 1, alpha (orthogonal), rho2 (symplectic, dim 2), chi and its dual chid
    small = SymbolTable([TABLE["alpha"], TABLE["rho2"], TABLE["chi"]])
    for parity in ("symplectic", "orthogonal"):
        for dim in range(1, 8):
            yield from enumerate_params(dim, small, parity, max_mult=1)
    for dim in range(1, 5):
        yield from enumerate_params(dim, small, "gl")
    # repeated dimensions, so that one set of pairs has several multiplicity vectors
    for dim in range(5, 8):
        yield from enumerate_params(dim, SymbolTable([TABLE["alpha"]]), "gl")


def test_delta_class_matches_search_oracle():
    # the counting DP lists exactly the oracle's members, in its order
    # (keys first, then multiplicities; the prefix rule across symbols), and
    # its count is their number
    for m in _delta_oracle_inputs():
        members = delta_class_search(m, bound=10**6)
        assert members == delta_class_oracle(m, bound=10**6), (render_param(m), m.parity)
        assert relevance._delta_count(m, 10**6)[0] == len(members)
    # A discrete parameter's dimensions never admit a pair of the wrong
    # duality (the duality of rho (x) [d] (x) [a] follows from the parity of
    # d+a-1), so the check at selection shows only on other dimensions: the
    # pairs (1, 3) and (3, 1) of dimension 3 are orthogonal on the trivial symbol.
    assert relevance._Tilings(TABLE["1"], [2, 3], "symplectic").pairs == [(1, 2), (2, 1)]


def test_delta_class_budget_before_any_member(monkeypatch):
    # the class size (2 * 3^10 here) and the DP states are checked before the
    # first member is built
    built = []
    real = relevance.AParam
    monkeypatch.setattr(relevance, "AParam", lambda *a: built.append(a) or real(*a))
    chain = AParam([ATerm(TABLE["1"], 1, 2 * i) for i in range(1, 12)], "symplectic")
    for bound in (100_000, 3):
        with pytest.raises(BudgetError):
            delta_class_search(chain, bound=bound)
    assert built == []
    assert len(delta_class_search(AParam(chain.terms[:4], "symplectic"))) == 54
    assert built


def test_delta_class_deep_multiplicity():
    # a tiling of 5000 equal dimensions is a path of 5000 pairs, deeper than
    # Python's recursion limit: the DP must not recurse along it
    m = AParam([ATerm(TABLE["1"], 1, 2, 5000)], "gl")
    assert relevance._delta_count(m, 100_000)[0] == 5001
    members = delta_class_search(AParam([ATerm(TABLE["1"], 1, 2, 40)], "gl"))
    assert [render_param(q) for q in members[:2]] == ["40*1:D1:A2", "1:D1:A2 + 39*1:D2:A1"]


def test_witness_parity_propagation():
    # along a symplectic/orthogonal relevant pair, first-side blocks at even
    # Arthur index carry the symplectic duality and odd-index blocks the
    # orthogonal one (labels only; the chain parity forces it)
    rng = random.Random(6)
    for _ in range(60):
        m, n = rand_discrete_pair(rng)
        w = check_relevant(m, n)
        for (sym, d), lw in w.labels:
            sign = {"orthogonal": 1, "symplectic": -1}[sym.duality]
            for i in range(len(lw.mplus)):
                if lw.mplus[i] or lw.mminus[i]:
                    assert sign == (-1 if i % 2 == 0 else 1)
                if lw.nplus[i] or lw.nminus[i]:
                    assert sign == (1 if i % 2 == 0 else -1)


def test_special_pairs_same_sign_exact_instance():
    # dims (4,3) against (1,2) on swapped-sign symbols: relevant but the two
    # differences point the same way on both sides, so nothing is special
    M1, N1 = TABLE["rho2"], TABLE["alpha"]
    m = AParam([ATerm(M1, 1, 4), ATerm(N1, 1, 1)], "orthogonal")
    n = AParam([ATerm(M1, 1, 3), ATerm(N1, 1, 2)], "symplectic")
    assert is_relevant(m, n)
    assert special_pairs(m, n) == []


def test_delta_class_distinct_symbols_swaps_only():
    # one chain per symbol: the class is exactly the per-term factor swaps
    m = parse_param("alpha:D3:A1 + rho2:D2:A1", TABLE, "gl")
    cls = {render_param(q) for q in delta_class_search(m)}
    assert cls == {
        "alpha:D3:A1 + rho2:D2:A1",
        "alpha:D1:A3 + rho2:D2:A1",
        "alpha:D3:A1 + rho2:D1:A2",
        "alpha:D1:A3 + rho2:D1:A2",
    }


def test_family_relevance_through_brute_force():
    # the two-SL2 family against the tempered odd chain, via the enumeration oracle
    n = 2
    npar = AParam([ATerm(TABLE["1"], 2 * j - 1, 1) for j in range(1, n + 1)], "orthogonal")
    verdicts = {}
    for mask in range(1 << n):
        subset = tuple(i for i in range(1, n + 1) if mask & (1 << (i - 1)))
        terms = [
            ATerm(TABLE["1"], 1, 2 * i) if i in subset else ATerm(TABLE["1"], 2 * i, 1)
            for i in range(1, n + 1)
        ]
        m = AParam(terms, "symplectic")
        verdicts[subset] = brute_force_relevant(m, npar).relevant
    assert verdicts == {(): True, (1,): True, (2,): False, (1, 2): False}
