import random

import pytest

from aparam.repcore import (
    AParam,
    ATerm,
    AparamError,
    NotDiscreteError,
    SymbolTable,
    WeilSymbol,
    enumerate_params,
    parse_param,
)
from aparam.chars import (
    CharacterAssignment,
    SignTable,
    SignTableError,
    alternating_characters,
    arthur_character,
    automorphy_test,
    eps_block,
    gg_global_character,
    ggp_character,
    ggp_chi,
    is_alternating,
    predict_multiplicity,
    supercuspidal_support,
    swap_sl2,
    without_gaps,
)
from aparam.relevance import is_relevant
from genutil import (
    TABLE,
    alternation_oracle,
    character_oracle,
    rand_discrete_pair,
    rand_sign_table,
)

TRIV = TABLE["1"]
ALPHA = TABLE["alpha"]
RHO = TABLE["rho2"]
T0 = SignTable()


def ap(text, parity):
    return parse_param(text, TABLE, parity)


# ---------------------------------------------------------------------------
# sign table


def test_sign_table_defaults_and_errors():
    t = SignTable()
    assert t.eps("1", "1") == 1
    with pytest.raises(SignTableError):
        t.eps("1", "alpha")
    with pytest.raises(SignTableError):
        t.det_m1("alpha")
    with pytest.raises(SignTableError):
        SignTable({("1", "1"): -1})
    t2 = SignTable({("alpha", "1"): -1})
    assert t2.eps("1", "alpha") == -1  # symmetric


# ---------------------------------------------------------------------------
# epsilon blocks


def test_eps_trivial_chain():
    for n in range(1, 10):
        assert eps_block(TRIV, n, TRIV, 1, T0) == (-1) ** (n - 1)


def test_eps_two_three():
    assert eps_block(TRIV, 2, TRIV, 3, T0) == 1


def test_eps_parity_flip_rule():
    for a in range(3, 12):
        for b in range(1, 12):
            if (a + b) % 2 == 0:
                continue
            v = eps_block(TRIV, a, TRIV, b, T0) * eps_block(TRIV, a - 2, TRIV, b, T0)
            assert v == (-1 if b == a - 1 else 1)


def test_eps_symmetry_and_cg_consistency():
    t = SignTable({("1", "alpha"): -1, ("alpha", "alpha"): 1})
    from aparam.repcore import clebsch_gordan

    for a in range(1, 7):
        for b in range(1, 7):
            assert eps_block(ALPHA, a, TRIV, b, t) == eps_block(TRIV, b, ALPHA, a, t)
            prod = 1
            for d in clebsch_gordan(a, b):
                prod *= eps_block(ALPHA, d, TRIV, 1, t)
            assert eps_block(ALPHA, a, TRIV, b, t) == prod


def test_eps_requires_selfdual():
    with pytest.raises(SignTableError):
        eps_block(TABLE["chi"], 1, TRIV, 1, T0)


# ---------------------------------------------------------------------------
# distinguished characters and the flip laws


def test_ggp_chi_product_form():
    # partner with no dual link to rho and trivial determinants: plain epsilon powers
    t = SignTable({("alpha", "beta"): -1}, {"alpha": 1, "beta": 1})
    n0 = AParam([ATerm(TABLE["beta"], 3, 1)], "orthogonal")
    # alpha (x) [a] against beta (x) [3]: eps(alpha,beta)^(3a)
    for a in (2, 4):
        want = (-1) ** (3 * a)
        assert ggp_chi(ALPHA, a, n0, t) == want


def test_flip_laws_randomized():
    rng = random.Random(31)
    orth_syms = [TABLE["1"], TABLE["alpha"], TABLE["beta"], TABLE["sig2"]]
    done = 0
    while done < 120:
        rho = rng.choice(orth_syms)
        a = rng.choice((4, 6))
        nterms = []
        for _ in range(rng.randint(1, 4)):
            sym = rng.choice(orth_syms + [RHO])
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
            continue
        t = rand_sign_table(rng, normalize_det_for=[n0])
        if t is None:
            continue
        chi_a = ggp_chi(rho, a, n0, t)
        chi_a2 = ggp_chi(rho, a - 2, n0, t)
        mult = sum(x.mult for x in n0.terms if x.weil.id == rho.id and x.d_dim == a - 1)
        assert (chi_a * chi_a2 == -1) == (mult % 2 == 1)
        chi_2 = ggp_chi(rho, 2, n0, t)
        mult0 = sum(x.mult for x in n0.terms if x.weil.id == rho.id and x.d_dim == 1)
        assert (chi_2 == -1) == (mult0 % 2 == 1)
        done += 1


def test_flip_law_determinant_sensitivity():
    # outside the normalized-determinant setting the clean flip law fails:
    # a -1 determinant on a 2-dimensional partner summand cancels the flip
    tau = TABLE["sig2"]
    n0 = AParam([ATerm(tau, 1, 1), ATerm(TRIV, 3, 1), ATerm(TRIV, 1, 1)], "orthogonal")
    t = SignTable({("1", "sig2"): 1}, {"sig2": -1})
    assert ggp_chi(TRIV, 4, n0, t) * ggp_chi(TRIV, 2, n0, t) == 1  # odd mult, yet no flip


def test_ggp_character_two_sided():
    m0 = AParam([ATerm(TRIV, 2 * j, 1) for j in (1, 2)], "symplectic")
    n0 = AParam([ATerm(TRIV, 2 * j - 1, 1) for j in (1, 2)], "orthogonal")
    c = ggp_character(m0, n0, T0)
    keys = {k for k, _ in c.values}
    assert ("M", "1", 2, 1) in keys and ("N", "1", 3, 1) in keys
    with pytest.raises(NotDiscreteError):
        ggp_character(AParam([ATerm(TRIV, 2, 1, 2)], "symplectic"), n0, T0)


# ---------------------------------------------------------------------------
# gaps, alternation, supercuspidal support


def test_without_gaps_examples():
    full = AParam([ATerm(TRIV, 2 * j, 1) for j in range(1, 4)], "symplectic")
    assert without_gaps(full)
    gap = AParam([ATerm(ALPHA, 1, 1), ATerm(ALPHA, 5, 1)], "orthogonal")
    assert not without_gaps(gap)


def test_alternating_even_chain_unique():
    for n in (2, 3, 4):
        m = AParam([ATerm(TRIV, 2 * j, 1) for j in range(1, n + 1)], "symplectic")
        alts = alternating_characters(m)
        assert len(alts) == 1
        for j in range(1, n + 1):
            assert alts[0][("M", "1", 2 * j, 1)] == (-1) ** j
        assert supercuspidal_support(m, alts[0])


def test_is_alternating_strict_domain():
    # keys are full basis keys of the M side, and values are signs
    m = AParam([ATerm(ALPHA, 1, 1), ATerm(ALPHA, 3, 1)], "orthogonal")
    good = {("M", "alpha", 1, 1): 1, ("M", "alpha", 3, 1): -1}
    assert is_alternating(m, CharacterAssignment.of(good))
    for bad in (
        {("N", "alpha", 1, 1): 1, ("M", "alpha", 3, 1): -1},
        {("M", "alpha", 1, 7): 1, ("M", "alpha", 3, 1): -1},
        {**good, ("N", "alpha", 3, 1): 1},
        {("M", "alpha", 1, 1): 5, ("M", "alpha", 3, 1): -5},
        {("M", "alpha", 1, 1): 0, ("M", "alpha", 3, 1): -1},
    ):
        with pytest.raises(AparamError):
            is_alternating(m, CharacterAssignment.of(bad))


def test_alternating_odd_chain_two_choices():
    m = AParam([ATerm(ALPHA, 1, 1), ATerm(ALPHA, 3, 1)], "orthogonal")
    alts = alternating_characters(m)
    assert len(alts) == 2
    for c in alts:
        assert c[("M", "alpha", 3, 1)] == -c[("M", "alpha", 1, 1)]
        assert is_alternating(m, c)
        assert supercuspidal_support(m, c)


def test_non_alternating_rejected():
    m = AParam([ATerm(ALPHA, 1, 1), ATerm(ALPHA, 3, 1)], "orthogonal")
    bad = CharacterAssignment.of(
        {("M", "alpha", 1, 1): 1, ("M", "alpha", 3, 1): 1}
    )
    assert not is_alternating(m, bad)
    assert not supercuspidal_support(m, bad)
    gap = AParam([ATerm(ALPHA, 1, 1), ATerm(ALPHA, 5, 1)], "orthogonal")
    anyc = CharacterAssignment.of(
        {("M", "alpha", 1, 1): 1, ("M", "alpha", 5, 1): 1}
    )
    assert not supercuspidal_support(gap, anyc)


def test_alternation_matches_union_find_oracle():
    # every tempered discrete parameter up to dimension 12 over the trivial
    # symbol, a symplectic one of dimension 2, an orthogonal and a symplectic
    # one of dimension 1
    table = SymbolTable(
        [
            WeilSymbol("V", 2, "symplectic", "V"),
            WeilSymbol("W", 1, "orthogonal", "W"),
            WeilSymbol("X", 1, "symplectic", "X"),
        ]
    )
    rng = random.Random(37)
    seen = pinned = 0
    for parity in ("symplectic", "orthogonal"):
        for dim in range(1, 13):
            for m in enumerate_params(dim, table, parity, tempered_only=True):
                if not m.is_discrete():
                    continue
                seen += 1
                expected, oracle_is_alternating = alternation_oracle(m)
                alts = alternating_characters(m)
                assert alts == expected
                pinned += any(t.d_dim == 2 for t in m.terms)
                keys = [k for k, _ in alts[0].values]
                probes = [CharacterAssignment.of({k: -v for k, v in c}) for c in alts]
                probes += [
                    CharacterAssignment.of({k: rng.choice((1, -1)) for k in keys})
                    for _ in range(2)
                ]
                for c in alts + probes:
                    assert is_alternating(m, c) == oracle_is_alternating(c)
    assert seen > 600 and pinned > 100


def test_swap_sl2_involution_and_distinction_predicate():
    rng = random.Random(32)
    for _ in range(50):
        m, n = rand_discrete_pair(rng)
        assert swap_sl2(swap_sl2(m)) == m
    # supercuspidal-distinguished detection: the even/odd chain pair swaps to a
    # relevant pair exactly when the chains interleave by one
    m0 = AParam([ATerm(TRIV, 2, 1), ATerm(TRIV, 4, 1)], "symplectic")
    n0 = AParam([ATerm(TRIV, 1, 1), ATerm(TRIV, 3, 1)], "orthogonal")
    assert is_relevant(swap_sl2(m0), swap_sl2(n0))
    m1 = AParam([ATerm(TRIV, 2, 1)], "symplectic")
    n1 = AParam([ATerm(TRIV, 5, 1)], "orthogonal")
    assert not is_relevant(swap_sl2(m1), swap_sl2(n1))


# ---------------------------------------------------------------------------
# endoscopic characters and automorphy


def single_pair(eps_val):
    m = AParam([ATerm(RHO, 1, 1), ATerm(ALPHA, 1, 2)], "symplectic")
    n = AParam([ATerm(RHO, 1, 2), ATerm(ALPHA, 1, 1)], "orthogonal")
    t = SignTable({("rho2", "alpha"): eps_val, ("rho2", "rho2"): 1, ("alpha", "alpha"): 1})
    return m, n, t


def test_arthur_character_tempered_trivial():
    m = AParam([ATerm(RHO, 1, 1)], "symplectic")
    n = AParam([ATerm(ALPHA, 1, 1), ATerm(TABLE["beta"], 1, 1)], "orthogonal")
    t = SignTable({("rho2", "alpha"): -1, ("rho2", "beta"): -1})
    c = arthur_character(m, n, t)
    assert all(v == 1 for _, v in c.values)


def test_arthur_character_exponent_form():
    # restricted product equals the min-exponent product
    rng = random.Random(33)
    from aparam.relevance import endoscopic_rows
    from aparam.chars import _row_eps

    for _ in range(60):
        m, n = rand_discrete_pair(rng)
        t = rand_sign_table(rng)
        rows = endoscopic_rows(m, n)
        i_rows = [r for r in rows if r.in_i]
        j_rows = [r for r in rows if not r.in_i]
        c = arthur_character(m, n, t)
        for ri in i_rows:
            if not ri.m_dim:
                continue
            restricted = 1
            for rj in j_rows:
                if ri.m_dim < rj.m_dim:
                    restricted *= _row_eps(ri, rj, t)
            exponent = 1
            for rj in j_rows:
                if min(ri.m_dim, rj.m_dim) % 2:
                    exponent *= _row_eps(ri, rj, t)
            assert restricted == exponent == c[("M", ri.weil.id, ri.d_dim, ri.m_dim)]


def test_characters_match_reference_loops():
    # every family of all three computations, against one loop per family
    rng = random.Random(35)
    ordered = 0
    for _ in range(240):
        m, n = rand_discrete_pair(rng)
        t = rand_sign_table(rng)
        arthur, gg, automorphy = character_oracle(m, n, t)
        assert arthur_character(m, n, t) == arthur
        assert gg_global_character(m, n, t) == gg
        # the dicts compare failed_conditions as ordered lists
        assert automorphy_test(m, n, t) == automorphy
        kinds = {c[-6:] for c in automorphy["failed_conditions"]}
        ordered += kinds == {"I-row)", "J-row)"}
    assert ordered >= 20


def test_gg_character_values():
    m, n, t = single_pair(-1)
    c = gg_global_character(m, n, t)
    # second-side I-row and first-side J-row values are pinned to +1
    assert c[("N", "rho2", 1, 2)] == 1
    assert c[("M", "alpha", 1, 2)] == 1
    # the I-row first-side value is the full product over J-rows
    assert c[("M", "rho2", 1, 1)] == -1
    assert c[("N", "alpha", 1, 1)] == -1


def test_automorphy_single_pair():
    m, n, t = single_pair(-1)
    out = automorphy_test(m, n, t)
    assert not out["automorphic"] and out["failed_conditions"]
    m, n, t = single_pair(+1)
    out = automorphy_test(m, n, t)
    assert out["automorphic"] and not out["failed_conditions"]


def test_automorphy_matches_character_equality():
    rng = random.Random(34)
    for _ in range(80):
        m, n = rand_discrete_pair(rng)
        t = rand_sign_table(rng)
        out = automorphy_test(m, n, t)
        agree = arthur_character(m, n, t) == gg_global_character(m, n, t)
        assert out["automorphic"] == agree


def test_automorphy_vacuous_when_dominant():
    # every first-side I-dim above every first-side J-dim and likewise on the
    # second side: two of the four families are vacuous
    m = AParam([ATerm(RHO, 1, 9), ATerm(ALPHA, 1, 2)], "symplectic")
    n = AParam([ATerm(RHO, 1, 8), ATerm(ALPHA, 1, 1)], "orthogonal")
    t = SignTable({("rho2", "alpha"): -1, ("rho2", "rho2"): 1, ("alpha", "alpha"): 1})
    out = automorphy_test(m, n, t)
    # the I-row product over {j: m_i > n_j} is the full product, value -1
    assert not out["automorphic"]


def test_one_relevance_descent_per_call(monkeypatch):
    # check_relevant looks _label_chains up in its module, so every caller is counted
    import aparam.relevance as relevance
    from aparam.globlfun import global_ratio_order

    descents = []
    label_chains = relevance._label_chains

    def counted(m, n):
        descents.append((m, n))
        return label_chains(m, n)

    monkeypatch.setattr(relevance, "_label_chains", counted)
    calls = (
        automorphy_test,
        predict_multiplicity,
        arthur_character,
        gg_global_character,
        lambda m, n, t: global_ratio_order(m, n),
    )
    rng = random.Random(38)
    for _ in range(60):
        m, n = rand_discrete_pair(rng)
        t = rand_sign_table(rng)
        for call in calls:
            descents.clear()
            call(m, n, t)
            assert len(descents) == 1, call


# ---------------------------------------------------------------------------
# multiplicity prediction


def test_predict_irrelevant():
    m = ap("1:D1:A4", "symplectic")
    n = ap("alpha:D3:A1 + alpha:D1:A1", "orthogonal")
    out = predict_multiplicity(m, n, T0)
    assert out["d"] == 0 and out["character"] is None


def test_predict_tempered_uses_root_number_recipe():
    m0 = AParam([ATerm(TRIV, 2, 1)], "symplectic")
    n0 = AParam([ATerm(ALPHA, 1, 1), ATerm(TABLE["beta"], 1, 1)], "orthogonal")
    t = SignTable(
        {("1", "alpha"): -1, ("1", "beta"): 1, ("alpha", "beta"): 1,
         ("alpha", "alpha"): 1, ("beta", "beta"): 1, ("1", "1"): 1},
        {"alpha": 1, "beta": 1},
    )
    out = predict_multiplicity(m0, n0, t)
    assert out["d"] == 1
    assert out["character"] == ggp_character(m0, n0, t)


def test_predict_onedim_family_unique_partner():
    # the top chain against the shape of the restricted one-dimensional family
    n = 3
    m = ap(f"1:D1:A{2*n}", "symplectic")
    partner = parse_param(f"beta:D1:A1 + 1:D1:A{2*n-1}", TABLE, "orthogonal")
    out = predict_multiplicity(m, partner, SignTable({("1", "beta"): 1, ("1", "1"): 1}))
    assert out["d"] == 1
    # and it is the unique relevant partner of this dimension over {1, beta}
    from aparam.repcore import SymbolTable, WeilSymbol, enumerate_params

    st = SymbolTable([WeilSymbol("beta", 1, "orthogonal", "beta")])

    def det_is_beta(q):
        # determinant character: beta to the total exponent of beta-factors
        return sum(t.d_dim * t.a_dim * t.mult for t in q.terms if t.weil.id == "beta") % 2 == 1

    hits = [
        q
        for q in enumerate_params(2 * n, st, "orthogonal", max_mult=1)
        if q.is_discrete() and det_is_beta(q) and is_relevant(m, q)
    ]
    assert hits == [parse_param(f"beta:D1:A1 + 1:D1:A{2*n-1}", st, "orthogonal")]


def test_arthur_character_single_special_pair():
    m, n, t = single_pair(-1)
    c = arthur_character(m, n, t)
    # every restricted product sees exactly the one cross pair: the I-row sits
    # below the J-row on the first side (1 < 2) and above it on the second
    # (2 > 1), so all four basis values equal the declared -1
    assert dict(c.values) == {
        ("M", "rho2", 1, 1): -1,
        ("M", "alpha", 1, 2): -1,
        ("N", "rho2", 1, 2): -1,
        ("N", "alpha", 1, 1): -1,
    }
