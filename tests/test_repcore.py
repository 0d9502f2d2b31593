import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aparam.repcore import (
    AParam,
    ATerm,
    AparamError,
    ParityError,
    ParseError,
    Partition,
    SymbolError,
    SymbolTable,
    WeilSymbol,
    a_to_l,
    clebsch_gordan,
    delta_map,
    dual_param,
    enumerate_params,
    parse_half,
    parse_param,
    plus_map,
    render_param,
    swap_sl2,
    validate_parity,
    venkatesh_partition,
)
from genutil import TABLE, GL_SYMBOLS


# ---------------------------------------------------------------------------
# symbols and tables


def test_trivial_symbol_constraints():
    with pytest.raises(SymbolError):
        WeilSymbol("1", 2, "orthogonal", "1", True)
    with pytest.raises(SymbolError):
        WeilSymbol("x", 1, "symplectic", "y")  # selfdual type with foreign dual


def test_table_involution_autocompletes():
    t = SymbolTable([WeilSymbol("chi", 1, "none", "chid")])
    assert "chid" in t
    assert t["chid"].dual_id == "chi"
    assert t["chi"].dual().id == "chid"


def test_table_rejects_broken_involution():
    with pytest.raises(SymbolError):
        SymbolTable(
            [
                WeilSymbol("a", 1, "none", "b"),
                WeilSymbol("b", 2, "none", "a"),  # dimension mismatch
            ]
        )


# ---------------------------------------------------------------------------
# parsing


def test_parse_spec_examples():
    p = parse_param("1:D1:A4", TABLE, "gl")
    assert p.dim == 4 and len(p.terms) == 1

    rho = SymbolTable([WeilSymbol("rho", 1, "orthogonal", "rho")])
    q = parse_param("rho:D2:A1 + rho:D1:A2", rho, "gl")
    assert q.dim == 4 and len(q.terms) == 2

    r = parse_param("1:D3:A4 + 1:D5:A4", TABLE, "symplectic")
    assert r.dim == 32


def test_parse_merges_and_roundtrips():
    p = parse_param("1:D1:A2 + 1:D1:A2 + 2*1:D1:A2", TABLE)
    assert p.terms[0].mult == 4
    assert parse_param(render_param(p), TABLE) == p


def test_parse_errors():
    with pytest.raises(SymbolError):
        parse_param("nosuch:D1:A1", TABLE)
    with pytest.raises(ParseError):
        parse_param("1:D0:A1", TABLE)
    with pytest.raises(ParityError):
        parse_param("1:D1:A2", TABLE, "orthogonal")


def test_parse_half_is_strict():
    for v in ("1/2", "0.5", " -3/2 ", Fraction(3, 2), 2, "4/2"):
        assert parse_half(v) == Fraction(v.strip() if isinstance(v, str) else v)
    # a float is an approximation of what was written, and is refused
    for v in (0.5, 1.0, "1/3", "abc", "1/0", "nan", None, [1]):
        with pytest.raises(ParseError):
            parse_half(v)


def test_parse_defaults():
    assert parse_param("alpha", TABLE) == parse_param("alpha:D1:A1", TABLE)
    assert parse_param("alpha:D2", TABLE) == parse_param("alpha:D2:A1", TABLE)
    assert parse_param("alpha:A3", TABLE) == parse_param("alpha:D1:A3", TABLE)


@st.composite
def aparams(draw):
    n = draw(st.integers(1, 4))
    terms = []
    for _ in range(n):
        sym = draw(st.sampled_from(GL_SYMBOLS))
        terms.append(
            ATerm(
                sym,
                draw(st.integers(1, 4)),
                draw(st.integers(1, 4)),
                draw(st.integers(1, 3)),
            )
        )
    return AParam(terms, "gl")


@settings(max_examples=80, deadline=None)
@given(aparams())
def test_render_parse_identity(p):
    assert parse_param(render_param(p), TABLE) == p


# ---------------------------------------------------------------------------
# Clebsch-Gordan


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40))
def test_clebsch_gordan_properties(a, b):
    cg = clebsch_gordan(a, b)
    assert cg == clebsch_gordan(b, a)
    assert len(cg) == min(a, b)
    assert sum(cg) == a * b
    assert all(x % 2 == (a + b - 1) % 2 for x in cg)


def test_clebsch_gordan_examples():
    assert clebsch_gordan(1, 7) == [7]
    assert clebsch_gordan(2, 3) == [4, 2]
    assert clebsch_gordan(4, 4) == [7, 5, 3, 1]


# ---------------------------------------------------------------------------
# structural maps


def test_a_to_l_examples():
    p = parse_param("1:D1:A2", TABLE)
    twists = sorted(t.twist for t in a_to_l(p).terms)
    assert twists == [Fraction(-1, 2), Fraction(1, 2)]

    p = parse_param("rho2:D2:A1", TABLE)
    lp = a_to_l(p)
    assert len(lp.terms) == 1 and lp.terms[0].twist == 0

    p = parse_param("1:D1:A3", TABLE)
    assert sorted(t.twist for t in a_to_l(p).terms) == [-1, 0, 1]


def test_delta_map_examples():
    p = parse_param("alpha:D2:A2", TABLE)
    assert render_param(delta_map(p)) == "alpha:D1:A1 + alpha:D3:A1"
    q = parse_param("alpha:D1:A1", TABLE)
    assert delta_map(q) == q


def test_delta_map_of_swapped_family():
    # every member of the two-chain family has the same diagonal image
    img = None
    for j_in_arthur in (set(), {1}, {2}, {1, 2}):
        terms = []
        for i in (1, 2):
            if i in j_in_arthur:
                terms.append(ATerm(TABLE["1"], 1, 2 * i))
            else:
                terms.append(ATerm(TABLE["1"], 2 * i, 1))
        p = AParam(terms, "symplectic")
        got = delta_map(p)
        img = img or got
        assert got == img
    assert render_param(img) == "1:D2:A1 + 1:D4:A1"


def test_dual_examples():
    p = parse_param("alpha:D2:A3", TABLE)
    assert dual_param(p) == p  # selfdual symbol
    q = parse_param("chi:D1:A1", TABLE)
    assert render_param(dual_param(q)) == "chid:D1:A1"


@settings(max_examples=60, deadline=None)
@given(aparams())
def test_structural_map_properties(p):
    assert dual_param(dual_param(p)) == p
    assert swap_sl2(swap_sl2(p)) == p
    assert a_to_l(p).dim == p.dim
    assert delta_map(p).dim == p.dim
    assert delta_map(swap_sl2(p)) == delta_map(p)
    assert plus_map(p).dim == p.dim + sum(t.mult * t.weil.dim * t.d_dim for t in p.terms)


# ---------------------------------------------------------------------------
# parity


def test_validate_parity_examples():
    ok = AParam([ATerm(TABLE["1"], 1, 2)], "symplectic")
    assert validate_parity(ok) == []
    bad = AParam([ATerm(TABLE["1"], 1, 2)], "orthogonal")
    assert len(validate_parity(bad)) == 1
    na = parse_param("1:D3:A3 + 1:D5:A5", TABLE, "orthogonal")
    assert validate_parity(na) == []


def test_conjugate_parities_behave_like_plain():
    p = AParam([ATerm(TABLE["crho"], 1, 1)], "conjugate-symplectic")
    assert validate_parity(p) == []
    q = AParam([ATerm(TABLE["crho"], 1, 2)], "conjugate-orthogonal")
    assert validate_parity(q) == []
    r = AParam([ATerm(TABLE["crho"], 1, 1)], "symplectic")
    assert len(validate_parity(r)) == 1  # conjugate type does not match plain parity


def test_discreteness():
    p = AParam([ATerm(TABLE["1"], 1, 2)], "symplectic")
    assert p.is_discrete()
    q = AParam([ATerm(TABLE["1"], 1, 2, 2)], "symplectic")
    assert not q.is_discrete()


# ---------------------------------------------------------------------------
# partitions


def test_venkatesh_examples():
    assert venkatesh_partition(Partition((7,))).parts == (6,)
    assert venkatesh_partition(Partition((1,) * 5)).parts == (1,) * 4
    assert venkatesh_partition(Partition((3, 1))).parts == (2, 1)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=6))
def test_venkatesh_properties(parts):
    p = Partition(tuple(sorted(parts, reverse=True)))
    if p.total < 2:
        return
    q = venkatesh_partition(p)
    assert q.total == p.total - 1
    assert all(q.parts[i] >= q.parts[i + 1] for i in range(len(q.parts) - 1))


def test_partition_validation():
    with pytest.raises(AparamError):
        Partition((1, 2))
    with pytest.raises(AparamError):
        Partition((2, 0))


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_params_counts():
    t = SymbolTable()
    # dimension 3 over the trivial symbol alone: partitions of the 3-cell grid
    got = sorted(render_param(p) for p in enumerate_params(3, t, "gl"))
    assert "1:D1:A3" in got and "3*1:D1:A1" in got and "1:D3:A1" in got
    assert len(got) == len(set(got))
    # every enumerated parameter has the requested dimension
    assert all(p.dim == 4 for p in enumerate_params(4, t, "gl"))


def test_enumerate_params_parity_filter():
    t = SymbolTable()
    for p in enumerate_params(4, t, "symplectic"):
        assert validate_parity(p) == []


def test_enumerate_params_order_matches_recursive_walk():
    from genutil import enumerate_params_walk

    cases = [(3, SymbolTable(), "gl", {}), (4, SymbolTable(), "gl", {}),
             (4, SymbolTable(), "symplectic", {})]
    cases += [(dim, TABLE, parity, kw) for parity in ("gl", "orthogonal", "conjugate-symplectic")
              for dim, kw in ((4, {}), (5, {"max_mult": 1}), (6, {"tempered_only": True}))]
    for dim, table, parity, kw in cases:
        got = list(enumerate_params(dim, table, parity, **kw))
        assert got == enumerate_params_walk(dim, table, parity, **kw), (dim, parity, kw)
    assert list(enumerate_params(0, TABLE, "gl")) == [AParam([], "gl")]


def test_a_to_l_twists_symmetric():
    rng = random.Random(50)
    for _ in range(40):
        terms = [
            ATerm(TABLE["1"], rng.randint(1, 3), rng.randint(1, 5), rng.randint(1, 2))
            for _ in range(rng.randint(1, 3))
        ]
        lp = a_to_l(AParam(terms, "gl"))
        per_label = {}
        for t in lp.terms:
            per_label.setdefault((t.weil.id, t.d_dim), []).extend([t.twist] * t.mult)
        for twists in per_label.values():
            assert sorted(twists) == sorted(-x for x in twists)


def test_package_exports_pinned():
    # removing a public name from aparam/__init__.py must be a deliberate edit here
    import types

    import aparam

    names = {
        k for k, v in vars(aparam).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert names == {
        "AParam", "ATerm", "AparamError", "BudgetError", "CharacterAssignment",
        "GLFactor", "GLProduct", "HypothesisViolated", "LParam",
        "NotDiscreteError", "NotRelevant", "NotRelevantError", "OrderExpr",
        "ParityError", "ParseError", "Partition", "RelevanceWitness", "ShapeError",
        "SignTable", "SignTableError", "SymbolError", "SymbolTable", "TRIVIAL",
        "WeilSymbol", "a_to_l", "alternating_characters",
        "arthur_character", "automorphy_test", "bessel_ratio_order",
        "brute_force_relevant", "check_relevant", "clebsch_gordan",
        "correlator_witness", "decide_gl_branching", "delta_class_search", "delta_map",
        "derivative_supports", "dual_param", "endoscopic_rows",
        "enumerate_params", "ep_identities", "eps_block", "factorization_check",
        "gg_global_character", "ggp_character", "ggp_chi", "gl_hom_formula_order",
        "gl_ratio_order", "global_block_order", "global_ratio_order", "is_alternating",
        "is_relevant", "ord_at", "parse_param", "parse_product", "plus_map",
        "predict_multiplicity", "product_from_aparam", "render_param", "special_pairs",
        "supercuspidal_support", "support", "support_match", "swap_sl2",
        "validate_parity", "venkatesh_partition",
        "without_gaps",
    }
