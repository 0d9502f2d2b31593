import random
from fractions import Fraction

import pytest

from aparam.repcore import AParam, ATerm, AparamError, NotDiscreteError, ParityError, parse_param
from aparam.globlfun import (
    OrderExpr,
    global_block_order,
    global_ratio_order,
    z_key,
)
from aparam.relevance import NotRelevantError, special_pairs
from genutil import TABLE, diagonal_block_order, rand_discrete_pair

V = TABLE["rho2"]  # symplectic
W = TABLE["alpha"]  # orthogonal
CHI = TABLE["chi"]  # non-selfdual, dual chid


def test_order_expr_algebra():
    a = OrderExpr.of(1, {("a", "b"): -1})
    b = OrderExpr.of(-1, {("a", "b"): 1})
    assert (a + b) == OrderExpr.of(0)
    assert a.render() == "1 - z(a,b)"
    assert a.scale(2).render() == "2 - 2*z(a,b)"
    assert a.substitute({("a", "b"): 3}) == -2
    with pytest.raises(AparamError):
        a.substitute({})


def test_block_rules_half_shift():
    # pole: even nonzero block on a dual pair, simple
    assert global_block_order(V, V, 2, Fraction(1, 2)) == OrderExpr.of(1)
    assert global_block_order(V, V, 6, Fraction(1, 2)) == OrderExpr.of(1)
    # non-dual pair: no pole
    assert global_block_order(V, W, 2, Fraction(1, 2)) == OrderExpr.of(0)
    # odd block: central zero
    assert global_block_order(V, W, 1, Fraction(1, 2)) == OrderExpr.of(
        0, {z_key(V, W): -1}
    )
    # empty block
    assert global_block_order(V, V, 0, Fraction(1, 2)) == OrderExpr.of(0)


def test_block_rules_full_shift():
    assert global_block_order(V, V, 1, 1) == OrderExpr.of(1)
    assert global_block_order(V, V, 3, 1) == OrderExpr.of(1)
    assert global_block_order(V, W, 3, 1) == OrderExpr.of(0)
    assert global_block_order(V, W, 2, 1) == OrderExpr.of(0, {z_key(V, W): -1})
    # the dual test uses the declared involution, not selfduality
    assert global_block_order(CHI, TABLE["chid"], 2, Fraction(1, 2)) == OrderExpr.of(1)
    assert global_block_order(CHI, CHI, 2, Fraction(1, 2)) == OrderExpr.of(0)


def test_diagonal_blocks_vanish():
    for b in range(0, 9):
        for eps in (-1, 1):
            bp = b + eps
            if bp < 0:
                continue
            for sym in (V, W):
                sgn = -1 if sym.duality == "symplectic" else 1
                ok_b = b == 0 or sgn * (1 if b % 2 else -1) == -1
                ok_bp = bp == 0 or sgn * (1 if bp % 2 else -1) == 1
                if not (ok_b and ok_bp):
                    continue
                assert diagonal_block_order(sym, (b, bp)) == OrderExpr.of(0)


def test_single_special_pair_expression():
    m = AParam([ATerm(V, 1, 1), ATerm(W, 1, 2)], "symplectic")
    n = AParam([ATerm(V, 1, 2), ATerm(W, 1, 1)], "orthogonal")
    expr = global_ratio_order(m, n)
    assert expr == OrderExpr.of(0, {z_key(V, W): -1})


def test_global_ratio_requires_relevance():
    m = AParam([ATerm(TABLE["1"], 1, 4)], "symplectic")
    n = AParam([ATerm(TABLE["1"], 1, 1)], "orthogonal")
    with pytest.raises(NotRelevantError):
        global_ratio_order(m, n)


def test_global_ratio_requires_arthur_only():
    m = AParam([ATerm(TABLE["1"], 2, 1)], "symplectic")
    n = AParam([ATerm(TABLE["1"], 1, 1)], "orthogonal")
    with pytest.raises(AparamError):
        global_ratio_order(m, n)


def test_global_ratio_randomized_matches_special_pairs():
    rng = random.Random(21)
    for _ in range(120):
        m, n = rand_discrete_pair(rng)
        expr = global_ratio_order(m, n)
        assert expr.const == 0
        want = {}
        for sp in special_pairs(m, n):
            key = z_key(sp.i_row.weil, sp.j_row.weil)
            want[key] = want.get(key, 0) - 1
        assert expr == OrderExpr.of(0, want)
        # substituting nonvanishing central values gives a finite nonzero ratio
        assert expr.substitute({k: 0 for k, _ in expr.zs}) == 0


def test_global_ratio_swap_symmetry():
    rng = random.Random(22)
    for _ in range(40):
        m, n = rand_discrete_pair(rng)
        assert global_ratio_order(m, n) == global_ratio_order(n, m)


def test_parity_preconditions():
    m = AParam([ATerm(V, 1, 1)], "symplectic")
    with pytest.raises(ParityError):
        global_ratio_order(m, m)


@pytest.mark.parametrize(
    "m_text, m_parity, n_text, n_parity, error",
    [
        ("1:D1:A2", "gl", "1:D1:A1", "orthogonal", ParityError),
        ("1:D1:A2", "symplectic", "1:D1:A2", "symplectic", ParityError),
        ("1:D2:A1", "symplectic", "1:D1:A1", "orthogonal", AparamError),
        ("2*1:D1:A2", "symplectic", "1:D1:A1 + 1:D1:A3", "orthogonal", NotDiscreteError),
        ("1:D1:A4", "symplectic", "1:D1:A1", "orthogonal", NotRelevantError),
    ],
    ids=["gl-parity", "same-sign", "deligne-factor", "not-discrete", "not-relevant"],
)
@pytest.mark.parametrize("swap", [False, True], ids=["mn", "nm"])
def test_global_ratio_single_precondition(m_text, m_parity, n_text, n_parity, error, swap):
    # each pair breaks exactly one precondition; the exact class is pinned
    m = parse_param(m_text, TABLE, m_parity)
    n = parse_param(n_text, TABLE, n_parity)
    with pytest.raises(AparamError) as exc:
        global_ratio_order(*((n, m) if swap else (m, n)))
    assert type(exc.value) is error
