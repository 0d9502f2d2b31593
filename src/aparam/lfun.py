"""Local symbolic L-function calculus: pole orders at positive half-integers.

A block rho (x) [a] (x) [b] of a representation has the local factor

    L(s, rho (x) [a] (x) [b]) = prod_q L(s + (a-1)/2 + (b-1-2q)/2, rho),

q = 0..b-1, with the first SL2 factor contributing only its top exponent.
A block therefore has a pole at s0 exactly when rho contains the trivial
representation and s0 + (a+b)/2 - 1 is an integer in [0, b-1]; the pole is
simple per trivial constituent.

With s2 = 2 s0 that reads: a block [a] (x) [b] has a pole exactly when
s2 + a + b is even and a + s2 <= b.  Every order here counts by that rule
directly, in the one kernel ``_poles``.  ``ord_at`` applies it per summand
of a parameter.  The ratio orders (``gl_ratio_order``,
``bessel_ratio_order``, ``adjoint_order``) apply it per pair of summands: a
tensor of two summands, or a square of one, has its SL2 dimensions on
arithmetic progressions (step 2 for Clebsch-Gordan, step 4 for the SL2
squares), so the parity test is made once per pair of summands and the
number of b per a has a closed form.  Only summands, and pairs of
summands, whose symbol part holds the trivial representation are visited.
The block expansions themselves (tensor, symmetric and exterior squares)
live in the test suite's ``genutil``, as the oracle the counts are tested
against.
"""

from __future__ import annotations

from fractions import Fraction

from .repcore import (
    AParam,
    ATerm,
    AparamError,
    ParityError,
    parse_half,
    CONJ_ORTH,
    CONJ_SYMPL,
    ORTH,
    SYMPL,
)
from .relevance import NotRelevantError, check_relevant

__all__ = [
    "ord_at",
    "gl_ratio_order",
    "bessel_ratio_order",
    "adjoint_order",
    "gl_hom_formula_order",
]


# ---------------------------------------------------------------------------
# Pole counting without blocks.  ``s2`` is twice the evaluation point.


def _poles(a_top: int, na: int, b_top: int, nb: int, step: int, s2: int) -> int:
    """Blocks [a] (x) [b] with a pole at s2/2, for a and b running down from
    ``a_top`` and ``b_top`` in ``na`` and ``nb`` steps of ``step`` (even)."""
    if (s2 + a_top + b_top) % 2:
        return 0
    total = 0
    x = a_top - step * (na - 1) + s2  # smallest a first: a pole needs b >= a + s2
    for _ in range(na):
        if x > b_top:
            break
        total += min(nb, (b_top - x) // step + 1)
        x += step
    return total


def ord_at(p: AParam, s0: Fraction | int | str) -> int:
    """Order of the pole of the standard local L-factor of ``p`` at a
    positive half-integer, counted per summand.

    Only a summand on the trivial symbol holds the trivial representation.
    Local factors never vanish, so the result is always >= 0; zeros arise
    only when taking ratios.
    """
    s0 = parse_half(s0)
    if s0 <= 0:
        raise AparamError(f"evaluation point must be a positive half-integer, got {s0}")
    s2 = int(2 * s0)
    return sum(
        t.mult * _poles(t.d_dim, 1, t.a_dim, 1, 2, s2) for t in p.terms if t.weil.is_trivial
    )


def _cg_poles(t: ATerm, u: ATerm, s2: int) -> int:
    """Poles of the blocks of rho (x) ([t.d] (x) [u.d]) (x) ([t.a] (x) [u.a])."""
    return _poles(
        t.d_dim + u.d_dim - 1, min(t.d_dim, u.d_dim),
        t.a_dim + u.a_dim - 1, min(t.a_dim, u.a_dim), 2, s2,
    )


def _tensor_poles(m: AParam, n: AParam, s2: int, dual: bool = False) -> int:
    """Poles at s2/2 of the blocks of m (x) n, or of m (x) n* when ``dual``."""
    total = 0
    for t in m.terms:
        want = t.weil.id if dual else t.weil.dual_id
        for u in n.terms:
            if u.weil.id == want:
                total += t.mult * u.mult * _cg_poles(t, u, s2)
    return total


def _square_poles(p: AParam, alt: bool, s2: int) -> int:
    """Poles at s2/2 of the blocks of Alt^2 p if ``alt``, else of Sym^2 p."""
    total = 0
    terms = p.terms
    for i, t in enumerate(terms):
        w = t.weil
        if w.selfdual:
            # Sym^2 w holds the trivial representation when w is orthogonal,
            # Alt^2 w when w is symplectic (a line has Alt^2 w = 0: no block).
            orth, sympl = w.duality in (ORTH, CONJ_ORTH), w.duality in (SYMPL, CONJ_SYMPL)
            if orth or (sympl and w.dim > 1):
                d, a = t.d_dim, t.a_dim
                ds, da = (2 * d - 1, (d + 1) // 2), (2 * d - 3, d // 2)
                as_, aa = (2 * a - 1, (a + 1) // 2), (2 * a - 3, a // 2)
                # The two SL2 squares are of one kind exactly when the square
                # of w is of the kind of the whole square (an even number of
                # alternating factors in Sym^2, an odd one in Alt^2).
                if sympl == alt:
                    single = _poles(*ds, *as_, 4, s2) + _poles(*da, *aa, 4, s2)
                else:
                    single = _poles(*ds, *aa, 4, s2) + _poles(*da, *as_, 4, s2)
                total += t.mult * single
            total += t.mult * (t.mult - 1) // 2 * _cg_poles(t, t, s2)
        for u in terms[i + 1 :]:
            if u.weil.id == w.dual_id:
                total += t.mult * u.mult * _cg_poles(t, u, s2)
    return total


def _self_order(p: AParam) -> int:
    """A parameter's share of a ratio's denominator: its adjoint order at 1,
    or for gl the order of p (x) p* at 1."""
    if p.parity == "gl":
        return _tensor_poles(p, p, 2, dual=True)
    return adjoint_order(p)


def _cross_order(m: AParam, n: AParam) -> int:
    """A ratio's numerator: the order at 1/2 of m (x) n, or for gl of
    m (x) n* plus m* (x) n, which hold the trivial representation on the
    same pairs of summands."""
    if m.parity == "gl":
        return 2 * _tensor_poles(m, n, 1, dual=True)
    return _tensor_poles(m, n, 1)


# ---------------------------------------------------------------------------
# The two branching ratios.  Returned orders count poles positive and zeros
# negative, so "pole of order >= 0" reads as result >= 0.


def gl_ratio_order(m: AParam, n: AParam, detail: bool = False):
    """Signed order at s=0 of the general-linear branching ratio.

    Numerator: the two mixed tensor factors at the half shift.  Denominator:
    the two adjoint factors at the full shift.  With ``detail`` the result
    is (numerator, denominator, signed) as in ``bessel_ratio_order``.
    """
    if m.parity != "gl" or n.parity != "gl":
        raise ParityError("gl ratio needs two gl parameters")
    num = _cross_order(m, n)
    den = _self_order(m) + _self_order(n)
    if detail:
        return num, den, num - den
    return num - den


def adjoint_order(p: AParam) -> int:
    """Pole order at the full shift of the adjoint factor picked by parity."""
    if p.parity in (SYMPL, CONJ_SYMPL):
        return _square_poles(p, False, 2)
    if p.parity in (ORTH, CONJ_ORTH):
        return _square_poles(p, True, 2)
    raise ParityError("adjoint factor needs a classical parity")


def bessel_ratio_order(m: AParam, n: AParam, detail: bool = False):
    """Signed order at s=0 of the Bessel branching ratio for a classical pair.

    Numerator ord(m (x) n at 1/2) minus the two adjoint orders at 1.  For a
    relevant pair the result is >= 0; on multiplicity-free pairs with
    trivial first SL2 it is <= 0 with equality exactly at relevance.
    """
    if m.parity not in (SYMPL, CONJ_SYMPL):
        raise ParityError("first parameter must be (conjugate-)symplectic")
    if n.parity not in (ORTH, CONJ_ORTH):
        raise ParityError("second parameter must be (conjugate-)orthogonal")
    num = _cross_order(m, n)
    den = adjoint_order(m) + adjoint_order(n)
    if detail:
        return num, den, num - den
    return num - den


def gl_hom_formula_order(m: AParam, n: AParam) -> int:
    """Pole order at s=0 of the gl ratio, by hom-space counting from the witness.

    Only valid for relevant gl pairs with trivial first SL2.  Writing the
    chains 1-based (index = Arthur dimension) the order is

        sum_i  <M_i, N_{i-1}> + <M_i, N_{i+1}> - <M_i^+, N_{i-1}^-> - <M_i^-, N_{i+1}^+>
             + <M_1^+, M_1^-> + <N_1^+, N_1^->

    where <A, B> counts label matches with multiplicity and N_0 = N_0^- = 0.
    The two boundary products vanish whenever the bottom chain entries are
    multiplicity-free; without them the nearest-neighbour sum undercounts
    exactly by those terms (checked symbolically against the blockwise
    expansion on chains of depth 6).
    """
    if m.parity != "gl" or n.parity != "gl":
        raise ParityError("hom formula needs gl parameters")
    if not (m.is_deligne_trivial() and n.is_deligne_trivial()):
        raise AparamError("hom formula needs trivial first SL2")
    w = check_relevant(m, n)
    if not w:
        raise NotRelevantError(w)
    total = 0
    for _lab, lw in w.labels:
        size = len(lw.mplus)
        for i0 in range(size):  # 0-based; 1-based index is i0 + 1
            m_i = lw.m(i0)
            if not m_i:
                continue
            n_down = lw.n(i0 - 1) if i0 >= 1 else 0
            n_up = lw.n(i0 + 1)
            total += m_i * n_down + m_i * n_up
            # minus the linked parts: M_i^+ against N_{i-1}^- and M_i^- against N_{i+1}^+
            nm_down = lw.nminus[i0 - 1] if i0 >= 1 else 0
            np_up = lw.nplus[i0 + 1] if i0 + 1 < size else 0
            total -= lw.mplus[i0] * nm_down + lw.mminus[i0] * np_up
        if size:
            total += lw.mplus[0] * lw.mminus[0] + lw.nplus[0] * lw.nminus[0]
    return total
