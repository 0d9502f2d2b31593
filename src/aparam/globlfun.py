"""Global symbolic L-order calculus over cuspidal symbols.

Central vanishing orders are unknowns: z(A, B) >= 0 stands for the order of
the completed Rankin product of the cuspidal pair (A, B) at the center.
Pole bookkeeping follows the convention that L(A (x) B, s) has exactly one
pole, simple, at the edge s = 1, occurring iff B is the contragredient of
A; zeros at real points occur only at the center.  For a block
(A (x) B) (x) [d] evaluated after a shift this yields:

  shift 1/2:  pole +1 iff d even nonzero and B ~ A^dual;  zero -z(A,B) iff d odd
  shift 1:    pole +1 iff d odd and B ~ A^dual;           zero -z(A,B) iff d even nonzero

Symmetric and exterior squares of a selfdual cuspidal symbol carry a pole
marker instead of a dual test: Sym^2 poles for orthogonal symbols, Alt^2
for symplectic ones (conjugate types behave like their plain counterparts).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .repcore import (
    AParam,
    AparamError,
    ShapeError,
    WeilSymbol,
    alt2_sl2,
    clebsch_gordan,
    sym2_sl2,
    CONJ_ORTH,
    CONJ_SYMPL,
    ORTH,
    SYMPL,
)
from .relevance import endoscopic_rows

__all__ = [
    "OrderExpr",
    "z_key",
    "global_block_order",
    "square_block_order",
    "global_ratio_order",
]

CuspSymbol = WeilSymbol

HALF = Fraction(1, 2)
ONE = Fraction(1)


@dataclass(frozen=True)
class OrderExpr:
    """Integer constant plus an integer combination of central-order unknowns."""

    const: int = 0
    zs: tuple[tuple[tuple[str, str], int], ...] = ()

    @classmethod
    def of(cls, const: int = 0, zs: dict | None = None) -> "OrderExpr":
        clean = {k: v for k, v in (zs or {}).items() if v}
        return cls(const, tuple(sorted(clean.items())))

    @classmethod
    def total(cls, exprs) -> "OrderExpr":
        """The sum of an iterable of expressions, canonicalized once."""
        const, zs = 0, {}
        for e in exprs:
            const += e.const
            for k, v in e.zs:
                zs[k] = zs.get(k, 0) + v
        return cls.of(const, zs)

    def __add__(self, other: "OrderExpr") -> "OrderExpr":
        return OrderExpr.total((self, other))

    def __sub__(self, other: "OrderExpr") -> "OrderExpr":
        return self + other.scale(-1)

    def scale(self, c: int) -> "OrderExpr":
        return OrderExpr.of(self.const * c, {k: v * c for k, v in self.zs})

    def substitute(self, bindings: dict[tuple[str, str], int]) -> int:
        """Numeric value under nonnegative bindings for the unknowns."""
        total = self.const
        for k, v in self.zs:
            try:
                val = bindings[k]
            except KeyError:
                raise AparamError(f"no binding for unknown z{k}") from None
            if val < 0:
                raise AparamError("central orders must be nonnegative")
            total += v * val
        return total

    def render(self) -> str:
        bits = []
        if self.const or not self.zs:
            bits.append(str(self.const))
        for (a, b), v in self.zs:
            mag = f"{abs(v)}*" if abs(v) != 1 else ""
            bits.append(("- " if v < 0 else "+ ") + f"{mag}z({a},{b})")
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else text

    def __repr__(self):
        return f"OrderExpr({self.render()})"


def z_key(a: WeilSymbol | str, b: WeilSymbol | str) -> tuple[str, str]:
    a = a.id if isinstance(a, WeilSymbol) else a
    b = b.id if isinstance(b, WeilSymbol) else b
    return (a, b) if a <= b else (b, a)


def global_block_order(
    p1: CuspSymbol, p2: CuspSymbol, d: int, shift: Fraction | int | str
) -> OrderExpr:
    """Signed order at s=0 of the Rankin block (p1 (x) p2) (x) [d] after a shift."""
    shift = Fraction(shift)
    if shift not in (HALF, ONE):
        raise AparamError("shift must be 1/2 or 1")
    if d < 0:
        raise AparamError("block dimension must be nonnegative")
    if d == 0:
        return OrderExpr.of(0)
    dual = p2.id == p1.dual_id
    if shift == HALF:
        if d % 2 == 0:
            return OrderExpr.of(1 if dual else 0)
        return OrderExpr.of(0, {z_key(p1, p2): -1})
    if d % 2 == 1:
        return OrderExpr.of(1 if dual else 0)
    return OrderExpr.of(0, {z_key(p1, p2): -1})


def square_block_order(kind: str, p: CuspSymbol, d: int) -> OrderExpr:
    """Order at s=0, after the full shift, of (Sym^2 or Alt^2 of p) (x) [d].

    Only odd d can occur here (squares of SL2 irreducibles decompose into
    odd-dimensional pieces), so no central-value unknowns enter.
    """
    if d % 2 == 0:
        raise ShapeError("square blocks always carry odd SL2 dimensions")
    if kind == "sym2":
        marker = p.duality in (ORTH, CONJ_ORTH) and p.selfdual
    elif kind == "alt2":
        marker = p.duality in (SYMPL, CONJ_SYMPL) and p.selfdual
    else:
        raise AparamError(f"unknown square kind {kind!r}")
    return OrderExpr.of(1 if marker else 0)


def _cg_blocks(p1: CuspSymbol, p2: CuspSymbol, x: int, y: int, shift: Fraction) -> list[OrderExpr]:
    """Block orders of (p1 (x) [x]) (x) (p2 (x) [y]); none when a side is absent."""
    if not (x and y):
        return []
    return [global_block_order(p1, p2, d, shift) for d in clebsch_gordan(x, y)]


def _square_blocks(v: CuspSymbol, b: int, sympl: bool) -> list[OrderExpr]:
    """Block orders of the adjoint square of v (x) [b], Sym^2 on a symplectic side:

        Sym^2(rho (x) [b]) = Sym^2 rho (x) Sym^2[b] + Alt^2 rho (x) Alt^2[b]
        Alt^2(rho (x) [b]) = Sym^2 rho (x) Alt^2[b] + Alt^2 rho (x) Sym^2[b]
    """
    if not b:
        return []
    sym_dims, alt_dims = (sym2_sl2(b), alt2_sl2(b)) if sympl else (alt2_sl2(b), sym2_sl2(b))
    return [square_block_order("sym2", v, d) for d in sym_dims] + [
        square_block_order("alt2", v, d) for d in alt_dims
    ]


def _row_order(v: CuspSymbol, b: int, bp: int, first_sympl: bool):
    """Numerator (tensor) and denominator (squares) blocks of the row (V (x) [b], V (x) [b'])."""
    num = _cg_blocks(v, v, b, bp, HALF)
    den = _square_blocks(v, b, first_sympl) + _square_blocks(v, bp, not first_sympl)
    return num, den


def global_ratio_order(m: AParam, n: AParam) -> OrderExpr:
    """Canonicalized order at s=0 of the global branching ratio.

    The pair decomposes into partnered rows (V_a, W_a); the numerator is the
    blockwise expansion of sum V_a (x) W_b at the half shift and the
    denominator collects the diagonal squares and the cross tensors at the
    full shift.  For a relevant pair the constant term vanishes and the
    expression is minus the sum of central unknowns over special pairs.
    """
    if not (m.is_deligne_trivial() and n.is_deligne_trivial()):
        raise AparamError("global parameters carry only the second SL2 factor")
    rows = endoscopic_rows(m, n)
    first_sympl = m.parity in (SYMPL, CONJ_SYMPL)
    num, den = [], []
    for i, ra in enumerate(rows):
        row_num, row_den = _row_order(ra.weil, ra.m_dim, ra.n_dim, first_sympl)
        num += row_num
        den += row_den
        for rb in rows[i + 1 :]:
            num += _cg_blocks(ra.weil, rb.weil, ra.m_dim, rb.n_dim, HALF)
            num += _cg_blocks(rb.weil, ra.weil, rb.m_dim, ra.n_dim, HALF)
            den += _cg_blocks(ra.weil, rb.weil, ra.m_dim, rb.m_dim, ONE)
            den += _cg_blocks(ra.weil, rb.weil, ra.n_dim, rb.n_dim, ONE)
    return OrderExpr.total(num) - OrderExpr.total(den)
