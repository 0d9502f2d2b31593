"""Core symbolic objects: Weil symbols, formal parameter sums, and structural maps.

A parameter is a formal nonnegative-integer combination of triples
(symbol, d, a) standing for rho (x) [d] (x) [a], where [m] is the
m-dimensional irreducible SL2 representation, the first SL2 factor is the
one inside the Weil-Deligne group and the second is the extra one carried
by an Arthur parameter.  Everything here is exact: half-integers are
fractions with denominator at most 2, and symbols are inert (a product of
two symbols is never expanded; only its trivial-constituent multiplicity
is ever used).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "AparamError",
    "ParseError",
    "SymbolError",
    "ParityError",
    "NotDiscreteError",
    "ShapeError",
    "BudgetError",
    "ORTH",
    "SYMPL",
    "DUALITIES",
    "PARITIES",
    "WeilSymbol",
    "SymbolTable",
    "TRIVIAL",
    "ATerm",
    "AParam",
    "LTerm",
    "LParam",
    "Partition",
    "sl2_sign",
    "composite_sign",
    "clebsch_gordan",
    "sym2_sl2",
    "alt2_sl2",
    "a_to_l",
    "delta_map",
    "dual_param",
    "swap_sl2",
    "plus_map",
    "validate_parity",
    "venkatesh_partition",
    "parse_param",
    "render_param",
    "fmt_half",
    "parse_half",
]


class AparamError(ValueError):
    """Base class for all errors raised by this package."""


class ParseError(AparamError):
    pass


class SymbolError(AparamError):
    pass


class ParityError(AparamError):
    pass


class NotDiscreteError(AparamError):
    pass


class ShapeError(AparamError):
    pass


class BudgetError(AparamError):
    """An enumeration or search exceeded its declared budget."""


def read_field(rec, key: str, kind: type, default=None):
    """``rec[key]`` from a JSON input object, or ``default`` when the key is absent.

    ParseError when ``rec`` is no object, when the key is absent and there is
    no default, or when the value is not exactly of type ``kind`` (so neither
    ``true`` nor ``2.5`` is an ``int``).
    """
    if not isinstance(rec, dict):
        raise ParseError(f"expected a JSON object, got {json.dumps(rec, default=str)}")
    if key not in rec and default is None:
        raise ParseError(f"missing field {key!r} in {json.dumps(rec, default=str)}")
    val = rec.get(key, default)
    if type(val) is not kind:
        got = json.dumps(val, default=str)
        raise ParseError(f"field {key!r} must be {kind.__name__}, got {got}")
    return val


ORTH = "orthogonal"
SYMPL = "symplectic"
CONJ_ORTH = "conjugate-orthogonal"
CONJ_SYMPL = "conjugate-symplectic"
NONE = "none"

DUALITIES = (ORTH, SYMPL, CONJ_ORTH, CONJ_SYMPL, NONE)
PARITIES = ("gl", SYMPL, ORTH, CONJ_ORTH, CONJ_SYMPL)

_SIGN = {ORTH: +1, SYMPL: -1, CONJ_ORTH: +1, CONJ_SYMPL: -1}


@dataclass(frozen=True, order=True)
class WeilSymbol:
    """An inert irreducible bounded Weil-group representation.

    ``duality`` declares the selfduality type; ``dual_id`` names the symbol
    representing the contragredient (equal to ``id`` exactly when the symbol
    is plainly selfdual).
    """

    id: str
    dim: int = 1
    duality: str = NONE
    dual_id: str = ""
    is_trivial: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise SymbolError(f"symbol {self.id!r} has non-positive dimension")
        if self.duality not in DUALITIES:
            raise SymbolError(f"symbol {self.id!r} has unknown duality {self.duality!r}")
        if not self.dual_id:
            object.__setattr__(self, "dual_id", self.id)
        if self.duality in (ORTH, SYMPL) and self.dual_id != self.id:
            raise SymbolError(f"selfdual symbol {self.id!r} must have dual_id == id")
        if self.is_trivial and (self.dim != 1 or self.duality != ORTH or self.dual_id != self.id):
            raise SymbolError("the trivial symbol must be 1-dimensional, orthogonal and selfdual")

    @property
    def selfdual(self) -> bool:
        return self.dual_id == self.id

    def dual(self) -> "WeilSymbol":
        """The symbol of the contragredient (dimension and duality type agree)."""
        if self.dual_id == self.id:
            return self
        return WeilSymbol(self.dual_id, self.dim, self.duality, self.id, False)

    def sign(self) -> int | None:
        """+1 for (conjugate-)orthogonal, -1 for (conjugate-)symplectic, None otherwise."""
        return _SIGN.get(self.duality)

    def __repr__(self):
        return f"WeilSymbol({self.id!r}, dim={self.dim}, {self.duality})"


TRIVIAL = WeilSymbol("1", 1, ORTH, "1", True)


class SymbolTable:
    """An immutable set of declared symbols, closed under the dual involution.

    The trivial symbol ``1`` is always present.
    """

    def __init__(self, symbols: list[WeilSymbol] | None = None):
        table: dict[str, WeilSymbol] = {"1": TRIVIAL}
        for s in symbols or []:
            if s.id in table and table[s.id] != s:
                raise SymbolError(f"symbol {s.id!r} declared twice with conflicting data")
            table[s.id] = s
        for s in list(table.values()):
            other = table.get(s.dual_id)
            if other is None:
                # auto-complete the dual partner
                other = s.dual()
                table[other.id] = other
            if other.dim != s.dim or other.duality != s.duality or other.dual_id != s.id:
                raise SymbolError(f"dual pair {s.id!r} / {s.dual_id!r} is not an involution")
        self._table = table

    def __getitem__(self, sid: str) -> WeilSymbol:
        try:
            return self._table[sid]
        except KeyError:
            raise SymbolError(f"undeclared symbol {sid!r}") from None

    def __contains__(self, sid: str) -> bool:
        return sid in self._table

    def __iter__(self):
        return iter(sorted(self._table))

    def symbols(self) -> list[WeilSymbol]:
        return [self._table[k] for k in sorted(self._table)]

    @classmethod
    def from_json(cls, data: dict | str) -> "SymbolTable":
        """Load from the JSON schema {"symbols": [{"id", "dim", "duality", "dual_id"}]}."""
        if isinstance(data, str):
            data = json.loads(data)
        syms = []
        for rec in read_field(data, "symbols", list, []):
            sid = read_field(rec, "id", str)
            syms.append(
                WeilSymbol(
                    sid,
                    read_field(rec, "dim", int, 1),
                    read_field(rec, "duality", str, NONE),
                    read_field(rec, "dual_id", str, sid),
                    read_field(rec, "is_trivial", bool, sid == "1"),
                )
            )
        return cls(syms)

    def to_json(self) -> dict:
        return {
            "symbols": [
                {"id": s.id, "dim": s.dim, "duality": s.duality, "dual_id": s.dual_id}
                for s in self.symbols()
                if not s.is_trivial
            ]
        }


def sl2_sign(m: int) -> int:
    """Duality sign of the m-dimensional SL2 irreducible: orthogonal for m odd."""
    return +1 if m % 2 == 1 else -1


@dataclass(frozen=True, order=True, slots=True)
class ATerm:
    """One summand rho (x) [d_dim] (x) [a_dim] with a positive multiplicity."""

    weil: WeilSymbol
    d_dim: int
    a_dim: int
    mult: int = 1

    def __post_init__(self):
        if self.d_dim < 1 or self.a_dim < 1:
            raise AparamError("SL2 dimensions must be positive")
        if self.mult < 1:
            raise AparamError("multiplicity must be positive")

    @property
    def dim(self) -> int:
        return self.mult * self.weil.dim * self.d_dim * self.a_dim

    @property
    def label(self) -> tuple[WeilSymbol, int]:
        """The WD-label (symbol, d_dim); chains are indexed by the Arthur factor."""
        return (self.weil, self.d_dim)

    def sort_key(self):
        return (self.weil.id, self.d_dim, self.a_dim)


def composite_sign(weil: WeilSymbol, d_dim: int, a_dim: int) -> tuple[int | None, bool]:
    """Duality of rho(x)[d](x)[a] as (sign, conjugate?); sign None when rho is not selfdual."""
    s = weil.sign()
    if s is None:
        return None, False
    conj = weil.duality in (CONJ_ORTH, CONJ_SYMPL)
    return s * sl2_sign(d_dim) * sl2_sign(a_dim), conj


def _parity_matches(weil: WeilSymbol, d_dim: int, a_dim: int, parity: str) -> bool:
    sign, conj = composite_sign(weil, d_dim, a_dim)
    if sign is None:
        return False
    want_conj = parity in (CONJ_ORTH, CONJ_SYMPL)
    want_sign = _SIGN[parity]
    return conj == want_conj and sign == want_sign


class AParam:
    """A canonically merged formal sum of ATerms, tagged with a parity.

    Terms are kept sorted by (symbol id, d_dim, a_dim) and merged, so equal
    parameters compare and render identically.  An input term that
    nothing merges with is kept as it is (ATerms are immutable), so callers
    that build many parameters can share their terms.
    """

    __slots__ = ("terms", "parity")

    def __init__(self, terms, parity: str = "gl"):
        if parity not in PARITIES:
            raise ParityError(f"unknown parity {parity!r}")
        merged: dict[tuple, ATerm] = {}
        for t in terms:
            key = t.sort_key()
            u = merged.get(key)
            merged[key] = t if u is None else ATerm(u.weil, u.d_dim, u.a_dim, u.mult + t.mult)
        object.__setattr__(self, "terms", tuple(merged[k] for k in sorted(merged)))
        object.__setattr__(self, "parity", parity)

    def __setattr__(self, *a):
        raise AttributeError("AParam is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, AParam)
            and self.terms == other.terms
            and self.parity == other.parity
        )

    def __hash__(self):
        return hash((self.terms, self.parity))

    def __repr__(self):
        return f"AParam({render_param(self)!r}, parity={self.parity!r})"

    @property
    def dim(self) -> int:
        return sum(t.dim for t in self.terms)

    def is_empty(self) -> bool:
        return not self.terms

    def is_tempered(self) -> bool:
        """True when the Arthur SL2 acts trivially on every summand."""
        return all(t.a_dim == 1 for t in self.terms)

    def is_deligne_trivial(self) -> bool:
        return all(t.d_dim == 1 for t in self.terms)

    def is_discrete(self) -> bool:
        """Multiplicity-free with every summand matching the declared parity."""
        if self.parity == "gl":
            return False
        return all(
            t.mult == 1 and _parity_matches(t.weil, t.d_dim, t.a_dim, self.parity)
            for t in self.terms
        )

    def chains(self) -> dict[tuple[WeilSymbol, int], dict[int, int]]:
        """Per WD-label, the map {arthur index i: multiplicity of label (x) [i+1]}."""
        out: dict[tuple[WeilSymbol, int], dict[int, int]] = {}
        for t in self.terms:
            out.setdefault(t.label, {})[t.a_dim - 1] = t.mult
        return out

    def with_parity(self, parity: str) -> "AParam":
        return AParam(self.terms, parity)

    def add(self, other: "AParam") -> "AParam":
        if other.parity != self.parity:
            raise ParityError("cannot add parameters of different parities")
        return AParam(self.terms + other.terms, self.parity)


@dataclass(frozen=True, order=True)
class LTerm:
    weil: WeilSymbol
    d_dim: int
    twist: Fraction
    mult: int = 1

    @property
    def dim(self) -> int:
        return self.mult * self.weil.dim * self.d_dim


class LParam:
    """An L-parameter: formal sum of half-integer twisted WD-labels."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        merged: dict[tuple, int] = {}
        for t in terms:
            key = (t.weil, t.d_dim, t.twist)
            merged[key] = merged.get(key, 0) + t.mult
        out = tuple(
            LTerm(w, d, tw, m)
            for (w, d, tw), m in sorted(merged.items(), key=lambda kv: (kv[0][0].id, kv[0][1], kv[0][2]))
        )
        object.__setattr__(self, "terms", out)

    def __setattr__(self, *a):
        raise AttributeError("LParam is immutable")

    def __eq__(self, other):
        return isinstance(other, LParam) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        bits = ", ".join(
            f"{t.mult}*({t.weil.id},{t.d_dim},{fmt_half(t.twist)})" for t in self.terms
        )
        return f"LParam[{bits}]"

    @property
    def dim(self) -> int:
        return sum(t.dim for t in self.terms)

    def dual(self) -> "LParam":
        return LParam(LTerm(t.weil.dual(), t.d_dim, -t.twist, t.mult) for t in self.terms)


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        p = tuple(self.parts)
        if any(x < 1 for x in p) or any(p[i] < p[i + 1] for i in range(len(p) - 1)):
            raise AparamError(f"{p} is not weakly decreasing with positive parts")
        object.__setattr__(self, "parts", p)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)


# ---------------------------------------------------------------------------
# SL2 combinatorics

def clebsch_gordan(a: int, b: int) -> list[int]:
    """Dimensions in [a] (x) [b] = [a+b-1] + [a+b-3] + ... + [|a-b|+1].

    The list has exactly min(a, b) entries and the dimensions add up to a*b.
    """
    if a < 1 or b < 1:
        raise AparamError("Clebsch-Gordan arguments must be positive")
    return list(range(a + b - 1, abs(a - b), -2))


def sym2_sl2(m: int) -> list[int]:
    """Dimensions in Sym^2[m] = [2m-1] + [2m-5] + ..."""
    return list(range(2 * m - 1, 0, -4))


def alt2_sl2(m: int) -> list[int]:
    """Dimensions in Alt^2[m] = [2m-3] + [2m-7] + ..."""
    return list(range(2 * m - 3, 0, -4))


# ---------------------------------------------------------------------------
# Structural maps

def a_to_l(p: AParam) -> LParam:
    """Expand the Arthur factor into half-integer twists.

    Each rho(x)[d](x)[b] contributes the twists (b-1-2q)/2 for q = 0..b-1.
    The total dimension is preserved.
    """
    terms = []
    for t in p.terms:
        for q in range(t.a_dim):
            terms.append(LTerm(t.weil, t.d_dim, Fraction(t.a_dim - 1 - 2 * q, 2), t.mult))
    return LParam(terms)


def delta_map(p: AParam) -> AParam:
    """Restrict to the diagonal SL2: rho(x)[a](x)[b] -> sum of rho(x)[a+b-1-2k](x)[1]."""
    terms = []
    for t in p.terms:
        for d in clebsch_gordan(t.d_dim, t.a_dim):
            terms.append(ATerm(t.weil, d, 1, t.mult))
    return AParam(terms, p.parity)


def dual_param(p: AParam) -> AParam:
    """Replace every symbol by its contragredient; an involution."""
    return AParam(
        (ATerm(t.weil.dual(), t.d_dim, t.a_dim, t.mult) for t in p.terms), p.parity
    )


def swap_sl2(p: AParam) -> AParam:
    """Exchange the two SL2 factors in every term; an involution."""
    return AParam(
        (ATerm(t.weil, t.a_dim, t.d_dim, t.mult) for t in p.terms), p.parity
    )


def plus_map(p: AParam) -> AParam:
    """Raise every Arthur dimension by one."""
    return AParam(
        (ATerm(t.weil, t.d_dim, t.a_dim + 1, t.mult) for t in p.terms), p.parity
    )


def validate_parity(p: AParam) -> list[ATerm]:
    """Terms whose composite duality does not match the declared parity (empty = valid)."""
    if p.parity == "gl":
        raise ParityError("parity validation requires a classical parity tag")
    return [t for t in p.terms if not _parity_matches(t.weil, t.d_dim, t.a_dim, p.parity)]


def venkatesh_partition(p: Partition) -> Partition:
    """One-step unipotent descent: drop a box from every row, then pad with 1's.

    Subtract 1 from every part, omit the parts that become 0, and append 1's
    until the total is one less than before.
    """
    n = p.total
    if n < 2:
        raise AparamError("descent needs total at least 2")
    parts = [x - 1 for x in p.parts if x > 1]
    parts += [1] * (n - 1 - sum(parts))
    return Partition(tuple(parts))


# ---------------------------------------------------------------------------
# Half-integer formatting

def fmt_half(x: Fraction | int) -> int | str:
    """Serialize a half-integer: integers as ints, else as 'p/2' strings."""
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    if x.denominator != 2:
        raise AparamError(f"{x} is not a half-integer")
    return f"{x.numerator}/2"


def parse_half(v) -> Fraction:
    """Accept Fractions, ints, and 'p/q' or exact decimal strings such as '0.5'.

    A float is refused with ParseError: inputs are exact, and a float holds
    a binary approximation of what was written.
    """
    if isinstance(v, Fraction):
        x = v
    elif isinstance(v, int):
        x = Fraction(v)
    elif isinstance(v, str):
        try:
            x = Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"cannot read half-integer from {v!r}") from None
    else:
        raise ParseError(f"cannot read half-integer from {v!r}")
    if x.denominator not in (1, 2):
        raise ParseError(f"{v!r} is not a half-integer")
    return x


# ---------------------------------------------------------------------------
# Parameter grammar:  sum of terms joined by "+";
# term := [mult "*"] symbol-id [":D" int] [":A" int]

_TERM_RE = re.compile(
    r"^(?:(?P<mult>\d+)\s*\*\s*)?(?P<sym>[^\s:*+]+)"
    r"(?::D(?P<d>\d+))?(?::A(?P<a>\d+))?$"
)


def parse_param(text: str, symtab: SymbolTable, parity: str = "gl") -> AParam:
    """Parse a parameter expression against a symbol table.

    Omitted :D / :A parts default to 1, so "rho", "rho:D2" and "rho:D2:A1"
    are all valid.  The result is canonically merged and round-trips through
    render_param.
    """
    text = text.strip()
    if not text or text == "0":
        return AParam([], parity)
    terms = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        m = _TERM_RE.match(chunk)
        if not m:
            raise ParseError(f"cannot parse term {chunk!r}")
        sym = symtab[m.group("sym")]
        d = int(m.group("d") or 1)
        a = int(m.group("a") or 1)
        mult = int(m.group("mult") or 1)
        if d < 1 or a < 1 or mult < 1:
            raise ParseError(f"non-positive dimension or multiplicity in {chunk!r}")
        terms.append(ATerm(sym, d, a, mult))
    p = AParam(terms, parity)
    if parity != "gl":
        bad = validate_parity(p)
        if bad:
            t = bad[0]
            raise ParityError(
                f"term {t.weil.id}:D{t.d_dim}:A{t.a_dim} does not have {parity} duality"
            )
    return p


def render_param(p: AParam) -> str:
    """Canonical text form; parse_param(render_param(p)) == p."""
    if not p.terms:
        return "0"
    bits = []
    for t in p.terms:
        head = f"{t.mult}*" if t.mult != 1 else ""
        bits.append(f"{head}{t.weil.id}:D{t.d_dim}:A{t.a_dim}")
    return " + ".join(bits)


def param_to_json(p: AParam) -> dict:
    return {
        "parity": p.parity,
        "terms": [
            {"weil": t.weil.id, "d": t.d_dim, "a": t.a_dim, "mult": t.mult}
            for t in p.terms
        ],
    }


def enumerate_params(
    total_dim: int,
    symtab: SymbolTable,
    parity: str = "gl",
    max_mult: int | None = None,
    tempered_only: bool = False,
):
    """Yield every canonical parameter of the given total dimension and parity.

    The term universe runs over all (symbol, d, a) triples fitting inside the
    dimension budget; for a classical parity only terms of matching composite
    duality are admitted.
    """
    if total_dim < 0:
        raise AparamError("dimension must be nonnegative")
    universe = []
    for sym in symtab.symbols():
        for d in range(1, total_dim // sym.dim + 1):
            amax = total_dim // (sym.dim * d)
            for a in range(1, amax + 1):
                if tempered_only and a > 1:
                    continue
                if parity != "gl" and not _parity_matches(sym, d, a, parity):
                    continue
                universe.append((sym, d, a))
    universe.sort(key=lambda t: (t[0].id, t[1], t[2]))

    # Depth first with an explicit stack (its depth is the size of the
    # universe): a frame [idx, remaining, mult] takes the universe's idx-th
    # term with multiplicities from the largest that fits down to 0, and
    # ``acc`` holds the terms of the frames with mult > 0.
    acc: list[ATerm] = []
    stack: list[list[int]] = []
    idx, remaining = 0, total_dim
    while True:
        if remaining and idx < len(universe):
            sym, d, a = universe[idx]
            mult = remaining // (sym.dim * d * a)
            stack.append([idx, remaining, mult if max_mult is None else min(mult, max_mult)])
        else:
            if remaining == 0:
                yield AParam(list(acc), parity)
            while stack and stack[-1][2] == 0:
                stack.pop()
            if not stack:
                return
            acc.pop()
            stack[-1][2] -= 1
        idx, remaining, mult = stack[-1]
        sym, d, a = universe[idx]
        if mult:
            acc.append(ATerm(sym, d, a, mult))
        idx, remaining = idx + 1, remaining - mult * sym.dim * d * a


def param_from_json(data: dict, symtab: SymbolTable) -> AParam:
    parity = read_field(data, "parity", str, "gl")
    if "expr" in data:
        return parse_param(read_field(data, "expr", str), symtab, parity)
    terms = []
    for rec in read_field(data, "terms", list, []):
        dims = [read_field(rec, k, int, 1) for k in ("d", "a", "mult")]
        terms.append(ATerm(symtab[read_field(rec, "weil", str)], *dims))
    p = AParam(terms, parity)
    if parity != "gl" and validate_parity(p):
        raise ParityError("parameter violates its declared parity")
    return p
