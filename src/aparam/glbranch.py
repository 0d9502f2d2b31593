"""Derivative and cuspidal-support engine for general-linear branching.

Products are multisets of factors along cuspidal lines: a Z-factor written
rho[d] (the unitary segment representation, trivial-line case written [d])
and an L-factor St_d[rho] (generalized Steinberg).  The engine works in the
Grothendieck group at the level of cuspidal supports; derivative steps
follow the two rules

    rho[d]   -> one full step only:   nu^(-1/2) rho[d-1]
    St_d[rho] -> j * dim(rho) steps:   nu^(j/2) St_(d-j)[rho]

and a product differentiates by distributing steps over its factors.

One walk does this for both the derivative and "dual, derive, dual" (the
two differ only in the sign of the twist change).  Inside it factors are
int tuples with doubled twists, equal factors are handled once per group
with their multiplicity, and a single pass returns the reachable factor
multisets for every step count up to a bound, as layers keyed by steps.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .repcore import (
    AParam,
    AparamError,
    ParseError,
    ShapeError,
    SymbolTable,
    WeilSymbol,
    parse_half,
)
from .relevance import check_relevant

__all__ = [
    "HypothesisViolated",
    "GLFactor",
    "GLProduct",
    "Z",
    "St",
    "support",
    "derivative_products",
    "derivative_supports",
    "support_match",
    "MatchResult",
    "factorization_check",
    "product_from_aparam",
    "decide_gl_branching",
    "parse_product",
]


class HypothesisViolated(AparamError):
    pass


@dataclass(frozen=True, order=True)
class GLFactor:
    """One factor: kind "Z" (segment/Speh line) or "L" (generalized Steinberg)."""

    kind: str
    line: WeilSymbol
    length: int
    twist: Fraction = Fraction(0)

    def __post_init__(self):
        if self.kind not in ("Z", "L"):
            raise AparamError(f"unknown factor kind {self.kind!r}")
        if self.length < 1:
            raise AparamError("factor length must be positive")
        if self.length == 1 and self.kind == "L":
            object.__setattr__(self, "kind", "Z")  # St[1] and [1] coincide
        object.__setattr__(self, "twist", parse_half(self.twist))

    @property
    def rank(self) -> int:
        return self.length * self.line.dim

    def sort_key(self):
        return (self.line.id, self.kind, self.length, self.twist)

    def __repr__(self):
        name = "Z" if self.kind == "Z" else "St"
        tw = f"@{self.twist}" if self.twist else ""
        line = f":{self.line.id}" if not self.line.is_trivial else ""
        return f"{name}{self.length}{tw}{line}"


def Z(length: int, twist=0, line: WeilSymbol | None = None) -> GLFactor:
    from .repcore import TRIVIAL

    return GLFactor("Z", line or TRIVIAL, length, parse_half(twist))


def St(length: int, twist=0, line: WeilSymbol | None = None) -> GLFactor:
    from .repcore import TRIVIAL

    return GLFactor("L", line or TRIVIAL, length, parse_half(twist))


class GLProduct:
    """Canonically sorted multiset of factors."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        object.__setattr__(
            self, "factors", tuple(sorted(factors, key=GLFactor.sort_key))
        )

    def __setattr__(self, *a):
        raise AttributeError("GLProduct is immutable")

    def __eq__(self, other):
        return isinstance(other, GLProduct) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return " x ".join(map(repr, self.factors)) if self.factors else "(empty)"

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)


def support(p: GLProduct) -> dict[str, Counter]:
    """Cuspidal support: per line, the multiset of half-integer exponents.

    The support of a twisted factor of length a is the a consecutive
    exponents centered at its twist, counted with multiplicity across
    factors; Z- and L-factors of equal segment have the same support.
    """
    out: dict[str, Counter] = {}
    for f in p.factors:
        line = out.setdefault(f.line.id, Counter())
        base = f.twist - Fraction(f.length - 1, 2)
        for k in range(f.length):
            line[base + k] += 1
    return {k: v for k, v in out.items() if v}


def _support_key(p: GLProduct):
    sup = support(p)
    return tuple(
        (line, tuple(sorted(sup[line].items()))) for line in sorted(sup)
    )


def _derivative_layers(factors, z_step: int, kmax: int) -> list[set[tuple]]:
    """Canonical factor multisets after k derivative steps, for every k <= kmax.

    Inside the walk a factor is the tuple (line id, kind, length, 2 * twist),
    ordered as GLFactor.sort_key, and a multiset is a sorted tuple of them;
    the layers are returned in this form.  z_step is the doubled twist
    change of a stepping Z-factor: -1 for the derivative, +1 for "dual,
    derive, dual", where an L-factor moves by -j * z_step.  Equal factors
    form one group, so c copies of a Z-factor offer c + 1 choices and c
    copies of an L-factor one multiset of j's each.  One pass over the
    groups keeps, per steps used so far, the set of partial multisets;
    layers[k] holds the multisets that use exactly k steps.
    """
    dims = {}
    groups = Counter()
    for f in factors:
        dims[f.line.id] = f.line.dim
        groups[(f.line.id, f.kind, f.length, int(2 * f.twist))] += 1
    layers = {0: {()}}
    for key, count in sorted(groups.items()):
        line, kind, length, tw2 = key
        r = dims[line]
        options = []  # (steps, factors left by the group)
        if kind == "Z":
            stepped = ((line, "Z", length - 1, tw2 + z_step),) if length > 1 else ()
            for s in range(count + 1):
                options.append((s * r, (key,) * (count - s) + stepped * s))
        else:
            for js in combinations_with_replacement(range(length + 1), count):
                left = tuple(
                    (line, "Z" if length - j == 1 else "L", length - j, tw2 - j * z_step)
                    for j in js
                    if j < length
                )
                options.append((sum(js) * r, left))
        nxt: dict[int, set[tuple]] = {}
        for used, partials in layers.items():
            for steps, left in options:
                k = used + steps
                if k > kmax:
                    continue
                bucket = nxt.setdefault(k, set())
                for q in partials:
                    bucket.add(tuple(sorted(q + left)))
        layers = nxt
    return [layers.get(k, set()) for k in range(kmax + 1)]


def derivative_products(p: GLProduct, k: int) -> set[GLProduct]:
    """All factor multisets reachable by distributing k derivative steps.

    Z-factors accept zero steps or one full step (rank dim(line), twist
    -1/2, length -1); L-factors accept j steps of rank dim(line) each with
    twist +j/2 and length -j.  Exhausted factors disappear.  This is layer
    k of the single grouped walk in ``_derivative_layers``, which holds
    twists as doubled ints; they become Fractions again only here.
    """
    if k < 0:
        return set()
    lines = {f.line.id: f.line for f in p.factors}
    return {
        GLProduct(
            GLFactor(kind, lines[line], length, Fraction(tw2, 2))
            for line, kind, length, tw2 in q
        )
        for q in _derivative_layers(p.factors, -1, k)[k]
    }


def derivative_supports(p: GLProduct, k: int) -> set:
    """Cuspidal supports of the composition factors of the k-th derivative."""
    return {_support_key(q) for q in derivative_products(p, k)}


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    pairs: tuple[tuple[GLFactor, GLFactor], ...] = ()
    witness: tuple[str, Fraction] | None = None  # (line, extremal exponent)


def _classify_for_match(v: GLProduct, w: GLProduct):
    """Split factors into the two template shapes, checking the hypotheses.

    First product: plain factors [a] at twist 0 and factors at positive
    twists e/2.  Second product: plain factors, factors at twist exactly
    1/2, and factors at negative twists -f/2.  L-factors are compared
    through their segments, so the kinds are ignored here.
    """
    va, vb = [], []
    for f in v.factors:
        if f.twist == 0:
            va.append(f)
        elif f.twist > 0:
            vb.append(f)
        else:
            raise HypothesisViolated(f"first product has a negative twist: {f!r}")
    wc, wd, wg = [], [], []
    for f in w.factors:
        if f.twist == 0:
            wc.append(f)
        elif f.twist == Fraction(1, 2):
            wd.append(f)
        elif f.twist < 0:
            wg.append(f)
        else:
            raise HypothesisViolated(f"second product has twist {f.twist} > 1/2: {f!r}")
    # hypothesis on the first product: a_i + 1 != b_j + e_j - 1 whenever e_j > 1
    for fa in va:
        for fb in vb:
            e = 2 * fb.twist
            if e > 1 and fa.line == fb.line and fa.length + 1 == fb.length + e - 1:
                raise HypothesisViolated(
                    f"length clash {fa!r} against {fb!r} on the first side"
                )
    # hypothesis on the second product: d_i + 1 != g_j + f_j
    for fd in wd:
        for fg in wg:
            fexp = -2 * fg.twist
            if fd.line == fg.line and fd.length + 1 == fg.length + fexp:
                raise HypothesisViolated(
                    f"length clash {fd!r} against {fg!r} on the second side"
                )
    return va, vb, wc, wd, wg


def support_match(v: GLProduct, w: GLProduct) -> MatchResult:
    """Decide support equality for the two template shapes and match factors.

    On equal supports the conclusions are asserted: every positive twist on
    the first side is exactly 1/2, the negatively twisted family on the
    second side is empty, and the factor multisets agree (the matching is
    the factor bijection).  On unequal supports the witness is the largest
    exponent present on exactly one side of some line.
    """
    _classify_for_match(v, w)
    sv, sw = support(v), support(w)
    if sv != sw:
        witness = None
        for line in sorted(set(sv) | set(sw)):
            diff = (sv.get(line, Counter()) - sw.get(line, Counter())) + (
                sw.get(line, Counter()) - sv.get(line, Counter())
            )
            if diff:
                x = max(diff)
                if witness is None or x > witness[1]:
                    witness = (line, x)
        return MatchResult(False, witness=witness)
    for f in v.factors:
        if f.twist not in (0, Fraction(1, 2)):
            raise AparamError(f"matched supports force twist 1/2, found {f!r}")
    for f in w.factors:
        if f.twist < 0:
            raise AparamError(f"matched supports force an empty negative family: {f!r}")
    lhs = Counter((f.line.id, f.length, f.twist) for f in v.factors)
    rhs = Counter((f.line.id, f.length, f.twist) for f in w.factors)
    if lhs != rhs:
        raise AparamError("equal supports with distinct factor multisets in template shape")
    pairs = []
    used = list(w.factors)
    for f in v.factors:
        for g in used:
            if (g.line.id, g.length, g.twist) == (f.line.id, f.length, f.twist):
                pairs.append((f, g))
                used.remove(g)
                break
    return MatchResult(True, pairs=tuple(pairs))


def factorization_check(v: GLProduct) -> tuple:
    """Canonical factor multiset for the irreducible mixed-product shape.

    Factors must sit at twists 0 or 1/2; two products are isomorphic exactly
    when their canonical lists coincide (segments and Steinbergs are prime).
    """
    for f in v.factors:
        if f.twist not in (0, Fraction(1, 2)):
            raise ShapeError(f"factor {f!r} is outside the comparison shape")
    return tuple((f.line.id, f.kind, f.length, f.twist) for f in v.factors)


# ---------------------------------------------------------------------------
# From parameters to products and the branching decision


def product_from_aparam(p: AParam) -> GLProduct:
    """Unitary product attached to a parameter whose summands have one trivial SL2.

    A summand with trivial first SL2 becomes a Z-factor (Speh line) of
    length a_dim; a summand with trivial second SL2 becomes an L-factor of
    length d_dim.
    """
    factors = []
    for t in p.terms:
        if t.d_dim > 1 and t.a_dim > 1:
            raise HypothesisViolated(
                f"summand {t.weil.id}:D{t.d_dim}:A{t.a_dim} has both SL2 factors nontrivial"
            )
        kind = "Z" if t.d_dim == 1 else "L"
        length = t.a_dim if t.d_dim == 1 else t.d_dim
        factors.extend([GLFactor(kind, t.weil, length)] * t.mult)
    return GLProduct(factors)


def _hypotheses(p: AParam) -> str | None:
    """Check the two branching-theorem hypotheses; return a violation note or None."""
    for t in p.terms:
        if t.d_dim > 1 and t.a_dim > 1:
            return f"summand {t.weil.id}:D{t.d_dim}:A{t.a_dim} has both SL2 factors nontrivial"
    present = {(t.weil.id, t.d_dim, t.a_dim) for t in p.terms}
    for sid, d, a in present:
        if d == 1 and a >= 2 and (sid, a, 1) in present:
            return f"summands {sid}:D1:A{a} and {sid}:D{a}:A1 both occur"
    return None


def decide_gl_branching(mA: AParam, nA: AParam) -> dict:
    """Branching decision for a corank-one gl pair, two ways.

    Under the two hypotheses (each summand kills one SL2 factor; no summand
    occurs with its two SL2 factors exchanged) the verdict equals relevance
    of the pair, and is recomputed independently by searching for a common
    composition factor of the half-twisted derivatives of the first product
    against the dualized derivatives of the second.  The two methods are
    asserted to agree.  Hypothesis failures return an inconclusive report
    naming the violating summand.
    """
    if mA.parity != "gl" or nA.parity != "gl":
        raise AparamError("branching decision is a gl operation")
    if mA.dim != nA.dim + 1:
        raise AparamError("dimensions must differ by exactly one")
    for p, name in ((mA, "first"), (nA, "second")):
        note = _hypotheses(p)
        if note:
            return {"inconclusive": True, "reason": f"{name} parameter: {note}"}
    rel = check_relevant(mA, nA)
    # j + 1 derivative steps of the first product twisted by 1/2 (the walk
    # commutes with a uniform twist) against j steps of "dual, derive, dual"
    # on the second; the scan stops at the first j with a common multiset
    first = [
        GLFactor(f.kind, f.line, f.length, f.twist + Fraction(1, 2))
        for f in product_from_aparam(mA).factors
    ]
    firsts = _derivative_layers(first, -1, nA.dim + 1)
    seconds = _derivative_layers(product_from_aparam(nA).factors, 1, nA.dim)
    deriv = any(not seconds[j].isdisjoint(firsts[j + 1]) for j in range(nA.dim + 1))
    if deriv != rel.relevant:
        raise AparamError(
            "derivative procedure disagrees with the relevance verdict"
        )
    return {"inconclusive": False, "hom_nonzero": bool(rel.relevant)}


# ---------------------------------------------------------------------------
# Tiny product grammar:  factor := ("Z"|"St") length ["@" twist] [":" line-id],
# factors joined by "x".

_FACTOR_RE = re.compile(
    r"^(?P<kind>Z|St)(?P<len>\d+)(?:@(?P<twist>[-0-9/.]+))?(?::(?P<line>[^\s]+))?$"
)


def parse_product(text: str, symtab: SymbolTable | None = None) -> GLProduct:
    """Parse expressions like 'St2 x Z2@0.5' or 'Z3@1/2:rho x Z1'."""
    symtab = symtab or SymbolTable()
    factors = []
    text = text.strip()
    if not text:
        return GLProduct([])
    for chunk in re.split(r"\s*x\s*", text):
        m = _FACTOR_RE.match(chunk.strip())
        if not m:
            raise ParseError(f"cannot parse factor {chunk!r}")
        kind = "Z" if m.group("kind") == "Z" else "L"
        line = symtab[m.group("line")] if m.group("line") else symtab["1"]
        twist = parse_half(m.group("twist")) if m.group("twist") else Fraction(0)
        factors.append(GLFactor(kind, line, int(m.group("len")), twist))
    return GLProduct(factors)
