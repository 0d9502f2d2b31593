"""Shared symbol tables, random-pair generators and independent oracles."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from aparam.repcore import (
    AParam,
    ATerm,
    AparamError,
    BudgetError,
    NotDiscreteError,
    ParityError,
    ShapeError,
    SymbolTable,
    WeilSymbol,
    alt2_sl2,
    clebsch_gordan,
    delta_map,
    sym2_sl2,
    validate_parity,
    CONJ_ORTH,
    CONJ_SYMPL,
    ORTH,
    SYMPL,
    _SIGN,
)
from aparam.chars import SignTable
from aparam.globlfun import CuspSymbol, OrderExpr, _row_order


def build_table() -> SymbolTable:
    return SymbolTable(
        [
            WeilSymbol("alpha", 1, "orthogonal", "alpha"),
            WeilSymbol("beta", 1, "orthogonal", "beta"),
            WeilSymbol("rho2", 2, "symplectic", "rho2"),
            WeilSymbol("sig2", 2, "orthogonal", "sig2"),
            WeilSymbol("chi", 1, "none", "chid"),
            WeilSymbol("tau2", 2, "none", "tau2d"),
            WeilSymbol("crho", 2, "conjugate-symplectic", "crho"),
            WeilSymbol("csig", 1, "conjugate-orthogonal", "csig"),
        ]
    )


TABLE = build_table()
SELFDUAL_ORTH = [TABLE["1"], TABLE["alpha"], TABLE["beta"], TABLE["sig2"]]
SELFDUAL_SYMPL = [TABLE["rho2"]]
GL_SYMBOLS = [TABLE["1"], TABLE["alpha"], TABLE["rho2"], TABLE["chi"], TABLE["chid"], TABLE["tau2"]]


def rand_relevant_gl(
    rng: random.Random,
    max_labels: int = 5,
    max_dim: int = 20,
    max_mult: int = 3,
    deligne_trivial: bool = False,
):
    """A random relevant gl pair built from explicit per-label splittings."""
    while True:
        terms_m, terms_n = [], []
        for _ in range(rng.randint(1, max_labels)):
            sym = rng.choice(GL_SYMBOLS)
            d = 1 if deligne_trivial else rng.choice((1, 1, 2, 3))
            depth = rng.randint(1, 4)
            mc: dict[int, int] = {}
            nc: dict[int, int] = {}
            for i in range(depth):
                plus_m = rng.randint(0, max_mult - 1)
                plus_n = rng.randint(0, max_mult - 1)
                mc[i] = mc.get(i, 0) + plus_m
                nc[i + 1] = nc.get(i + 1, 0) + plus_m
                nc[i] = nc.get(i, 0) + plus_n
                mc[i + 1] = mc.get(i + 1, 0) + plus_n
            mc[0] = mc.get(0, 0) + rng.randint(0, max_mult - 1)
            nc[0] = nc.get(0, 0) + rng.randint(0, max_mult - 1)
            for i, c in mc.items():
                if c:
                    terms_m.append(ATerm(sym, d, i + 1, min(c, max_mult)))
            for i, c in nc.items():
                if c:
                    terms_n.append(ATerm(sym, d, i + 1, min(c, max_mult)))
        m = AParam(terms_m, "gl")
        n = AParam(terms_n, "gl")
        if m.dim <= max_dim and n.dim <= max_dim and not m.is_empty() and not n.is_empty():
            # clamping multiplicities can break the splitting; re-check
            from aparam.relevance import is_relevant

            if is_relevant(m, n):
                return m, n


def rand_discrete_pair(rng: random.Random, max_arthur: int = 11):
    """A random relevant discrete (symplectic, orthogonal) Deligne-trivial pair."""
    while True:
        terms_m, terms_n = [], []
        pool = SELFDUAL_ORTH + SELFDUAL_SYMPL
        for sym in rng.sample(pool, rng.randint(1, len(pool))):
            sympl_sym = sym.duality == "symplectic"
            # in the symplectic parameter the Arthur dim is odd iff the symbol is symplectic
            want = 1 if sympl_sym else 0
            bvals = sorted(
                {b for b in (rng.randint(1, max_arthur) for _ in range(3)) if b % 2 == want},
                reverse=True,
            )
            rows = []
            for b in bvals:
                for _ in range(8):
                    bp = b + rng.choice((-1, 1))
                    if bp >= 0 and all(bp != r[1] for r in rows):
                        rows.append((b, bp))
                        break
            if rng.random() < 0.35:
                bfree = 1 if not sympl_sym else 2
                if all(bfree != r[1] for r in rows):
                    rows.append((0, bfree))
            for b, bp in rows:
                if b:
                    terms_m.append(ATerm(sym, 1, b, 1))
                if bp:
                    terms_n.append(ATerm(sym, 1, bp, 1))
        m = AParam(terms_m, "symplectic")
        n = AParam(terms_n, "orthogonal")
        if not m.is_empty() and not n.is_empty() and m.is_discrete() and n.is_discrete():
            from aparam.relevance import is_relevant

            if is_relevant(m, n):
                return m, n


def rand_mult_free_pair(rng: random.Random, max_arthur: int = 9):
    """A random multiplicity-free Deligne-trivial (symplectic, orthogonal) pair.

    No relevance constraint: both relevant and irrelevant pairs occur.
    """
    terms_m, terms_n = [], []
    pool = SELFDUAL_ORTH + SELFDUAL_SYMPL
    for sym in pool:
        sympl_sym = sym.duality == "symplectic"
        want_m = 1 if sympl_sym else 0
        for b in range(1, max_arthur + 1):
            if b % 2 == want_m and rng.random() < 0.22:
                terms_m.append(ATerm(sym, 1, b, 1))
            if b % 2 != want_m and rng.random() < 0.22:
                terms_n.append(ATerm(sym, 1, b, 1))
    m = AParam(terms_m, "symplectic")
    n = AParam(terms_n, "orthogonal")
    return m, n


def rand_sign_table(rng: random.Random, normalize_det_for=(), extra_ids=()):
    """Random epsilons and determinant signs over the shared table.

    Each parameter listed in ``normalize_det_for`` gets its total determinant
    sign at -1 forced to +1 (the split even orthogonal normalization under
    which the clean flip laws are stated).
    """
    ids = sorted({s.id for s in TABLE.symbols()} | set(extra_ids))
    eps = {}
    for i, x in enumerate(ids):
        for y in ids[i:]:
            if (x, y) != ("1", "1"):
                eps[(x, y)] = rng.choice((1, -1))
    det = {x: rng.choice((1, -1)) for x in ids if x != "1"}

    def detsign(p):
        v = 1
        for t in p.terms:
            if (t.d_dim * t.mult) % 2:
                v *= det.get(t.weil.id, 1)
        return v

    for p in normalize_det_for:
        if detsign(p) != 1:
            for t in p.terms:
                if (t.d_dim * t.mult) % 2 and t.weil.id != "1":
                    det[t.weil.id] = -det[t.weil.id]
                    break
        if detsign(p) != 1:
            return None
    return SignTable(eps, det)


# ---------------------------------------------------------------------------
# Block expansions: the oracle of ``lfun``'s pole-counting kernel.  A formal
# representation is a sum of blocks (token) (x) [a] (x) [b] where the token
# exposes only its dimension and the multiplicity of the trivial
# representation inside it; ``ord_oracle`` counts the poles of the blocks.


@dataclass(frozen=True, order=True)
class Token:
    """An inert Weil-group building block: Symbol, TensorPair, SymSquare or AltSquare."""

    kind: str  # "sym", "tensor", "sym2", "alt2"
    first: WeilSymbol
    second: WeilSymbol | None = None

    @property
    def dim(self) -> int:
        d = self.first.dim
        if self.kind == "sym":
            return d
        if self.kind == "tensor":
            return d * self.second.dim
        if self.kind == "sym2":
            return d * (d + 1) // 2
        if self.kind == "alt2":
            return d * (d - 1) // 2
        raise AparamError(f"unknown token kind {self.kind!r}")

    @property
    def trivial_mult(self) -> int:
        """Multiplicity of the trivial Weil representation inside the token."""
        if self.kind == "sym":
            return 1 if self.first.is_trivial else 0
        if self.kind == "tensor":
            return 1 if self.second.id == self.first.dual_id else 0
        if self.kind == "sym2":
            return 1 if self.first.duality in (ORTH, CONJ_ORTH) and self.first.selfdual else 0
        if self.kind == "alt2":
            return 1 if self.first.duality in (SYMPL, CONJ_SYMPL) and self.first.selfdual else 0
        raise AparamError(f"unknown token kind {self.kind!r}")

    def sort_key(self):
        return (self.kind, self.first.id, self.second.id if self.second else "")


def symbol_token(s: WeilSymbol) -> Token:
    return Token("sym", s)


def tensor_token(a: WeilSymbol, b: WeilSymbol) -> Token:
    return Token("tensor", a, b)


class FormalRep:
    """Canonically merged multiset of (token, d_dim, a_dim, mult) blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        merged: dict[tuple, int] = {}
        for tok, d, a, mult in blocks:
            if mult == 0 or tok.dim == 0:
                continue
            key = (tok, d, a)
            merged[key] = merged.get(key, 0) + mult
        out = tuple(
            (tok, d, a, m)
            for (tok, d, a), m in sorted(merged.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1], kv[0][2]))
        )
        object.__setattr__(self, "blocks", out)

    def __setattr__(self, *a):
        raise AttributeError("FormalRep is immutable")

    def __eq__(self, other):
        return isinstance(other, FormalRep) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __add__(self, other: "FormalRep") -> "FormalRep":
        return FormalRep(self.blocks + other.blocks)

    @property
    def dim(self) -> int:
        return sum(tok.dim * d * a * m for tok, d, a, m in self.blocks)


def to_formal(p: AParam) -> FormalRep:
    """View a parameter as a formal representation of Symbol blocks."""
    return FormalRep((symbol_token(t.weil), t.d_dim, t.a_dim, t.mult) for t in p.terms)


def tensor_formal(m: AParam, n: AParam) -> FormalRep:
    """Bilinear tensor expansion; symbols pair into inert TensorPair tokens."""
    blocks = []
    for t in m.terms:
        for u in n.terms:
            tok = tensor_token(t.weil, u.weil)
            for d in clebsch_gordan(t.d_dim, u.d_dim):
                for a in clebsch_gordan(t.a_dim, u.a_dim):
                    blocks.append((tok, d, a, t.mult * u.mult))
    return FormalRep(blocks)


def _square_single(weil: WeilSymbol, d_dim: int, a_dim: int, alt: bool):
    """Blocks of Sym^2 (alt=False) or Alt^2 (alt=True) of a single summand."""
    s_tok = Token("sym2", weil)
    a_tok = Token("alt2", weil)
    dd_s, dd_a = sym2_sl2(d_dim), alt2_sl2(d_dim)
    aa_s, aa_a = sym2_sl2(a_dim), alt2_sl2(a_dim)
    # Sym^2(rho (x) X (x) Y) groups by how many of the three factors are alternated.
    if not alt:
        combos = [(s_tok, dd_s, aa_s), (s_tok, dd_a, aa_a), (a_tok, dd_s, aa_a), (a_tok, dd_a, aa_s)]
    else:
        combos = [(a_tok, dd_s, aa_s), (a_tok, dd_a, aa_a), (s_tok, dd_s, aa_a), (s_tok, dd_a, aa_s)]
    blocks = []
    for tok, dds, aas in combos:
        if tok.dim == 0:
            continue
        for d in dds:
            for a in aas:
                blocks.append((tok, d, a, 1))
    return blocks


def _square_formal(p: AParam, alt: bool) -> FormalRep:
    blocks = []
    terms = p.terms
    for t in terms:
        single = _square_single(t.weil, t.d_dim, t.a_dim, alt)
        blocks.extend((tok, d, a, mult * t.mult) for tok, d, a, mult in single)
        pairs = t.mult * (t.mult - 1) // 2
        if pairs:
            tok = tensor_token(t.weil, t.weil)
            for d in clebsch_gordan(t.d_dim, t.d_dim):
                for a in clebsch_gordan(t.a_dim, t.a_dim):
                    blocks.append((tok, d, a, pairs))
    for i, t in enumerate(terms):
        for u in terms[i + 1 :]:
            tok = tensor_token(t.weil, u.weil)
            for d in clebsch_gordan(t.d_dim, u.d_dim):
                for a in clebsch_gordan(t.a_dim, u.a_dim):
                    blocks.append((tok, d, a, t.mult * u.mult))
    return FormalRep(blocks)


def sym2_formal(p: AParam) -> FormalRep:
    """Symmetric square, with Sym^2(V^c) = Sym^2(V)^c + (V(x)V)^(c choose 2) on repeats."""
    return _square_formal(p, alt=False)


def alt2_formal(p: AParam) -> FormalRep:
    """Exterior square of a formal sum."""
    return _square_formal(p, alt=True)


def ord_oracle(formal, s0) -> int:
    """Independent pole count: enumerate every L-factor shift explicitly."""
    s0 = Fraction(s0)
    total = 0
    for tok, a, b, mult in formal.blocks:
        tm = tok.trivial_mult
        if not tm:
            continue
        for q in range(b):
            shift = Fraction(a - 1, 2) + Fraction(b - 1 - 2 * q, 2)
            if s0 + shift == 0:
                total += tm * mult
    return total


def diagonal_block_order(v: CuspSymbol, dims: tuple[int, int]) -> OrderExpr:
    """Order contribution of one partnered row (V (x) [b], V (x) [b']); always zero.

    Checks the min-count bookkeeping of ``globlfun._row_order``: the poles
    of the tensor numerator match the poles of the two square factors exactly.
    """
    if not v.selfdual:
        raise AparamError("diagonal rows carry selfdual symbols")
    b, bp = dims
    if abs(b - bp) != 1:
        raise ShapeError("row dimensions must differ by one")
    sign = _SIGN.get(v.duality)
    if b and sign * (1 if b % 2 else -1) != -1:
        raise ParityError("first-side block must be symplectic")
    if bp and sign * (1 if bp % 2 else -1) != 1:
        raise ParityError("second-side block must be orthogonal")
    num, den = _row_order(v, b, bp, True)
    return OrderExpr.total(num) - OrderExpr.total(den)


def rand_classical_relevant(rng: random.Random, max_d: int = 3):
    """A random relevant discrete (symplectic, orthogonal) pair, mixed SL2 factors.

    Labels carry first-SL2 dimensions up to ``max_d``; per label only the
    parity-consistent chain indices survive, with relevance re-checked after
    the pruning.
    """
    from aparam.relevance import is_relevant
    from aparam.repcore import validate_parity

    pool = SELFDUAL_ORTH + SELFDUAL_SYMPL
    while True:
        terms_m, terms_n = [], []
        labels = set()
        for _ in range(rng.randint(1, 4)):
            sym = rng.choice(pool)
            d = rng.randint(1, max_d)
            if (sym, d) in labels:
                continue
            labels.add((sym, d))
            eff = (1 if sym.duality == "orthogonal" else -1) * (1 if d % 2 else -1)
            want = 1 if eff == -1 else 0  # arthur-dim parity on the first side
            mc, nc = {}, {}
            for i in range(rng.randint(1, 4)):
                pm, pn = rng.randint(0, 1), rng.randint(0, 1)
                mc[i] = mc.get(i, 0) + pm
                nc[i + 1] = nc.get(i + 1, 0) + pm
                nc[i] = nc.get(i, 0) + pn
                mc[i + 1] = mc.get(i + 1, 0) + pn
            mc[0] = mc.get(0, 0) + rng.randint(0, 1)
            nc[0] = nc.get(0, 0) + rng.randint(0, 1)
            for i, c in mc.items():
                if c and (i + 1) % 2 == want:
                    terms_m.append(ATerm(sym, d, i + 1, 1))
            for i, c in nc.items():
                if c and (i + 1) % 2 != want:
                    terms_n.append(ATerm(sym, d, i + 1, 1))
        m = AParam(terms_m, "symplectic")
        n = AParam(terms_n, "orthogonal")
        if m.is_empty() or n.is_empty():
            continue
        if validate_parity(m) or validate_parity(n):
            continue
        if is_relevant(m, n):
            return m, n


def c11_stream(rng: random.Random):
    """Endless corank-one gl pairs on the trivial and chi lines, padded with fresh lines.

    Occasional tempered Steinberg factors sit on fresh lines, so both
    branching hypotheses hold on every instance.
    """
    counter = [0]

    def fresh_pads(k):
        base = counter[0]
        counter[0] += k
        return [
            ATerm(WeilSymbol(f"q{base+i}", 1, "none", f"qd{base+i}"), 1, 1)
            for i in range(k)
        ]

    syms = [TABLE["1"], TABLE["chi"]]
    while True:
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
        # occasional tempered Steinberg factors on fresh lines (hypotheses hold)
        for terms in (terms_m, terms_n):
            if rng.random() < 0.3:
                terms.extend(
                    ATerm(f.weil, rng.randint(2, 3), 1) for f in fresh_pads(1)
                )
        m, n = AParam(terms_m, "gl"), AParam(terms_n, "gl")
        if m.dim <= n.dim:
            m = AParam(list(m.terms) + fresh_pads(n.dim + 1 - m.dim), "gl")
        elif m.dim > n.dim + 1:
            n = AParam(list(n.terms) + fresh_pads(m.dim - n.dim - 1), "gl")
        if m.dim != n.dim + 1:
            continue
        yield m, n


def walk_bucket(m, n) -> int:
    """log2 of the number of leaves of the larger per-copy derivative walk.

    A per-copy walk gives each Z-factor copy two choices and each copy of an
    L-factor of length d its d + 1 choices, so this counts the branches the
    walk in ``derivative_walk_oracle`` explores for a pair.
    """

    def leaves(p):
        count = 1
        for t in p.terms:
            count *= (2 if t.d_dim == 1 else t.d_dim + 1) ** t.mult
        return count

    return max(leaves(m), leaves(n)).bit_length() - 1


def derivative_walk_oracle(p, k: int, z_step: int) -> set:
    """Reference derivative walk: every factor copy chooses its steps on its own.

    z_step = -1 gives the k-th derivative's factor multisets (Z-factors
    twist -1/2, L-factors +j/2); z_step = +1 gives "dual, derive, dual"
    (Z-factors +1/2, L-factors -j/2).  Returns a set of GLProducts.
    """
    from aparam.glbranch import GLFactor, GLProduct

    half = Fraction(z_step, 2)
    results: set[tuple] = set()
    factors = list(p.factors)

    def walk(idx: int, remaining: int, acc: list):
        if idx == len(factors):
            if remaining == 0:
                results.add(tuple(sorted(acc, key=GLFactor.sort_key)))
            return
        f = factors[idx]
        r = f.line.dim
        if f.kind == "Z":
            walk(idx + 1, remaining, acc + [f])
            if remaining >= r:
                nf = [GLFactor("Z", f.line, f.length - 1, f.twist + half)] if f.length > 1 else []
                walk(idx + 1, remaining - r, acc + nf)
        else:
            for j in range(min(f.length, remaining // r) + 1):
                nf = (
                    [GLFactor("L", f.line, f.length - j, f.twist - j * half)]
                    if f.length - j > 0
                    else []
                )
                walk(idx + 1, remaining - j * r, acc + nf)

    if k >= 0:
        walk(0, k, [])
    return {GLProduct(t) for t in results}


def label_chains_oracle(m: AParam, n: AParam) -> dict:
    """The labels of m or n with their two chains, by a set union and a sort.

    The oracle of ``relevance._label_chains``, which merges the two
    parameters' sorted terms instead.
    """
    cm, cn = m.chains(), n.chains()
    out = {}
    for lab in sorted(set(cm) | set(cn), key=lambda L: (L[0].id, L[1])):
        out[lab] = (cm.get(lab, {}), cn.get(lab, {}))
    return out


def enumerate_params_walk(total_dim, symtab, parity="gl", max_mult=None, tempered_only=False):
    """Reference recursive walk for ``repcore.enumerate_params``: same universe,
    same order (multiplicities from the largest down, depth first)."""
    from aparam.repcore import _parity_matches

    universe = sorted(
        (sym, d, a)
        for sym in symtab.symbols()
        for d in range(1, total_dim // sym.dim + 1)
        for a in range(1, total_dim // (sym.dim * d) + 1)
        if not (tempered_only and a > 1)
        and (parity == "gl" or _parity_matches(sym, d, a, parity))
    )
    out = []

    def walk(idx: int, remaining: int, acc: list):
        if remaining == 0:
            out.append(AParam(acc, parity))
            return
        if idx == len(universe):
            return
        sym, d, a = universe[idx]
        unit = sym.dim * d * a
        top = remaining // unit if max_mult is None else min(remaining // unit, max_mult)
        for mult in range(top, -1, -1):
            walk(idx + 1, remaining - mult * unit, acc + [ATerm(sym, d, a, mult)] if mult else acc)

    walk(0, total_dim, [])
    return out


def character_oracle(m, n, table):
    """Reference loops for the three endoscopic sign computations.

    Returns ``(arthur, gg, automorphy)``: the Arthur character, the GG
    character and the automorphy dict (without the special-pair assertion),
    each family of each computed by its own hand-written restricted-product
    loop over the I-rows and J-rows.
    """
    from aparam.chars import CharacterAssignment, _row_eps
    from aparam.relevance import endoscopic_rows

    rows = endoscopic_rows(m, n)
    i_rows = [r for r in rows if r.in_i]
    j_rows = [r for r in rows if not r.in_i]

    def mkey(r):
        return ("M", r.weil.id, r.d_dim, r.m_dim)

    def nkey(r):
        return ("N", r.weil.id, r.d_dim, r.n_dim)

    arthur = {}
    for ri in i_rows:
        if ri.m_dim:
            val = 1
            for rj in j_rows:
                if ri.m_dim < rj.m_dim:
                    val *= _row_eps(ri, rj, table)
            arthur[mkey(ri)] = val
        if ri.n_dim:
            val = 1
            for rj in j_rows:
                if ri.n_dim > rj.n_dim:
                    val *= _row_eps(ri, rj, table)
            arthur[nkey(ri)] = val
    for rj in j_rows:
        if rj.m_dim:
            val = 1
            for ri in i_rows:
                if ri.m_dim < rj.m_dim:
                    val *= _row_eps(ri, rj, table)
            arthur[mkey(rj)] = val
        if rj.n_dim:
            val = 1
            for ri in i_rows:
                if ri.n_dim > rj.n_dim:
                    val *= _row_eps(ri, rj, table)
            arthur[nkey(rj)] = val

    gg = {}
    for ri in i_rows:
        if ri.m_dim:
            val = 1
            for rj in j_rows:
                val *= _row_eps(ri, rj, table)
            gg[mkey(ri)] = val
        if ri.n_dim:
            gg[nkey(ri)] = 1
    for rj in j_rows:
        if rj.m_dim:
            gg[mkey(rj)] = 1
        if rj.n_dim:
            val = 1
            for ri in i_rows:
                val *= _row_eps(ri, rj, table)
            gg[nkey(rj)] = val

    def prod(pairs):
        val = 1
        for ri, rj in pairs:
            val *= _row_eps(ri, rj, table)
        return val

    failed = []
    for ri in i_rows:
        if ri.m_dim and prod((ri, rj) for rj in j_rows if ri.m_dim > rj.m_dim) != 1:
            failed.append(f"first-side product at {ri.weil.id}:D{ri.d_dim} (I-row)")
        if ri.n_dim and prod((ri, rj) for rj in j_rows if ri.n_dim > rj.n_dim) != 1:
            failed.append(f"second-side product at {ri.weil.id}:D{ri.d_dim} (I-row)")
    for rj in j_rows:
        if rj.m_dim and prod((ri, rj) for ri in i_rows if ri.m_dim < rj.m_dim) != 1:
            failed.append(f"first-side product at {rj.weil.id}:D{rj.d_dim} (J-row)")
        if rj.n_dim and prod((ri, rj) for ri in i_rows if ri.n_dim < rj.n_dim) != 1:
            failed.append(f"second-side product at {rj.weil.id}:D{rj.d_dim} (J-row)")
    automorphy = {"automorphic": not failed, "failed_conditions": failed}
    return CharacterAssignment.of(arthur), CharacterAssignment.of(gg), automorphy


def alternation_oracle(m):
    """Reference alternation predicates by a signed union-find over chain links.

    Returns ``(characters, is_alternating)``: every character of the tempered
    discrete ``m`` alternating along each chain with bottoms at [2] pinned to
    -1, sorted, and the predicate on one character.
    """
    from aparam.chars import CharacterAssignment
    from aparam.repcore import AparamError

    have = {(t.weil.id, t.d_dim) for t in m.terms}
    forced = {key: -1 for key in have if key[1] == 2}
    links = [
        ((sid, d - 2), (sid, d)) for sid, d in have if d >= 3 and (sid, d - 2) in have
    ]

    def is_alternating(alpha):
        vals = {(k[1], k[2]): v for k, v in alpha.values}
        if set(vals) != have:
            raise AparamError("character domain does not match the summand set")
        if any(vals[k] != v for k, v in forced.items()):
            return False
        return all(vals[hi] == -vals[lo] for lo, hi in links)

    # relative sign of each key against its segment root
    parent = {k: k for k in have}
    rel = {k: +1 for k in have}

    def find(k):
        if parent[k] == k:
            return k, +1
        root, sign = find(parent[k])
        parent[k], rel[k] = root, sign * rel[k]
        return root, rel[k]

    for lo, hi in links:
        rlo, slo = find(lo)
        rhi, shi = find(hi)
        if rlo != rhi:
            # alpha(hi) = -alpha(lo)  =>  sign of rhi's root against rlo's
            parent[rhi], rel[rhi] = rlo, -slo * shi
    roots = sorted({find(k)[0] for k in have})
    pinned = {}
    for key, val in forced.items():
        root, sign = find(key)
        pinned[root] = val * sign  # value of the root itself
    free_roots = [r for r in roots if r not in pinned]
    out = []
    for mask in range(1 << len(free_roots)):
        root_val = dict(pinned)
        for bit, r in enumerate(free_roots):
            root_val[r] = +1 if (mask >> bit) & 1 == 0 else -1
        vals = {}
        for k in have:
            root, sign = find(k)
            vals[k] = root_val[root] * sign
        out.append(
            CharacterAssignment.of({("M", sid, d, 1): vals[(sid, d)] for sid, d in have})
        )
    return sorted(out, key=lambda c: c.values), is_alternating


def _inverse_cg_oracle(dims: tuple[int, ...], cap: list[int]) -> set[tuple[tuple[int, int], ...]]:
    """All multisets of (d, a) pairs whose Clebsch-Gordan dimensions tile ``dims``."""
    if not dims:
        return {()}
    cap[0] -= 1
    if cap[0] < 0:
        raise BudgetError("diagonal-class search budget exceeded")
    top = dims[0]
    rest = list(dims)
    out = set()
    for d in range(1, top + 1):
        a = top + 1 - d
        need = clebsch_gordan(d, a)
        pool = list(rest)
        ok = True
        for x in need:
            if x in pool:
                pool.remove(x)
            else:
                ok = False
                break
        if not ok:
            continue
        for tail in _inverse_cg_oracle(tuple(sorted(pool, reverse=True)), cap):
            out.add(tuple(sorted(((d, a),) + tail)))
    return out


def delta_class_oracle(m: AParam, bound: int = 100_000) -> list[AParam]:
    """The counting DP's oracle: every peel order, deduplicated in sets, then sorted.

    Parameters of the same parity and dimension with the same diagonal image.

    Works by tiling each symbol's diagonal-restriction dimensions by inverse
    Clebsch-Gordan pairs; parity-violating regroupings are discarded.  The
    input parameter is always part of its own class.
    """
    if m.parity != "gl" and not m.is_discrete():
        raise NotDiscreteError("diagonal-class search expects a discrete parameter")
    image = delta_map(m)
    per_symbol: dict[WeilSymbol, list[int]] = {}
    for t in image.terms:
        per_symbol.setdefault(t.weil, []).extend([t.d_dim] * t.mult)
    cap = [bound]
    sym_choices = []
    for sym in sorted(per_symbol, key=lambda s: s.id):
        dims = tuple(sorted(per_symbol[sym], reverse=True))
        tilings = _inverse_cg_oracle(dims, cap)
        sym_choices.append((sym, sorted(tilings)))
    results = set()
    def build(idx: int, acc: list[ATerm]):
        if len(results) > bound:
            raise BudgetError("diagonal-class search budget exceeded")
        if idx == len(sym_choices):
            cand = AParam(list(acc), m.parity)
            if m.parity == "gl" or not validate_parity(cand):
                results.add(cand)
            return
        sym, tilings = sym_choices[idx]
        for tiling in tilings:
            terms = [ATerm(sym, d, a, 1) for (d, a) in tiling]
            build(idx + 1, acc + terms)

    build(0, [])
    assert m in results
    # members that differ only in multiplicities are ordered by them: the
    # second sort is stable; two passes keep one key list alive at a time
    members = sorted(results, key=lambda p: tuple(t.mult for t in p.terms))
    members.sort(key=lambda p: tuple(t.sort_key() for t in p.terms))
    return members
