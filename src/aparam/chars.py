"""Epsilon-factor sign calculus and component-group characters.

Base epsilon values eps(rho (x) tau) and determinant signs (det rho)(-1) are
user-declared in a SignTable; everything else is derived.  The building
block is

    eps(rho (x) [a] (x) tau (x) [b]) = eps(rho (x) tau)^(ab) * (-1)^(n(a,b) if rho ~ tau)

with n(a,b) = min(a,b) * (max(a,b) - 1), which specializes on the trivial
pair to eps([a] (x) [b]) = (-1)^(n(a,b)).  Inertia contributions of
nontrivial inert symbols are taken trivial by convention; only the trivial
symbol triggers the (-1)^(n-1) base case.

A basis element of the endoscopic characters sits on one row (an I-row, of
the first parameter's duality sign, or a J-row) and one side (M or N); its
value is the product of row epsilons over the other kind's rows, compared by
Arthur dimension on that side.  Arthur: an I-row takes those above it on M
and below it on N, a J-row the reverse.  GG: all of them on (I, M) and
(J, N), +1 on the other two.  Automorphy: those strictly below it, always.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from .repcore import (
    AParam,
    AparamError,
    CONJ_SYMPL,
    NotDiscreteError,
    ParityError,
    SYMPL,
    WeilSymbol,
    read_field,
    swap_sl2,
    _SIGN,
)
from .relevance import (
    EndoRow,
    RelevanceWitness,
    check_relevant,
    endoscopic_rows,
)

__all__ = [
    "SignTableError",
    "SignTable",
    "CharacterAssignment",
    "eps_block",
    "ggp_chi",
    "ggp_character",
    "without_gaps",
    "alternating_characters",
    "is_alternating",
    "supercuspidal_support",
    "swap_sl2",
    "arthur_character",
    "gg_global_character",
    "automorphy_test",
    "predict_multiplicity",
]


class SignTableError(AparamError):
    pass


class SignTable:
    """Declared base epsilon values and determinant signs.

    ``base_eps`` maps unordered pairs of symbol ids to +-1 and is forced to
    +1 on the trivial pair.  Absent entries raise rather than guess.
    """

    def __init__(self, base_eps: dict | None = None, det_m1: dict | None = None):
        self._eps: dict[tuple[str, str], int] = {("1", "1"): +1}
        for key, val in (base_eps or {}).items():
            a, b = key
            if val not in (1, -1):
                raise SignTableError(f"epsilon value for {key} must be +-1")
            if a == b == "1" and val != 1:
                raise SignTableError("the trivial pair has epsilon +1")
            self._eps[(a, b)] = val
            self._eps[(b, a)] = val
        self._det: dict[str, int] = {"1": +1}
        for sid, val in (det_m1 or {}).items():
            if val not in (1, -1):
                raise SignTableError(f"determinant sign for {sid!r} must be +-1")
            if sid == "1" and val != 1:
                raise SignTableError("the trivial symbol has determinant sign +1")
            self._det[sid] = val

    def eps(self, a: WeilSymbol | str, b: WeilSymbol | str) -> int:
        a = a.id if isinstance(a, WeilSymbol) else a
        b = b.id if isinstance(b, WeilSymbol) else b
        try:
            return self._eps[(a, b)]
        except KeyError:
            raise SignTableError(f"no declared epsilon for the pair ({a!r}, {b!r})") from None

    def det_m1(self, s: WeilSymbol | str) -> int:
        s = s.id if isinstance(s, WeilSymbol) else s
        try:
            return self._det[s]
        except KeyError:
            raise SignTableError(f"no declared determinant sign for {s!r}") from None

    @classmethod
    def from_json(cls, data: dict | str) -> "SignTable":
        """Schema: {"eps": [{"a", "b", "value"}], "detm1": [{"id", "value"}]}."""
        if isinstance(data, str):
            data = json.loads(data)
        eps, det = {}, {}
        for r in read_field(data, "eps", list, []):
            eps[(read_field(r, "a", str), read_field(r, "b", str))] = read_field(r, "value", int)
        for r in read_field(data, "detm1", list, []):
            det[read_field(r, "id", str)] = read_field(r, "value", int)
        return cls(eps, det)


BasisKey = tuple[str, str, int, int]  # (side, symbol id, d_dim, a_dim)


@dataclass(frozen=True)
class CharacterAssignment:
    """Signs on the canonical basis of a component group (or a product of two).

    Keys are (side, symbol id, d_dim, a_dim); side is "M" or "N".
    """

    values: tuple[tuple[BasisKey, int], ...]

    @classmethod
    def of(cls, mapping: dict) -> "CharacterAssignment":
        return cls(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict:
        return dict(self.values)

    def __getitem__(self, key):
        return dict(self.values)[key]

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def _n_ab(a: int, b: int) -> int:
    return min(a, b) * (max(a, b) - 1)


def eps_block(rho: WeilSymbol, a: int, tau: WeilSymbol, b: int, table: SignTable) -> int:
    """Epsilon of rho (x) [a] (x) tau (x) [b] for selfdual symbols."""
    if not rho.selfdual or not tau.selfdual:
        raise SignTableError("epsilon blocks are defined for selfdual symbols")
    base = table.eps(rho, tau)
    val = base if (a * b) % 2 else 1
    if rho.id == tau.id and _n_ab(a, b) % 2:
        val = -val
    return val


def ggp_chi(rho: WeilSymbol, a: int, n0: AParam, table: SignTable) -> int:
    """Distinguished-character value on the basis element rho (x) [a].

    chi(rho, a) = eps(rho (x) [a] (x) N0) * (det rho)(-1)^(a dim N0 / 2)
                * (det N0)(-1)^(a dim rho / 2), the epsilon running over the
    summands of the tempered partner N0 (multiplicities allowed).
    """
    if not n0.is_tempered():
        raise AparamError("the partner parameter must be tempered")
    val = 1
    for t in n0.terms:
        if t.mult % 2:
            val *= eps_block(rho, a, t.weil, t.d_dim, table)
    # determinant twists: a symplectic partner has trivial determinant, so its
    # factor drops without consulting the table (and its possibly half-integer
    # exponent never matters)
    def det_rho():
        return table.det_m1(rho)

    def det_n0():
        if n0.parity in (SYMPL, CONJ_SYMPL):
            return 1
        sign = 1
        for t in n0.terms:
            if (t.d_dim * t.mult) % 2:
                sign *= table.det_m1(t.weil)
        return sign

    for base_fn, num in ((det_rho, a * n0.dim), (det_n0, a * rho.dim)):
        e, r = divmod(num, 2)
        if r:
            if base_fn() != 1:
                raise AparamError("half-integral determinant exponent on a nontrivial sign")
            continue
        if e % 2:
            val *= base_fn()
    return val


def ggp_character(m0: AParam, n0: AParam, table: SignTable) -> CharacterAssignment:
    """Distinguished character on both component groups of a tempered pair.

    The first-side values follow the quoted recipe against the second
    parameter; the second side is computed by the mirrored recipe.
    """
    for p in (m0, n0):
        if not p.is_tempered():
            raise AparamError("both parameters must be tempered")
        if not p.is_discrete():
            raise NotDiscreteError("component-group bases need discrete parameters")
    out = {}
    for t in m0.terms:
        out[("M", t.weil.id, t.d_dim, 1)] = ggp_chi(t.weil, t.d_dim, n0, table)
    for t in n0.terms:
        out[("N", t.weil.id, t.d_dim, 1)] = ggp_chi(t.weil, t.d_dim, m0, table)
    return CharacterAssignment.of(out)


# ---------------------------------------------------------------------------
# Gap and alternation predicates for tempered discrete parameters


def _require_tempered_discrete(m: AParam):
    if not m.is_discrete():
        raise NotDiscreteError("this predicate needs a discrete parameter")
    if not m.is_tempered():
        raise AparamError("this predicate needs a tempered parameter")


def without_gaps(m: AParam) -> bool:
    """True when every summand rho (x) [d] with d >= 3 has rho (x) [d-2] below it."""
    _require_tempered_discrete(m)
    have = {(t.weil.id, t.d_dim) for t in m.terms}
    return all(d < 3 or (sid, d - 2) in have for sid, d in have)


def _runs(m: AParam) -> list[list[tuple[str, int]]]:
    """Maximal chains (sid, d), (sid, d+2), ... of the summands, bottom first."""
    have = {(t.weil.id, t.d_dim) for t in m.terms}
    runs = []
    for sid, d in sorted(have):
        if (sid, d - 2) not in have:
            run = [(sid, d)]
            while (sid, run[-1][1] + 2) in have:
                run.append((sid, run[-1][1] + 2))
            runs.append(run)
    return runs


def is_alternating(m: AParam, alpha: CharacterAssignment) -> bool:
    """Whether a character flips sign along every run of ``m``, starting at -1 on [2]."""
    _require_tempered_discrete(m)
    runs = _runs(m)
    if {k for k, _ in alpha.values} != {("M", sid, d, 1) for run in runs for sid, d in run}:
        raise AparamError("character domain does not match the summand set")
    if any(v not in (1, -1) for _, v in alpha.values):
        raise AparamError("character values must be +1 or -1")
    vals = {(k[1], k[2]): v for k, v in alpha.values}
    return all(
        (run[0][1] != 2 or vals[run[0]] == -1)
        and all(vals[hi] == -vals[lo] for lo, hi in zip(run, run[1:]))
        for run in runs
    )


def alternating_characters(m: AParam) -> list[CharacterAssignment]:
    """All characters alternating along every run, bottoms at [2] pinned to -1.

    Each run (a maximal chain of summands two apart) takes one free sign at
    its bottom, unless that bottom is [2]; the values then alternate upwards.
    """
    _require_tempered_discrete(m)
    runs = _runs(m)
    out = []
    for bottoms in product(*(((-1,) if run[0][1] == 2 else (1, -1)) for run in runs)):
        vals = {}
        for run, bottom in zip(runs, bottoms):
            for k, (sid, d) in enumerate(run):
                vals[("M", sid, d, 1)] = -bottom if k % 2 else bottom
        out.append(CharacterAssignment.of(vals))
    return sorted(out, key=lambda c: c.values)


def supercuspidal_support(m: AParam, alpha: CharacterAssignment) -> bool:
    """Gapless parameter together with an alternating character."""
    return without_gaps(m) and is_alternating(m, alpha)


# ---------------------------------------------------------------------------
# Endoscopic sign characters and the automorphy test


def _row_eps(ri: EndoRow, rj: EndoRow, table: SignTable) -> int:
    return eps_block(ri.weil, ri.d_dim, rj.weil, rj.d_dim, table)


def _restricted_eps(row: EndoRow, others, table: SignTable) -> int:
    """Product of the row epsilons of ``row`` against each of ``others``.

    Each pair is passed I-row first, so every family names a missing table
    entry the same way.
    """
    val = 1
    for o in others:
        val *= _row_eps(row, o, table) if row.in_i else _row_eps(o, row, table)
    return val


def _families(m: AParam, n: AParam, witness: RelevanceWitness | None = None):
    """Yield ``(row, basis key, b, others)`` for every basis element, I-rows first.

    ``b`` is the row's Arthur dimension on the key's side, M before N, and
    ``others`` the other kind's rows with their dimension on that side.  A
    given relevance ``witness`` of the pair spares a second descent.
    """
    rows = endoscopic_rows(m, n, witness)
    i_rows = [r for r in rows if r.in_i]
    j_rows = [r for r in rows if not r.in_i]
    for row in i_rows + j_rows:
        others = j_rows if row.in_i else i_rows
        for side, attr in (("M", "m_dim"), ("N", "n_dim")):
            b = getattr(row, attr)
            if b:
                key = (side, row.weil.id, row.d_dim, b)
                yield row, key, b, [(o, getattr(o, attr)) for o in others]


def arthur_character(m: AParam, n: AParam, table: SignTable) -> CharacterAssignment:
    """The discrete-spectrum sign character on both component groups.

    On the first parameter's basis the value at an I-row is the product of
    declared epsilons over the J-rows with strictly larger first-side Arthur
    dimension; the other three families mirror this.
    """
    out = {}
    for row, key, b, others in _families(m, n):
        above = row.in_i == (key[0] == "M")
        taken = [o for o, ob in others if (ob > b if above else ob < b)]
        out[key] = _restricted_eps(row, taken, table)
    return CharacterAssignment.of(out)


def gg_global_character(
    m: AParam, n: AParam, table: SignTable, witness: RelevanceWitness | None = None
) -> CharacterAssignment:
    """The distinguished character transported to the same bases.

    Nonzero products appear only on the I-rows' first side and the J-rows'
    second side; the other two families are identically +1.  A given
    relevance ``witness`` of the pair spares a second descent.
    """
    out = {}
    for row, key, _, others in _families(m, n, witness):
        full = row.in_i == (key[0] == "M")
        out[key] = _restricted_eps(row, [o for o, _ in others], table) if full else 1
    return CharacterAssignment.of(out)


def automorphy_test(m: AParam, n: AParam, table: SignTable) -> dict:
    """Check the four product-equals-one conditions for automorphy.

    When all four hold, each row's restricted product over the partners
    facing it (other-kind rows with its two Arthur dimensions swapped) is
    additionally asserted to be +1.
    """
    families = list(_families(m, n))
    failed = []
    for row, (side, *_), b, others in families:
        if _restricted_eps(row, [o for o, ob in others if ob < b], table) != 1:
            where = "first" if side == "M" else "second"
            kind = "I" if row.in_i else "J"
            failed.append(f"{where}-side product at {row.weil.id}:D{row.d_dim} ({kind}-row)")
    if not failed:
        for row, (side, *_), _, others in families:
            if side == "N" and row.m_dim:
                continue  # the row's M entry already checked it
            facing = [o for o, _ in others if (o.m_dim, o.n_dim) == (row.n_dim, row.m_dim)]
            if _restricted_eps(row, facing, table) != 1:
                kind = "an I-row" if row.in_i else "a J-row"
                raise AparamError(f"special-pair product identity failed on {kind}")
    return {"automorphic": not failed, "failed_conditions": failed}


def predict_multiplicity(m: AParam, n: AParam, table: SignTable) -> dict:
    """Branching-multiplicity prediction for a pair of classical parameters.

    The multiplicity is 1 exactly when the pair is relevant; the
    distinguished character is produced in the two covered regimes: tempered
    pairs (root-number recipe) and discrete endoscopic pairs (restricted
    epsilon products).  Outside those the character is left undetermined.
    """
    if m.parity == "gl" or n.parity == "gl":
        raise ParityError("multiplicity prediction needs classical parities")
    if _SIGN[m.parity] == _SIGN[n.parity]:
        raise ParityError("the two parities must be opposite")
    verdict = check_relevant(m, n)
    if not verdict:
        return {"d": 0, "character": None, "reason": verdict.reason}
    if not (m.is_discrete() and n.is_discrete()):
        return {"d": 1, "character": None}
    if m.is_tempered() and n.is_tempered():
        return {"d": 1, "character": ggp_character(m, n, table)}
    return {"d": 1, "character": gg_global_character(m, n, table, verdict)}
