"""Deciding relevance of a pair of Arthur parameters.

A pair (M, N) is relevant when every WD-label admits a splitting of its
chain multiplicities m_i = m_i^+ + m_i^-, n_i = n_i^+ + n_i^- (i indexing
the Arthur factor [i+1]) with the cross-links

    m_i^+ = n_{i+1}^-   and   n_i^+ = m_{i+1}^-   for all i >= 0.

The splitting, when it exists, is unique: the plus parts vanish at the top
index and everything below is forced.  The free parts are m_0^- and n_0^-.

``delta_class_search`` lists the parameters with a given restriction to the
diagonal SL2.  Per symbol it tiles the restriction's dimensions by
Clebsch-Gordan pairs (d, a), with a DP that peels the largest dimension
left (only a pair with top d+a-1 equal to it can cover it) and takes the
pairs of one top in non-decreasing d, so that each tiling is counted once.
The class size, the product of the symbols' counts, is known before any
member is built; ``bound`` caps it and the number of DP states.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, product

from .repcore import (
    AParam,
    ATerm,
    AparamError,
    BudgetError,
    NotDiscreteError,
    ParityError,
    ShapeError,
    WeilSymbol,
    clebsch_gordan,
    composite_sign,
    delta_map,
    _SIGN,
    _parity_matches,
)

__all__ = [
    "LabelWitness",
    "RelevanceWitness",
    "NotRelevant",
    "NotRelevantError",
    "check_relevant",
    "is_relevant",
    "brute_force_relevant",
    "ep_identities",
    "EndoRow",
    "endoscopic_rows",
    "SpecialPair",
    "special_pairs",
    "correlator_witness",
    "CorrelatorWitness",
    "delta_class_search",
]

Label = tuple[WeilSymbol, int]


class NotRelevantError(AparamError):
    """Raised by operations whose precondition is a relevant pair."""

    def __init__(self, certificate: "NotRelevant"):
        super().__init__(certificate.reason)
        self.certificate = certificate


@dataclass(frozen=True)
class LabelWitness:
    """The unique splitting along one WD-label, indexed by Arthur index i."""

    mplus: tuple[int, ...]
    mminus: tuple[int, ...]
    nplus: tuple[int, ...]
    nminus: tuple[int, ...]

    def m(self, i: int) -> int:
        return self._at(self.mplus, i) + self._at(self.mminus, i)

    def n(self, i: int) -> int:
        return self._at(self.nplus, i) + self._at(self.nminus, i)

    @staticmethod
    def _at(seq, i):
        return seq[i] if 0 <= i < len(seq) else 0


@dataclass(frozen=True)
class RelevanceWitness:
    """Per-label splittings certifying relevance of (m, n)."""

    m: AParam
    n: AParam
    labels: tuple[tuple[Label, LabelWitness], ...]

    relevant = True

    def __bool__(self):
        return True

    def label_map(self) -> dict[Label, LabelWitness]:
        return dict(self.labels)


@dataclass(frozen=True)
class NotRelevant:
    """Minimal infeasibility certificate: the first place a count went negative."""

    label: Label
    index: int
    side: str
    deficit: int

    relevant = False

    def __bool__(self):
        return False

    @property
    def reason(self) -> str:
        sym, d = self.label
        return (
            f"label {sym.id}:D{d}: forced {self.side}-part at Arthur index "
            f"{self.index} short by {self.deficit}"
        )


def _grouped(p: AParam) -> list[tuple[tuple[str, int], Label, dict[int, int]]]:
    """The chains of ``p`` as ((symbol id, d), label, chain), in label order.

    ``p.terms`` is sorted by (symbol id, d, a), so each label's terms are
    adjacent.
    """
    out = []
    key = lab = None
    for t in p.terms:
        w = t.weil
        k = (w.id, t.d_dim)
        if k != key:
            key, lab, links = k, (w, t.d_dim), {}
            out.append((k, lab, links))
        elif w is not lab[0] and w != lab[0]:
            raise AparamError(f"two different symbols share the id {w.id!r}")
        links[t.a_dim - 1] = t.mult
    return out


def _label_chains(m: AParam, n: AParam) -> list[tuple[Label, tuple[dict[int, int], dict[int, int]]]]:
    """Every label of m or n with its two chains, sorted by (symbol id, d).

    One merge of the two parameters' label-ordered chains.
    """
    gm, gn = _grouped(m), _grouped(n)
    out = []
    i = j = 0
    while i < len(gm) and j < len(gn):
        km, lab, cm = gm[i]
        kn, nlab, cn = gn[j]
        if km < kn:
            out.append((lab, (cm, {})))
            i += 1
        elif kn < km:
            out.append((nlab, ({}, cn)))
            j += 1
        else:
            if lab[0] is not nlab[0] and lab[0] != nlab[0]:
                raise AparamError(f"two different symbols share the id {km[0]!r}")
            out.append((lab, (cm, cn)))
            i += 1
            j += 1
    for _, lab, cm in gm[i:]:
        out.append((lab, (cm, {})))
    for _, lab, cn in gn[j:]:
        out.append((lab, ({}, cn)))
    return out


def _descend(mc: dict[int, int], nc: dict[int, int]):
    """Run the forced top-down splitting on one label; None on failure."""
    top = max(list(mc) + list(nc), default=-1)
    size = top + 1
    mplus = [0] * size
    mminus = [0] * size
    nplus = [0] * size
    nminus = [0] * size
    for i in range(top, -1, -1):
        up_mm = mminus[i + 1] if i + 1 <= top else 0
        up_nm = nminus[i + 1] if i + 1 <= top else 0
        nplus[i] = up_mm
        nminus[i] = nc.get(i, 0) - nplus[i]
        if nminus[i] < 0:
            return None, ("N", i, -nminus[i])
        mplus[i] = up_nm
        mminus[i] = mc.get(i, 0) - mplus[i]
        if mminus[i] < 0:
            return None, ("M", i, -mminus[i])
    return LabelWitness(tuple(mplus), tuple(mminus), tuple(nplus), tuple(nminus)), None


def check_relevant(m: AParam, n: AParam) -> RelevanceWitness | NotRelevant:
    """Decide relevance and return the unique witness or an infeasibility certificate.

    The notion is symmetric in (m, n) and always holds when both parameters
    are tempered.
    """
    labels = []
    for lab, (mc, nc) in _label_chains(m, n):
        w, err = _descend(mc, nc)
        if w is None:
            side, i, deficit = err
            return NotRelevant(lab, i, side, deficit)
        labels.append((lab, w))
    return RelevanceWitness(m, n, tuple(labels))


def is_relevant(m: AParam, n: AParam) -> bool:
    return check_relevant(m, n).relevant


def _splittings(total: int):
    return [(p, total - p) for p in range(total + 1)]


def brute_force_relevant(
    m: AParam, n: AParam, cap: int = 200_000
) -> RelevanceWitness | NotRelevant:
    """Independent oracle: enumerate all splittings per label and test the links.

    Raises BudgetError when a label admits more than ``cap`` candidate
    splittings.  Agrees with check_relevant on its whole domain and finds at
    most one witness per label (uniqueness).
    """
    labels = []
    for lab, (mc, nc) in _label_chains(m, n):
        top = max(list(mc) + list(nc), default=-1)
        size = top + 1
        ms = [mc.get(i, 0) for i in range(size)]
        ns = [nc.get(i, 0) for i in range(size)]
        count = 1
        for v in ms + ns:
            count *= v + 1
            if count > cap:
                raise BudgetError(f"more than {cap} splittings on label {lab[0].id}:D{lab[1]}")
        found = []
        for msplit in product(*(_splittings(v) for v in ms)):
            for nsplit in product(*(_splittings(v) for v in ns)):
                ok = True
                for i in range(size):
                    up_nm = nsplit[i + 1][1] if i + 1 < size else 0
                    up_mm = msplit[i + 1][1] if i + 1 < size else 0
                    if msplit[i][0] != up_nm or nsplit[i][0] != up_mm:
                        ok = False
                        break
                if ok:
                    found.append((msplit, nsplit))
        if len(found) > 1:
            raise AparamError(f"witness not unique on label {lab}")  # impossible
        if not found:
            w, err = _descend(mc, nc)
            side, i, deficit = err if err else ("M", 0, 0)
            return NotRelevant(lab, i, side, deficit)
        msplit, nsplit = found[0]
        labels.append(
            (
                lab,
                LabelWitness(
                    tuple(p for p, _ in msplit),
                    tuple(q for _, q in msplit),
                    tuple(p for p, _ in nsplit),
                    tuple(q for _, q in nsplit),
                ),
            )
        )
    return RelevanceWitness(m, n, tuple(labels))


def ep_identities(w: RelevanceWitness) -> list[Label]:
    """Check the two odd/even cross sums; returns the labels that fail (empty = pass).

    As multisets of WD-labels:  sum over odd i of M_i equals sum over even i
    of N_i minus the free part N_0^-, and symmetrically with M and N swapped.
    """
    bad = []
    for lab, lw in w.labels:
        size = len(lw.mplus)
        m_odd = sum(lw.m(i) for i in range(1, size, 2))
        m_even = sum(lw.m(i) for i in range(0, size, 2))
        n_odd = sum(lw.n(i) for i in range(1, size, 2))
        n_even = sum(lw.n(i) for i in range(0, size, 2))
        nminus0 = lw.nminus[0] if size else 0
        mminus0 = lw.mminus[0] if size else 0
        if m_odd != n_even - nminus0 or n_odd != m_even - mminus0:
            bad.append(lab)
    return bad


# ---------------------------------------------------------------------------
# Endoscopic rows and special pairs


@dataclass(frozen=True)
class EndoRow:
    """One matched summand: a WD-label with its Arthur dimensions on both sides.

    ``m_dim`` / ``n_dim`` are the Arthur dimensions of the summand inside the
    first / second parameter (0 when absent); they always differ by one.
    ``in_i`` marks rows whose label has the first parameter's duality sign.
    """

    weil: WeilSymbol
    d_dim: int
    m_dim: int
    n_dim: int
    in_i: bool


def endoscopic_rows(m: AParam, n: AParam, witness: RelevanceWitness | None = None) -> list[EndoRow]:
    """Decompose a discrete relevant pair into partnered rows.

    Every irreducible summand of one parameter is paired with a partner on
    the other side whose Arthur dimension differs by exactly one (a missing
    partner counts as dimension 0).  Requires opposite classical parities.
    """
    if m.parity == "gl" or n.parity == "gl":
        raise ParityError("endoscopic rows need classical parities")
    if _SIGN[m.parity] == _SIGN[n.parity]:
        raise ParityError("the two parities must be opposite")
    if not m.is_discrete() or not n.is_discrete():
        raise NotDiscreteError("endoscopic rows are defined for discrete parameters")
    if witness is None:
        witness = check_relevant(m, n)
        if not witness:
            raise NotRelevantError(witness)
    rows = []
    m_sign = _SIGN[m.parity]
    for (sym, d), lw in witness.labels:
        sign, _ = composite_sign(sym, d, 1)
        if sign is None:
            raise ShapeError(f"label {sym.id}:D{d} is not selfdual")
        in_i = sign == m_sign
        size = len(lw.mplus)
        for i in range(size):
            if lw.mplus[i]:
                rows.append(EndoRow(sym, d, i + 1, i + 2, in_i))
            if lw.mminus[i]:
                rows.append(EndoRow(sym, d, i + 1, i if i >= 1 else 0, in_i))
        if size and lw.nminus[0]:
            rows.append(EndoRow(sym, d, 0, 1, in_i))
    rows.sort(key=lambda r: (r.weil.id, r.d_dim, r.m_dim))
    return rows


@dataclass(frozen=True)
class SpecialPair:
    """Matched rows with Arthur dimensions (b, b+1) against (b+1, b)."""

    i_row: EndoRow
    j_row: EndoRow


def special_pairs(m: AParam, n: AParam) -> list[SpecialPair]:
    """All row pairs (i, j) with (m_i, m'_i) = (n'_j, n_j).

    These are the summand blocks V(x)[b] + W(x)[b+1] in one parameter facing
    V(x)[b+1] + W(x)[b] in the other; a fully tempered pair has none.
    """
    rows = endoscopic_rows(m, n)
    i_rows = [r for r in rows if r.in_i]
    j_rows = [r for r in rows if not r.in_i]
    out = []
    for ri in i_rows:
        for rj in j_rows:
            if (ri.m_dim, ri.n_dim) == (rj.n_dim, rj.m_dim):
                out.append(SpecialPair(ri, rj))
    return out


# ---------------------------------------------------------------------------
# Correlator


@dataclass(frozen=True)
class GradedMap:
    """A surjection V_i^{sign} (x) t_i^a  ->  W_{i+-1} (x) t^{a+1} of the given rank."""

    label: Label
    src_index: int
    src_sign: str
    src_grade: int
    dst_index: int
    dst_grade: int
    rank: int


@dataclass(frozen=True)
class KernelPiece:
    label: Label
    index: int
    grade: int
    mult: int


@dataclass(frozen=True)
class CorrelatorWitness:
    """Graded map data for a degree-1 map T with T*T = e and TT* = e'."""

    mode: str  # "bilinear" or "gl-doubled"
    maps: tuple[GradedMap, ...]
    kernel: tuple[KernelPiece, ...]
    zero: bool  # True when both nilpotents vanish and T = 0 works


def correlator_witness(m: AParam, n: AParam) -> CorrelatorWitness | NotRelevant:
    """Build the graded correlator data from the relevance witness.

    Exists exactly when the pair is relevant.  For a pair of classical
    parameters the parities must be opposite; a pair of gl parameters is
    handled through the doubled construction, with the same graded data.
    """
    if m.parity == "gl" and n.parity == "gl":
        mode = "gl-doubled"
    elif m.parity != "gl" and n.parity != "gl" and _SIGN[m.parity] != _SIGN[n.parity]:
        mode = "bilinear"
    else:
        raise ParityError("need two gl parameters or opposite classical parities")
    w = check_relevant(m, n)
    if not w:
        return w
    maps = []
    kernel = []
    for lab, lw in w.labels:
        size = len(lw.mplus)
        for i in range(size):
            plus, minus = lw.mplus[i], lw.mminus[i]
            if plus:
                for a in range(-i, i + 1, 2):
                    maps.append(GradedMap(lab, i, "+", a, i + 1, a + 1, plus))
            if minus:
                for a in range(-i, i - 1, 2):
                    maps.append(GradedMap(lab, i, "-", a, i - 1, a + 1, minus))
                kernel.append(KernelPiece(lab, i, i, minus))
    zero = m.is_tempered() and n.is_tempered()
    return CorrelatorWitness(mode, tuple(maps), tuple(kernel), zero)


# ---------------------------------------------------------------------------
# Search of the diagonal-restriction class


def _minus(rest: tuple[int, ...], cover: tuple[int, ...], mult: int) -> tuple[int, ...] | None:
    """``rest`` less ``mult`` of each count at ``cover``; None if one runs out."""
    out = list(rest)
    for i in cover:
        out[i] -= mult
        if out[i] < 0:
            return None
    return tuple(out)


class _Tilings:
    """The tilings of one symbol's diagonal dimensions by Clebsch-Gordan pairs.

    A tiling is a multiset of pairs (d, a) of the parameter's parity whose
    dimensions d+a-1, d+a-3, ..., |d-a|+1 make up the symbol's dimensions.
    A multiset of dimensions is a tuple of counts over the distinct values
    (ascending), and the pairs are numbered in (d, a) order, the order of the
    terms they become.

    One memoised DP gives the count and guides the listing.  Only a pair
    with top d+a-1 equal to the largest dimension left can cover it, so the
    DP peels that dimension and takes the pairs of one top in non-decreasing
    d: every tiling is one path.  A state is (the counts left, the least
    position allowed in the current top's list of pairs); its value is the
    number of tilings and the largest least pair number among them (-1 when
    there is none).
    """

    def __init__(self, sym: WeilSymbol, dims: list[int], parity: str):
        vals = sorted(set(dims))
        pos = {v: i for i, v in enumerate(vals)}
        # a pair's dimensions run from |d-a|+1 up to d+a-1 in steps of 2, so
        # the pairs that fit are runs of values; runs[b] lists, by growing
        # top, (index of the top, the pairs of that run) for bottom index b
        runs: list[list[tuple[int, list[tuple[int, int]]]]] = []
        for bottom in vals:
            runs.append([])
            top = bottom
            while top in pos:
                ds = {(top + bottom) // 2, (top - bottom) // 2 + 1}
                pairs = [(d, top + 1 - d) for d in sorted(ds)
                         if parity == "gl" or _parity_matches(sym, d, top + 1 - d, parity)]
                runs[-1].append((pos[top], pairs))
                top += 2
        self.pairs = sorted(pair for run in runs for _, pairs in run for pair in pairs)
        number = {pair: j for j, pair in enumerate(self.pairs)}
        self.runs = [[(top, [number[p] for p in pairs]) for top, pairs in run] for run in runs]
        self.cover = [tuple(pos[x] for x in clebsch_gordan(d, a)) for d, a in self.pairs]
        self.by_top: dict[int, list[int]] = {}
        for j, cover in enumerate(self.cover):
            self.by_top.setdefault(cover[0], []).append(j)
        self.full = tuple(dims.count(v) for v in vals)
        self.empty = (0,) * len(vals)
        self.memo: dict[tuple, tuple[int, int]] = {(self.empty, 0): (1, len(self.pairs))}
        self.move_memo: dict[tuple, tuple[list[int], list[tuple]]] = {}
        self.sym = sym
        self.terms: dict[tuple[int, int], ATerm] = {}  # (j, mult): the one shared term

    def _steps(self, state):
        rest, least = state
        top = max(i for i, n in enumerate(rest) if n)
        js = self.by_top.get(top, [])
        out = []
        for at in range(least, len(js)):
            left = _minus(rest, self.cover[js[at]], 1)
            if left is not None:
                out.append((js[at], (left, at if left[top] else 0)))
        return out

    def value(self, state, budget: list[int] | None = None) -> tuple[int, int]:
        """The DP value of ``state``, without recursion; each new state spends one of ``budget``."""
        memo = self.memo
        stack = [state]
        while stack:
            if stack[-1] in memo:
                stack.pop()
                continue
            steps = self._steps(stack[-1])
            todo = [s for _, s in steps if s not in memo]
            if todo:
                stack += todo
                continue
            if budget is not None:
                budget[0] -= 1
                if budget[0] < 0:
                    raise BudgetError("diagonal-class search budget exceeded")
            vals = [(j, memo[s]) for j, s in steps]
            memo[stack.pop()] = (
                sum(n for _, (n, _) in vals),
                max((min(j, least) for j, (_, least) in vals), default=-1),
            )
        return memo[state]

    def _moves(self, rest):
        """How a tiling of ``rest`` can start: sorted (j, ((term, left), ...))
        such that ``rest`` is ``term.mult`` of pair j plus ``left`` and
        ``left`` is tiled by pairs numbered above j; and the list of those j."""
        found = self.move_memo.get(rest)
        if found is None:
            moves = []
            for bottom, run in enumerate(self.runs):
                most = rest[bottom]
                for top, js in run:
                    most = min(most, rest[top])
                    if not most:
                        break
                    for j in js:
                        steps = []
                        for mult in range(1, most + 1):
                            left = _minus(rest, self.cover[j], mult)
                            if self.value((left, 0))[1] > j:
                                steps.append((self._term(j, mult), left))
                        if steps:
                            moves.append((j, tuple(steps)))
            moves.sort()
            found = self.move_memo[rest] = ([j for j, _ in moves], moves)
        return found

    def _term(self, j: int, mult: int) -> ATerm:
        term = self.terms.get((j, mult))
        if term is None:
            d, a = self.pairs[j]
            term = self.terms[j, mult] = ATerm(self.sym, d, a, mult)
        return term

    def _children(self, rests: dict, start: int):
        """The walk's next pairs from ``rests``, which maps each count tuple
        still to tile to the term tuples that leave it: (j, the same map
        after pair j, the term tuples that end with pair j)."""
        merged: dict[int, list] = {}
        for rest, prefixes in rests.items():
            js, moves = self._moves(rest)
            for j, steps in moves[bisect_left(js, start):]:
                merged.setdefault(j, []).append((prefixes, steps))
        for j, parts in sorted(merged.items()):
            lefts: dict[tuple, list] = {}
            for prefixes, steps in parts:
                for term, left in steps:
                    lefts.setdefault(left, []).extend([v + (term,) for v in prefixes])
            done = lefts.pop(self.empty, None)
            yield j, lefts, sorted(done) if done else None

    def term_sets(self, last: bool):
        """Yield, for each set of distinct pairs that tilings use, the term
        tuples of those tilings in increasing multiplicities.  Sets come in
        the order of their pair sequences; a sequence that is a prefix of
        another comes before it when ``last``, after it otherwise."""
        frames = [(self._children({self.full: [()]}, 0), None)]
        while frames:
            kids, done = frames[-1]
            for j, lefts, kid_done in kids:
                if not lefts:
                    yield kid_done
                    continue
                if kid_done and last:
                    yield kid_done
                frames.append((self._children(lefts, j + 1), kid_done))
                break
            else:
                frames.pop()
                if done and not last:
                    yield done


def _delta_count(m: AParam, bound: int) -> tuple[int, list[_Tilings]]:
    """The size of the class of ``m`` and its per-symbol tilings, before any member is built.

    BudgetError when the DP needs more than ``bound`` states.
    """
    if m.parity != "gl" and not m.is_discrete():
        raise NotDiscreteError("diagonal-class search expects a discrete parameter")
    per_symbol: dict[WeilSymbol, list[int]] = {}
    for t in delta_map(m).terms:
        per_symbol.setdefault(t.weil, []).extend([t.d_dim] * t.mult)
    budget = [bound]
    count, tilings = 1, []
    for sym in sorted(per_symbol, key=lambda s: s.id):
        til = _Tilings(sym, per_symbol[sym], m.parity)
        count *= til.value((til.full, 0), budget)[0]
        tilings.append(til)
    return count, tilings


def _delta_stream(m: AParam, bound: int) -> tuple[int, Iterator[AParam]]:
    """The class size and a generator of the members in ``delta_class_search`` order.

    Every check runs here, so the generator raises nothing.
    """
    count, tilings = _delta_count(m, bound)
    if count > bound:
        raise BudgetError("diagonal-class search budget exceeded")
    return count, _members(m.parity, tilings)


def _members(parity: str, tilings: list[_Tilings]) -> Iterator[AParam]:
    # Members are ordered by their terms' keys (symbol id, d, a), then by the
    # multiplicities.  A symbol's keys decide before the next symbol's, so the
    # walk nests the symbols' pair sets and takes the multiplicities last.
    # When another symbol follows, a set whose keys are a prefix of another's
    # sorts after it: that symbol's keys have a larger id.
    last = len(tilings) - 1

    def combos(idx: int):
        for terms in tilings[idx].term_sets(idx == last):
            if idx == last:
                yield (terms,)
            else:
                for rest in combos(idx + 1):
                    yield (terms,) + rest

    if not tilings:
        yield AParam((), parity)
        return
    for combo in combos(0):
        if len(combo) == 1:
            for terms in combo[0]:
                yield AParam(terms, parity)
        else:
            for parts in product(*combo):
                yield AParam(chain.from_iterable(parts), parity)


def delta_class_search(m: AParam, bound: int = 100_000) -> list[AParam]:
    """Parameters of the same parity and dimension with the same diagonal image.

    Each symbol's diagonal dimensions are tiled by Clebsch-Gordan pairs
    (d, a) of the parameter's parity.  A memoised DP peels the largest
    dimension left, which only a pair with top d+a-1 equal to it can cover,
    taking the pairs of one top in non-decreasing d, so that every tiling is
    counted once; the class size is the product of the symbols' counts.
    BudgetError is raised, before any member is built, when that size or the
    number of DP states exceeds ``bound``.  Members come ordered by their
    terms' keys (symbol id, d, a), then by the multiplicities.  The input
    parameter is always part of its own class.
    """
    return list(_delta_stream(m, bound)[1])
