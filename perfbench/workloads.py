"""The four benchmark workloads.

Each workload makes its inputs in rounds from the seed (round ``k`` uses its
own ``random.Random``), runs one timed call per unit, and checks every
output afterwards, outside the timed phase.  A round always runs whole, so
every run covers the same mix of inputs however many rounds fit in its
time.  A traced run runs a fixed number of rounds instead
(``TRACE_ROUNDS``), so its per-layer counts and self times total a fixed
amount of work.  All calls go through module attributes (``glbranch.decide_gl_branching``,
``cli.run``), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
from collections import Counter
from dataclasses import dataclass

from aparam import chars, cli, glbranch, globlfun, lfun, relevance, repcore
from aparam.globlfun import OrderExpr
from aparam.repcore import SymbolTable

import gen


@dataclass
class Unit:
    args: tuple
    items: int = 1  # items the call completes: pairs, members or decisions


@dataclass
class Round:
    units: list[Unit]
    text: str  # canonical inputs of the round, digested


class Workload:
    name = ""
    TRACE_ROUNDS = 1  # rounds of a traced run: 8-12 s traced when written

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self.stdout_bytes = 0

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def round_dir(self, k: int):
        d = self.workdir / f"round{k}"
        d.mkdir(parents=True, exist_ok=True)
        return d

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        """``aparam.cli.run`` in this process, standard output captured."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv)
        out = buf.getvalue()
        self.stdout_bytes += len(out)  # json.dumps output is ASCII
        return rc, out

    def prepare(self, k: int) -> Round:
        raise NotImplementedError

    def call(self, unit: Unit):
        raise NotImplementedError

    def check(self, unit: Unit, out) -> int:
        """Number of the unit's items that the output gets wrong."""
        raise NotImplementedError

    def render(self, out) -> str:
        return json.dumps(out, sort_keys=True, default=repr)


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------


# Instances per round in each walk bucket (gen.walk_bucket): the c11
# generator's own frequencies over 100,000 draws, scaled to 200 and rounded.
# Drawing to fixed quotas keeps every round the same mix, so a run's
# throughput does not hang on how many heavy instances its seed drew.
# Buckets above 10 (about one draw in 22) are left out: within one of them
# the cost of an instance varies by up to fifteen times (bucket 12: 0.12 to
# 2 s when the benchmark was written), so the few of them in a round would
# set its throughput alone.  Buckets 9 and 10 still take 30-110 ms each.
C11_QUOTA = {1: 5, 2: 12, 3: 21, 4: 30, 5: 28, 6: 31, 7: 23, 8: 19, 9: 13, 10: 9}
ROUND_SIZE = sum(C11_QUOTA.values())
# Draws made for every round, kept or not, so that making a round costs the
# same on every seed, whatever it takes to fill the quotas.
# A round whose quotas are not full by then draws on until they are.
C11_DRAWS = 1500


class GlbranchCorpus(Workload):
    name = "glbranch-corpus"
    TRACE_ROUNDS = 4

    def prepare(self, k):
        want = dict(C11_QUOTA)
        units, lines = [], []
        for draws, (m, n) in enumerate(gen.c11_stream(self.rng(k)), 1):
            b = gen.walk_bucket(m, n)
            if want.get(b, 0):
                want[b] -= 1
                units.append(Unit((m, n)))
                lines.append(f"{repcore.render_param(m)} ; {repcore.render_param(n)}")
            if draws >= C11_DRAWS and len(units) == ROUND_SIZE:
                break
        text = "\n".join(lines) + "\n"
        _write(self.round_dir(k) / "corpus.txt", text)
        return Round(units, text)

    def call(self, unit):
        return glbranch.decide_gl_branching(*unit.args)

    def check(self, unit, out):
        m, n = unit.args
        oracle = relevance.brute_force_relevant(m, n).relevant
        return int(out["inconclusive"] or out["hom_nonzero"] != oracle)


# ---------------------------------------------------------------------------


def _mult_free_deligne_trivial(p) -> bool:
    return p.is_deligne_trivial() and all(t.mult == 1 for t in p.terms)


def _sign_law_applies(m, n) -> bool:
    return _mult_free_deligne_trivial(m) and _mult_free_deligne_trivial(n)


def _c05_ok(applies: bool, signed: int, relevant: bool) -> bool:
    """The Bessel sign law: on multiplicity-free Deligne-trivial pairs the
    ratio order is <= 0, with equality exactly at relevance."""
    return not applies or (signed <= 0 and (signed == 0) == relevant)


class EnumerateSweep(Workload):
    name = "enumerate-sweep"
    TRACE_ROUNDS = 3

    # (symbol ids the seed picks from, dim, partner dim); each universe has
    # 2,300-3,600 pairs, a round about 8,500, and the symbols offered in one
    # slot cost the same.
    UNIVERSES = ((None, 10, 11), (("alpha", "beta"), 6, 7), (("rho2", "sig2"), 8, 9))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        # Rounds repeat universes (the trivial one in every round), so the
        # check keeps each row's oracle verdict across rounds.
        self._verdicts: dict[tuple[str, str, str], tuple[bool, bool]] = {}

    def prepare(self, k):
        rng = self.rng(k)
        units, lines = [], []
        d = self.round_dir(k)
        for slot in rng.sample(range(len(self.UNIVERSES)), len(self.UNIVERSES)):
            choices, dim, pdim = self.UNIVERSES[slot]
            ids = [rng.choice(choices)] if choices else []
            st = SymbolTable([gen.TABLE[i] for i in ids])
            path = d / f"symbols{slot}.json"
            table_text = json.dumps(st.to_json(), sort_keys=True)
            _write(path, table_text)
            count = sum(1 for _ in repcore.enumerate_params(dim, st, "symplectic"))
            count *= sum(1 for _ in repcore.enumerate_params(pdim, st, "orthogonal"))
            argv = ["enumerate", "--parity", "symplectic", "--dim", str(dim),
                    "--partner-dim", str(pdim), "--symbols", str(path)]
            units.append(Unit((argv, st, table_text), items=count))
            lines.append(f"{' '.join(argv[:-2])} {table_text}")
        return Round(units, "\n".join(lines) + "\n")

    def call(self, unit):
        return self.run_cli(unit.args[0])

    def check(self, unit, out):
        rc, text = out
        if rc != 0:
            return unit.items
        rows = json.loads(text).get("rows", [])
        _argv, st, table_text = unit.args
        bad = abs(unit.items - len(rows))
        for row in rows:
            relevant, applies = self._verdict(st, table_text, row["m"], row["n"])
            ok = row["relevant"] == relevant and "signed_order" in row
            bad += not (ok and _c05_ok(applies, row["signed_order"], relevant))
        return min(bad, unit.items)

    def _verdict(self, st, table_text: str, mt: str, nt: str) -> tuple[bool, bool]:
        """(brute-force relevance, whether the sign law applies) of a row."""
        key = (table_text, mt, nt)
        verdict = self._verdicts.get(key)
        if verdict is None:
            m = repcore.parse_param(mt, st, "symplectic")
            n = repcore.parse_param(nt, st, "orthogonal")
            verdict = (relevance.brute_force_relevant(m, n).relevant, _sign_law_applies(m, n))
            self._verdicts[key] = verdict
        return verdict

    def render(self, out):
        return f"{out[0]}\n{out[1]}"


# ---------------------------------------------------------------------------


class PairMix(Workload):
    name = "pair-mix"

    PAIRS_PER_ROUND = 500
    TRACE_ROUNDS = 8

    def prepare(self, k):
        rng = self.rng(k)
        units, lines = [], []
        for _ in range(self.PAIRS_PER_ROUND):
            if rng.random() < 0.5:
                kind, (m, n) = "gl", gen.rand_relevant_gl(rng, deligne_trivial=rng.random() < 0.5)
                signs, sign_seed = None, "-"
            else:
                kind, (m, n) = "classical", gen.rand_discrete_pair(rng)
                sign_seed = rng.getrandbits(32)
                signs = gen.sign_table(random.Random(sign_seed))
            mt, nt = repcore.render_param(m), repcore.render_param(n)
            units.append(Unit((kind, mt, nt, signs)))
            lines.append(f"{kind} ; {mt} ; {nt} ; {sign_seed}")
        text = "\n".join(lines) + "\n"
        _write(self.round_dir(k) / "pairs.txt", text)
        return Round(units, text)

    def call(self, unit):
        kind, mt, nt, signs = unit.args
        if kind == "gl":
            m = repcore.parse_param(mt, gen.TABLE, "gl")
            n = repcore.parse_param(nt, gen.TABLE, "gl")
            relevant = bool(relevance.check_relevant(m, n))
            return [relevant, lfun.gl_ratio_order(m, n)]
        m = repcore.parse_param(mt, gen.TABLE, "symplectic")
        n = repcore.parse_param(nt, gen.TABLE, "orthogonal")
        relevant = bool(relevance.check_relevant(m, n))
        return [
            relevant,
            lfun.bessel_ratio_order(m, n),
            globlfun.global_ratio_order(m, n),
            chars.automorphy_test(m, n, signs),
            chars.predict_multiplicity(m, n, signs),
        ]

    def check(self, unit, out):
        kind, mt, nt, _signs = unit.args
        parity = ("gl", "gl") if kind == "gl" else ("symplectic", "orthogonal")
        m = repcore.parse_param(mt, gen.TABLE, parity[0])
        n = repcore.parse_param(nt, gen.TABLE, parity[1])
        oracle = relevance.brute_force_relevant(m, n).relevant
        if out[0] != oracle or not oracle:  # every generated pair is relevant
            return 1
        if kind == "gl":
            if out[1] < 0:
                return 1
            if m.is_deligne_trivial() and n.is_deligne_trivial():
                return int(out[1] != lfun.gl_hom_formula_order(m, n))
            return 0
        want: dict = {}
        for sp in relevance.special_pairs(m, n):
            key = globlfun.z_key(sp.i_row.weil, sp.j_row.weil)
            want[key] = want.get(key, 0) - 1
        ok = out[2] == OrderExpr.of(0, want) and _c05_ok(_sign_law_applies(m, n), out[1], oracle)
        return int(not (ok and self._chars_ok(m, n, unit.args[3], out[3], out[4])))

    @staticmethod
    def _chars_ok(m, n, signs, automorphy, prediction) -> bool:
        """Automorphic exactly when the Arthur and global characters agree
        (as tests/test_chars.py checks); a relevant discrete pair has
        multiplicity 1, with the GGP character when tempered and the global
        character otherwise."""
        agree = chars.arthur_character(m, n, signs) == chars.gg_global_character(m, n, signs)
        if automorphy["automorphic"] != agree or prediction["d"] != 1:
            return False
        if m.is_tempered() and n.is_tempered():
            return prediction["character"] == chars.ggp_character(m, n, signs)
        return prediction["character"] == chars.gg_global_character(m, n, signs)

    def render(self, out):
        return json.dumps([x.render() if isinstance(x, OrderExpr) else x for x in out],
                          sort_keys=True, default=repr)


# ---------------------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+)\*)?([^:]+):D(\d+):A(\d+)$")


@functools.lru_cache(maxsize=None)
def _term(chunk: str) -> tuple[tuple, bool]:
    """One rendered term ``[k*]sym:Dd:Aa``: its restriction to the diagonal
    SL2 as ((sym, dim), mult) pairs, and whether it has exactly one even SL2
    dimension, as every term of a symplectic parameter on an orthogonal
    symbol must."""
    mult, sym, d, a = _TERM.match(chunk).groups()
    d, a, k = int(d), int(a), int(mult or 1)
    return tuple(((sym, dim), k) for dim in range(abs(d - a) + 1, d + a, 2)), (d + a) % 2 == 1


def _diagonal_image(text: str) -> Counter | None:
    """Restriction to the diagonal SL2, computed here from the rendered text;
    None if a term is not symplectic."""
    image: Counter = Counter()
    for chunk in text.split(" + "):
        pairs, symplectic = _term(chunk)
        if not symplectic:
            return None
        for key, k in pairs:
            image[key] += k
    return image


class DeltaClass(Workload):
    name = "delta-class"

    CHAIN = 10
    TRACE_ROUNDS = 2
    SYMBOLS = ("1", "alpha", "beta", "sig2")  # orthogonal, so the chain is symplectic

    def prepare(self, k):
        rng = self.rng(k)
        sym = rng.choice(self.SYMBOLS)
        terms = [f"{sym}:D1:A{2 * i}" for i in range(1, self.CHAIN + 1)]
        rng.shuffle(terms)
        doc = {"parity": "symplectic", "expr": " + ".join(terms)}
        if sym != "1":
            doc.update(SymbolTable([gen.TABLE[sym]]).to_json())
        text = json.dumps(doc, sort_keys=True)
        path = self.round_dir(k) / "chain.json"
        _write(path, text)
        expected = 2 * 3 ** (self.CHAIN - 1)
        return Round([Unit((["relevance", "delta-class", str(path)], doc["expr"]), items=expected)],
                     text + "\n")

    def call(self, unit):
        return self.run_cli(unit.args[0])

    def check(self, unit, out):
        rc, text = out
        if rc != 0:
            return unit.items
        payload = json.loads(text)
        members = payload.get("members", [])
        image = _diagonal_image(unit.args[1])
        bad = abs(unit.items - len(members)) + (payload.get("count") != len(members))
        bad += len(members) - len(set(members))
        for q in members:
            bad += _diagonal_image(q) != image
        return min(bad, unit.items)

    def render(self, out):
        return f"{out[0]}\n{out[1]}"


WORKLOADS = {w.name: w for w in (GlbranchCorpus, EnumerateSweep, PairMix, DeltaClass)}
