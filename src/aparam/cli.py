"""Command-line front end: JSON in, deterministic JSON out.

Exit codes separate mathematical verdicts from failures: 0 for a positive
result, 2 for a clean mathematical "no" (irrelevant pair, failed match,
non-automorphic character), 1 for parse or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from pathlib import Path

from . import repcore
from .repcore import (
    AParam,
    AparamError,
    BudgetError,
    ParseError,
    SymbolTable,
    enumerate_params,
    fmt_half,
    parse_param,
    read_field,
    render_param,
)
from . import relevance as rel
from . import lfun
from . import globlfun
from . import chars as chars_mod
from . import glbranch

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO = 2


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n")


def _check_positive(option: str, value: int | None) -> None:
    """A usage error unless an integer option is unset or positive."""
    if value is not None and value < 1:
        raise ParseError(f"{option} must be positive, got {value}")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object at the top level")
    return data


def _load_inputs(args):
    """The symbol table and a parameter loader; each input file is parsed once.

    Symbols come from ``--symbols`` and from the "symbols" key of the
    parameter files named by ``m``, ``n`` and ``param``.
    """
    tables = [_load_json(args.symbols)] if getattr(args, "symbols", None) else []
    docs = {}
    for attr in ("m", "n", "param"):
        path = getattr(args, attr, None)
        if path and Path(path).is_file():
            docs[path] = _load_json(path)
    tables += [d for d in docs.values() if "symbols" in d]
    syms = []
    for data in tables:
        syms.extend(SymbolTable.from_json(data).symbols())
    symtab = SymbolTable([s for s in syms if not s.is_trivial])

    def load(path: str) -> AParam:
        data = docs[path] if path in docs else _load_json(path)
        return repcore.param_from_json(data, symtab)

    return symtab, load


def _witness_json(w: rel.RelevanceWitness) -> list[dict]:
    out = []
    for (sym, d), lw in w.labels:
        out.append(
            {
                "label": f"{sym.id}:D{d}",
                "mplus": list(lw.mplus),
                "mminus": list(lw.mminus),
                "nplus": list(lw.nplus),
                "nminus": list(lw.nminus),
            }
        )
    return out


def _character_json(c) -> list[dict] | None:
    if c is None:
        return None
    return [
        {"side": side, "weil": sid, "d": d, "a": a, "value": val}
        for (side, sid, d, a), val in c.values
    ]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_parse(args) -> int:
    symtab, _ = _load_inputs(args)
    p = parse_param(args.expr, symtab, args.parity)
    payload = repcore.param_to_json(p)
    payload.update({"dim": p.dim, "canonical": render_param(p)})
    _emit(payload)
    return EXIT_OK


def _cmd_relevance_check(args) -> int:
    _, load = _load_inputs(args)
    m = load(args.m)
    npath = Path(args.n)
    if npath.is_dir():
        rows, relevant_count = [], 0
        for child in sorted(npath.glob("*.json")):
            n = load(str(child))
            verdict = rel.check_relevant(m, n)
            rows.append(
                {"file": child.name, "param": render_param(n), "relevant": bool(verdict)}
            )
            relevant_count += bool(verdict)
        _emit({"batch": rows, "relevant_count": relevant_count})
        return EXIT_OK if relevant_count else EXIT_NO
    n = load(args.n)
    verdict = rel.check_relevant(m, n)
    if verdict:
        _emit({"relevant": True, "witness": _witness_json(verdict)})
        return EXIT_OK
    _emit({"relevant": False, "reason": verdict.reason})
    return EXIT_NO


def _cmd_relevance_special(args) -> int:
    _, load = _load_inputs(args)
    m, n = load(args.m), load(args.n)
    pairs = rel.special_pairs(m, n)
    _emit(
        {
            "pairs": [
                {
                    "i": {"weil": sp.i_row.weil.id, "d": sp.i_row.d_dim,
                          "m_dim": sp.i_row.m_dim, "n_dim": sp.i_row.n_dim},
                    "j": {"weil": sp.j_row.weil.id, "d": sp.j_row.d_dim,
                          "m_dim": sp.j_row.m_dim, "n_dim": sp.j_row.n_dim},
                }
                for sp in pairs
            ]
        }
    )
    return EXIT_OK


def _cmd_relevance_delta(args) -> int:
    """The class as ``_emit`` would print it, written one member at a time.

    Every check runs before the first byte, so an error is still the only
    thing on stdout.
    """
    _check_positive("--bound", args.bound)
    _, load = _load_inputs(args)
    m = load(args.m)
    count, members = rel._delta_stream(m, args.bound)
    write = sys.stdout.write
    write(f'{{\n  "count": {count},\n  "members": [')
    sep = "\n    "
    for q in members:
        write(sep + json.dumps(render_param(q)))
        sep = ",\n    "
    write("\n  ]\n}\n")
    return EXIT_OK


def _cmd_lfun_ord(args) -> int:
    _, load = _load_inputs(args)
    p = load(args.param)
    s0 = repcore.parse_half(args.at)
    order = lfun.ord_at(p, s0)
    _emit({"at": fmt_half(s0), "order": order})
    return EXIT_OK


def _cmd_lfun_ratio(args) -> int:
    _, load = _load_inputs(args)
    m, n = load(args.m), load(args.n)
    num, den, signed = args.ratio(m, n, detail=True)
    _emit({"numerator_order": num, "denominator_order": den, "signed_order": signed})
    return EXIT_OK


def _cmd_globlfun_ratio(args) -> int:
    _, load = _load_inputs(args)
    m, n = load(args.m), load(args.n)
    expr = globlfun.global_ratio_order(m, n)
    payload = {"expression": expr.render(), "constant": expr.const}
    if args.bind:
        data = _load_json(args.bind)
        bindings = {}
        for r in read_field(data, "z", list, []):
            key = globlfun.z_key(read_field(r, "a", str), read_field(r, "b", str))
            bindings[key] = read_field(r, "value", int)
        payload["value"] = expr.substitute(bindings)
    _emit(payload)
    return EXIT_OK


def _load_signs(args) -> chars_mod.SignTable:
    if not args.signs:
        return chars_mod.SignTable()
    return chars_mod.SignTable.from_json(_load_json(args.signs))


def _cmd_chars_predict(args) -> int:
    _, load = _load_inputs(args)
    m, n = load(args.m), load(args.n)
    out = chars_mod.predict_multiplicity(m, n, _load_signs(args))
    payload = {"d": out["d"], "character": _character_json(out.get("character"))}
    if "reason" in out:
        payload["reason"] = out["reason"]
    _emit(payload)
    return EXIT_OK if out["d"] else EXIT_NO


def _cmd_chars_automorphy(args) -> int:
    _, load = _load_inputs(args)
    m, n = load(args.m), load(args.n)
    out = chars_mod.automorphy_test(m, n, _load_signs(args))
    _emit(out)
    return EXIT_OK if out["automorphic"] else EXIT_NO


def _cmd_chars_supercuspidal(args) -> int:
    _, load = _load_inputs(args)
    m = load(args.m)
    if args.alpha:
        data = _load_json(args.alpha)
        values = {}
        for r in read_field(data, "values", list):
            side, weil = read_field(r, "side", str, "M"), read_field(r, "weil", str)
            key = (side, weil, read_field(r, "d", int), read_field(r, "a", int, 1))
            if key in values:
                raise ParseError("two alpha rows with side {}, weil {}, d {}, a {}".format(*key))
            values[key] = read_field(r, "value", int)
        alpha = chars_mod.CharacterAssignment.of(values)
        ok = chars_mod.supercuspidal_support(m, alpha)
        _emit({"supercuspidal": ok})
        return EXIT_OK if ok else EXIT_NO
    gapless = chars_mod.without_gaps(m)
    cands = chars_mod.alternating_characters(m) if gapless else []
    _emit(
        {
            "without_gaps": gapless,
            "alternating_characters": [_character_json(c) for c in cands],
        }
    )
    return EXIT_OK if cands else EXIT_NO


def _cmd_chars_ggp(args) -> int:
    _, load = _load_inputs(args)
    m, n = load(args.m), load(args.n)
    c = chars_mod.ggp_character(m, n, _load_signs(args))
    _emit({"character": _character_json(c)})
    return EXIT_OK


def _cmd_glbranch_decide(args) -> int:
    _, load = _load_inputs(args)
    m, n = load(args.m), load(args.n)
    out = glbranch.decide_gl_branching(m, n)
    _emit(out)
    if out["inconclusive"]:
        return EXIT_NO
    return EXIT_OK if out["hom_nonzero"] else EXIT_NO


def _cmd_glbranch_support(args) -> int:
    symtab, _ = _load_inputs(args)
    prod = glbranch.parse_product(args.product, symtab)
    sup = glbranch.support(prod)
    _emit(
        {
            "rank": prod.rank,
            "support": {
                line: [
                    {"exp": fmt_half(e), "mult": c} for e, c in sorted(cnt.items())
                ]
                for line, cnt in sup.items()
            },
        }
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    """Every pair of the two universes with its relevance and signed ratio order.

    The payload is the one ``_emit`` would print, written one row at a time,
    so memory does not grow with the output.  The bound is checked before
    the first byte, so an error is still the only thing on stdout: once the
    first universe has a parameter, the partner universe is listed until it
    holds more than ``--bound`` parameters, then the first universe until
    the two sizes multiply past the bound.  Each parameter is rendered, and
    its share of the ratio's denominator computed, once per call.
    """
    _check_positive("--bound", args.bound)
    _check_positive("--max-mult", args.max_mult)
    symtab, _ = _load_inputs(args)
    parity = args.parity
    partner = {"symplectic": "orthogonal", "orthogonal": "symplectic",
               "conjugate-symplectic": "conjugate-orthogonal",
               "conjugate-orthogonal": "conjugate-symplectic", "gl": "gl"}[parity]

    def universe(dim: int, par: str):
        for p in enumerate_params(dim, symtab, par, max_mult=args.max_mult):
            yield p, json.dumps(render_param(p)), lfun._self_order(p)

    ms, ns = [], None
    for item in universe(args.dim, parity):
        if ns is None:  # an empty first universe has no rows and lists no partners
            ns = list(islice(universe(args.partner_dim, partner), args.bound + 1))
        if not ns:
            break
        ms.append(item)
        if len(ms) * len(ns) > args.bound:
            raise BudgetError(f"enumeration bound {args.bound} exceeded")
    ns = ns or []
    write = sys.stdout.write
    write(f'{{\n  "bound": {args.bound},\n  "rows": [')
    sep = "\n"
    for m, m_text, m_den in ms:
        head = f'    {{\n      "m": {m_text},\n      "n": '
        for n, n_text, n_den in ns:
            relevant = "true" if rel.check_relevant(m, n) else "false"
            # the numerator is symmetric: either parameter may come first
            order = lfun._cross_order(m, n) - m_den - n_den
            write(f'{sep}{head}{n_text},\n      "relevant": {relevant},\n'
                  f'      "signed_order": {order}\n    }}')
            sep = ",\n"
    tail = "\n  ]" if ms else "]"
    write(f'{tail},\n  "visited": {len(ms) * len(ns)}\n}}\n')
    return EXIT_OK


# ---------------------------------------------------------------------------
# worked-example registry


def _registry():
    symtab = SymbolTable(
        [repcore.WeilSymbol("beta", 1, repcore.ORTH, "beta")]
    )

    def counterexample_1():
        m = parse_param("1:D1:A10", symtab, "symplectic")
        n = parse_param("1:D1:A5 + 1:D7:A1 + 1:D9:A1", symtab, "orthogonal")
        computed = {
            "signed_order": lfun.bessel_ratio_order(m, n),
            "relevant": rel.is_relevant(m, n),
        }
        expected = {"signed_order": 0, "relevant": False}
        return expected, computed

    def counterexample_2():
        m = parse_param("1:D3:A4 + 1:D5:A4", symtab, "symplectic")
        n = parse_param("1:D3:A3 + 1:D5:A5", symtab, "orthogonal")
        num, den, signed = lfun.bessel_ratio_order(m, n, detail=True)
        computed = {
            "numerator_order": num,
            "denominator_order": den,
            "signed_order": signed,
            "relevant": rel.is_relevant(m, n),
        }
        expected = {
            "numerator_order": 25,
            "denominator_order": 20,
            "signed_order": 5,
            "relevant": True,
        }
        return expected, computed

    def onedim(nval: int, beta: str):
        mstr = f"1:D1:A{2 * nval}"
        if beta == "trivial":
            nstr = f"1:D1:A1 + 1:D1:A{2 * nval - 1}"
        else:
            nstr = f"beta:D1:A1 + 1:D1:A{2 * nval - 1}"
        m = parse_param(mstr, symtab, "symplectic")
        n = parse_param(nstr, symtab, "orthogonal")
        num, den, signed = lfun.bessel_ratio_order(m, n, detail=True)
        expected_num = 2 * nval if beta == "trivial" else 2 * nval - 1
        expected_signed = 1 if (nval == 1 and beta == "trivial") else 0
        return (
            {"numerator_order": expected_num, "signed_order": expected_signed},
            {"numerator_order": num, "denominator_order": den, "signed_order": signed},
        )

    def maj_family(nval: int):
        n_param = parse_param(
            " + ".join(f"1:D{2 * j - 1}:A1" for j in range(1, nval + 1)),
            symtab,
            "orthogonal",
        )
        pattern = {}
        for mask in range(1 << nval):
            terms = []
            for i in range(1, nval + 1):
                if mask & (1 << (i - 1)):
                    terms.append(f"1:D1:A{2 * i}")
                else:
                    terms.append(f"1:D{2 * i}:A1")
            m = parse_param(" + ".join(terms), symtab, "symplectic")
            subset = tuple(i for i in range(1, nval + 1) if mask & (1 << (i - 1)))
            pattern[subset] = rel.is_relevant(m, n_param)
        relevant_subsets = sorted(k for k, v in pattern.items() if v)
        return (
            {"relevant_subsets": [[], [1]]},
            {"relevant_subsets": [list(s) for s in relevant_subsets]},
        )

    return {
        "sec14-counterexample-1": lambda args: counterexample_1(),
        "sec14-counterexample-2": lambda args: counterexample_2(),
        "sec12-onedim-characters": lambda args: onedim(args.n, args.beta),
        "sec7-MAJ-family": lambda args: maj_family(args.n),
    }


def _cmd_reproduce(args) -> int:
    registry = _registry()
    if args.id not in registry:
        raise AparamError(
            f"unknown example id {args.id!r}; known: {', '.join(sorted(registry))}"
        )
    expected, computed = registry[args.id](args)
    ok = all(computed.get(k) == v for k, v in expected.items())
    _emit({"id": args.id, "ok": ok, "expected": expected, "computed": computed})
    return EXIT_OK if ok else EXIT_ERROR


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises ParseError on a usage error, which ``run`` prints as {"error": ...} with exit 1."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="aparam", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_symbols(p):
        p.add_argument("--symbols", help="symbol table JSON file")

    p = sub.add_parser("parse", help="parse an expression to canonical JSON")
    p.add_argument("expr")
    p.add_argument("--parity", default="gl", choices=repcore.PARITIES)
    add_symbols(p)
    p.set_defaults(func=_cmd_parse)

    grp = sub.add_parser("relevance", help="relevance of a pair").add_subparsers(
        dest="sub", required=True
    )
    p = grp.add_parser("check")
    p.add_argument("m")
    p.add_argument("n", help="parameter file or a directory of candidates")
    add_symbols(p)
    p.set_defaults(func=_cmd_relevance_check)
    p = grp.add_parser("special-pairs")
    p.add_argument("m")
    p.add_argument("n")
    add_symbols(p)
    p.set_defaults(func=_cmd_relevance_special)
    p = grp.add_parser("delta-class")
    p.add_argument("m")
    p.add_argument("--bound", type=int, default=100_000)
    add_symbols(p)
    p.set_defaults(func=_cmd_relevance_delta)

    grp = sub.add_parser("lfun", help="local L-order calculus").add_subparsers(
        dest="sub", required=True
    )
    p = grp.add_parser("ord")
    p.add_argument("param")
    p.add_argument("--at", required=True, help="positive half-integer, e.g. 1/2")
    add_symbols(p)
    p.set_defaults(func=_cmd_lfun_ord)
    for name, ratio in (("gl-ratio", lfun.gl_ratio_order), ("bessel-ratio", lfun.bessel_ratio_order)):
        p = grp.add_parser(name)
        p.add_argument("m")
        p.add_argument("n")
        add_symbols(p)
        p.set_defaults(func=_cmd_lfun_ratio, ratio=ratio)

    grp = sub.add_parser("globlfun", help="global L-order calculus").add_subparsers(
        dest="sub", required=True
    )
    p = grp.add_parser("ratio")
    p.add_argument("m")
    p.add_argument("n")
    p.add_argument("--bind", help="bindings JSON: {\"z\": [{\"a\",\"b\",\"value\"}]}")
    add_symbols(p)
    p.set_defaults(func=_cmd_globlfun_ratio)

    grp = sub.add_parser("chars", help="sign characters").add_subparsers(
        dest="sub", required=True
    )
    for name, fn, needs_n in (
        ("predict", _cmd_chars_predict, True),
        ("automorphy", _cmd_chars_automorphy, True),
        ("ggp-character", _cmd_chars_ggp, True),
    ):
        p = grp.add_parser(name)
        p.add_argument("m")
        if needs_n:
            p.add_argument("n")
        p.add_argument("--signs", help="sign table JSON file")
        add_symbols(p)
        p.set_defaults(func=fn)
    p = grp.add_parser("supercuspidal")
    p.add_argument("m")
    p.add_argument("--alpha", help="character JSON file; omit to enumerate")
    p.add_argument("--signs", help="unused; accepted for uniformity")
    add_symbols(p)
    p.set_defaults(func=_cmd_chars_supercuspidal)

    grp = sub.add_parser("glbranch", help="general-linear branching").add_subparsers(
        dest="sub", required=True
    )
    p = grp.add_parser("decide")
    p.add_argument("m")
    p.add_argument("n")
    add_symbols(p)
    p.set_defaults(func=_cmd_glbranch_decide)
    p = grp.add_parser("support")
    p.add_argument("product", help="e.g. 'St2 x Z2@0.5'")
    add_symbols(p)
    p.set_defaults(func=_cmd_glbranch_support)

    p = sub.add_parser("enumerate", help="tabulate pairs within bounds")
    p.add_argument("--parity", default="symplectic", choices=repcore.PARITIES)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--partner-dim", type=int, required=True)
    p.add_argument("--max-mult", type=int, default=None)
    p.add_argument("--bound", type=int, default=100_000)
    add_symbols(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("reproduce", help="run a registered worked example")
    p.add_argument("id")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--beta", default="nontrivial", choices=("trivial", "nontrivial"))
    p.set_defaults(func=_cmd_reproduce)

    return ap


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except AparamError as exc:
        _emit({"error": str(exc)})
        return EXIT_ERROR
    except (OSError, json.JSONDecodeError) as exc:
        _emit({"error": str(exc)})
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
