import json
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from aparam.cli import build_parser, run
from aparam.repcore import PARITIES, BudgetError
from genutil import TABLE


def invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def pair_files(tmp_path):
    m = write(tmp_path, "m.json", {"parity": "symplectic", "expr": "1:D3:A4 + 1:D5:A4"})
    n = write(tmp_path, "n.json", {"parity": "orthogonal", "expr": "1:D3:A3 + 1:D5:A5"})
    return m, n


def test_parse_command():
    code, out = invoke(["parse", "1:D1:A4 + 2*1:D2:A1", "--parity", "gl"])
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 8 and data["canonical"] == "1:D1:A4 + 2*1:D2:A1"


def test_parse_undeclared_symbol_errors():
    code, out = invoke(["parse", "ghost:D1:A1"])
    assert code == 1 and "error" in json.loads(out)


def test_relevance_check_exit_codes(tmp_path, pair_files):
    m, n = pair_files
    code, out = invoke(["relevance", "check", m, n])
    assert code == 0 and json.loads(out)["relevant"]
    bad = write(tmp_path, "bad.json", {"parity": "orthogonal", "expr": "1:D1:A5 + 1:D7:A1 + 1:D9:A1"})
    m10 = write(tmp_path, "m10.json", {"parity": "symplectic", "expr": "1:D1:A10"})
    code, out = invoke(["relevance", "check", m10, bad])
    data = json.loads(out)
    assert code == 2 and not data["relevant"] and "Arthur index" in data["reason"]


def test_relevance_batch(tmp_path):
    m = write(tmp_path, "m.json", {"parity": "gl", "expr": "1:D1:A4"})
    d = tmp_path / "cands"
    d.mkdir()
    (d / "a.json").write_text(json.dumps({"parity": "gl", "expr": "1:D1:A3"}))
    (d / "b.json").write_text(json.dumps({"parity": "gl", "expr": "1:D1:A1"}))
    (d / "c.json").write_text(json.dumps({"parity": "gl", "expr": "1:D3:A1"}))
    code, out = invoke(["relevance", "check", m, str(d)])
    data = json.loads(out)
    assert code == 0 and data["relevant_count"] == 1
    assert [r["relevant"] for r in data["batch"]] == [True, False, False]


def test_bessel_ratio_command(pair_files):
    m, n = pair_files
    code, out = invoke(["lfun", "bessel-ratio", m, n])
    data = json.loads(out)
    assert code == 0
    assert data == {"numerator_order": 25, "denominator_order": 22, "signed_order": 3}


def test_lfun_ord_command(tmp_path):
    p = write(tmp_path, "p.json", {"parity": "gl", "expr": "1:D1:A3"})
    code, out = invoke(["lfun", "ord", p, "--at", "1"])
    assert code == 0 and json.loads(out)["order"] == 1
    code, out = invoke(["lfun", "ord", p, "--at", "1/2"])
    assert code == 0 and json.loads(out)["order"] == 0


def test_gl_ratio_command(tmp_path):
    m = write(tmp_path, "m.json", {"parity": "gl", "expr": "1:D1:A2"})
    n = write(tmp_path, "n.json", {"parity": "gl", "expr": "1:D1:A1"})
    code, out = invoke(["lfun", "gl-ratio", m, n])
    assert json.loads(out)["signed_order"] == 1


def test_gl_ratio_rejects_classical_parity(pair_files):
    m, n = pair_files
    code, out = invoke(["lfun", "gl-ratio", m, n])
    assert code == 1 and json.loads(out) == {"error": "gl ratio needs two gl parameters"}


def test_parameter_files_read_once(tmp_path, monkeypatch):
    import aparam.cli as cli

    symbols = {"symbols": [{"id": "V", "dim": 2, "duality": "symplectic", "dual_id": "V"}]}
    m = write(tmp_path, "m.json", {"parity": "symplectic", "expr": "V:D1:A1", **symbols})
    n = write(tmp_path, "n.json", {"parity": "orthogonal", "expr": "1:D1:A3"})
    reads = []
    real = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda path: reads.append(path) or real(path))
    code, out = invoke(["lfun", "bessel-ratio", m, n])
    assert code == 0 and sorted(reads) == sorted([m, n])
    # an unreadable parameter file still reports its own error
    (tmp_path / "bad.json").write_text("{")
    code, out = invoke(["lfun", "bessel-ratio", m, str(tmp_path / "bad.json")])
    assert code == 1 and "error" in json.loads(out)


def test_globlfun_ratio_command(tmp_path):
    symbols = {
        "symbols": [
            {"id": "V", "dim": 2, "duality": "symplectic", "dual_id": "V"},
            {"id": "W", "dim": 1, "duality": "orthogonal", "dual_id": "W"},
        ]
    }
    m = write(
        tmp_path,
        "m.json",
        {"parity": "symplectic", "expr": "V:D1:A1 + W:D1:A2", **symbols},
    )
    n = write(tmp_path, "n.json", {"parity": "orthogonal", "expr": "V:D1:A2 + W:D1:A1", **symbols})
    code, out = invoke(["globlfun", "ratio", m, n])
    data = json.loads(out)
    assert code == 0 and data["constant"] == 0 and data["expression"] == "- z(V,W)"
    binds = write(tmp_path, "z.json", {"z": [{"a": "V", "b": "W", "value": 2}]})
    code, out = invoke(["globlfun", "ratio", m, n, "--bind", binds])
    assert json.loads(out)["value"] == -2


def test_chars_commands(tmp_path):
    symbols = {
        "symbols": [
            {"id": "V", "dim": 2, "duality": "symplectic", "dual_id": "V"},
            {"id": "W", "dim": 1, "duality": "orthogonal", "dual_id": "W"},
        ]
    }
    m = write(tmp_path, "m.json", {"parity": "symplectic", "expr": "V:D1:A1 + W:D1:A2", **symbols})
    n = write(tmp_path, "n.json", {"parity": "orthogonal", "expr": "V:D1:A2 + W:D1:A1", **symbols})
    signs_bad = write(tmp_path, "s1.json", {"eps": [{"a": "V", "b": "W", "value": -1}]})
    signs_ok = write(tmp_path, "s2.json", {"eps": [{"a": "V", "b": "W", "value": 1}]})
    code, out = invoke(["chars", "automorphy", m, n, "--signs", signs_bad])
    assert code == 2 and not json.loads(out)["automorphic"]
    code, out = invoke(["chars", "automorphy", m, n, "--signs", signs_ok])
    assert code == 0 and json.loads(out)["automorphic"]
    code, out = invoke(["chars", "predict", m, n, "--signs", signs_ok])
    data = json.loads(out)
    assert code == 0 and data["d"] == 1 and data["character"]


def test_chars_supercuspidal(tmp_path):
    m = write(tmp_path, "m.json", {"parity": "symplectic", "expr": "1:D2:A1 + 1:D4:A1"})
    code, out = invoke(["chars", "supercuspidal", m])
    data = json.loads(out)
    assert code == 0 and data["without_gaps"] and len(data["alternating_characters"]) == 1
    alpha = write(
        tmp_path,
        "alpha.json",
        {"values": [
            {"side": "M", "weil": "1", "d": 2, "a": 1, "value": -1},
            {"side": "M", "weil": "1", "d": 4, "a": 1, "value": 1},
        ]},
    )
    code, out = invoke(["chars", "supercuspidal", m, "--alpha", alpha])
    assert code == 0 and json.loads(out)["supercuspidal"]


def test_glbranch_commands(tmp_path):
    code, out = invoke(["glbranch", "support", "St2 x Z2@0.5"])
    data = json.loads(out)
    assert code == 0 and data["rank"] == 4
    assert data["support"]["1"] == [
        {"exp": "-1/2", "mult": 1},
        {"exp": 0, "mult": 1},
        {"exp": "1/2", "mult": 1},
        {"exp": 1, "mult": 1},
    ]
    m = write(tmp_path, "m.json", {"parity": "gl", "expr": "1:D1:A4"})
    n = write(tmp_path, "n.json", {"parity": "gl", "expr": "1:D1:A3"})
    code, out = invoke(["glbranch", "decide", m, n])
    assert code == 0 and json.loads(out)["hom_nonzero"]
    n2 = write(tmp_path, "n2.json", {"parity": "gl", "expr": "1:D3:A1"})
    code, out = invoke(["glbranch", "decide", m, n2])
    assert code == 2 and not json.loads(out)["hom_nonzero"]
    chan_m = write(tmp_path, "cm.json", {"parity": "gl", "expr": "1:D1:A3 + 2*1:D1:A1"})
    chan_n = write(tmp_path, "cn.json", {"parity": "gl", "expr": "1:D2:A1 + 1:D1:A2"})
    code, out = invoke(["glbranch", "decide", chan_m, chan_n])
    assert code == 2 and json.loads(out)["inconclusive"]


def test_enumerate_command():
    code, out = invoke(
        ["enumerate", "--parity", "symplectic", "--dim", "6", "--partner-dim", "6"]
    )
    data = json.loads(out)
    assert code == 0
    assert data["visited"] == len(data["rows"]) <= data["bound"]
    for row in data["rows"]:
        if row["relevant"]:
            assert row["signed_order"] >= 0


def test_enumerate_bound_enforced():
    code, out = invoke(
        ["enumerate", "--parity", "symplectic", "--dim", "6", "--partner-dim", "6", "--bound", "5"]
    )
    assert code == 1 and "bound" in json.loads(out)["error"]


def test_enumerate_bound_on_deep_universe():
    # the gl universe of dimension 399 has thousands of terms: the walk must
    # not recurse once per term, and the partners are listed only up to the bound
    code, out = invoke(
        ["enumerate", "--parity", "gl", "--dim", "400", "--partner-dim", "399", "--bound", "1"]
    )
    assert (code, json.loads(out)) == (1, {"error": "enumeration bound 1 exceeded"})


@pytest.mark.parametrize("parity", PARITIES)
def test_enumerate_stream_is_the_json_dump(parity, tmp_path):
    # the rows are written from a template; they must be what json.dumps prints
    table = write(tmp_path, "table.json", TABLE.to_json())
    empty, verdicts = set(), set()
    dims = [(1, 2), (2, 1), (2, 3), (3, 2)] + ([] if parity == "gl" else [(4, 3), (4, 5), (5, 4)])
    for dim, pdim in dims:
        argv = ["enumerate", "--parity", parity, "--dim", str(dim),
                "--partner-dim", str(pdim), "--symbols", table]
        code, out = invoke(argv)
        data = json.loads(out)
        assert code == 0 and out == json.dumps(data, sort_keys=True, indent=2) + "\n"
        assert data["visited"] == len(data["rows"])
        empty.add(not data["rows"])
        verdicts.update(row["relevant"] for row in data["rows"])
    assert verdicts == {False, True}
    # a gl universe of nonnegative dimension is never empty
    assert empty == ({False} if parity == "gl" else {False, True})


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_nonpositive_bound_is_a_usage_error(bound, tmp_path):
    m = write(tmp_path, "m.json", {"parity": "symplectic", "expr": "1:D1:A2 + 1:D1:A4"})
    for argv in (["enumerate", "--dim", "4", "--partner-dim", "3"], ["relevance", "delta-class", m]):
        code, out = invoke(argv + ["--bound", bound])
        assert (code, json.loads(out)) == (1, {"error": f"--bound must be positive, got {bound}"})


def test_enumerate_bound_is_a_budget_error():
    # 5 x 3 rows; the golden enumerate-bound-* cases pin the output at 14 and 15
    argv = ["enumerate", "--parity", "symplectic", "--dim", "4", "--partner-dim", "3", "--bound", "14"]
    args = build_parser().parse_args(argv)
    with pytest.raises(BudgetError, match="^enumeration bound 14 exceeded$"):
        args.func(args)


def test_reproduce_registry():
    code, out = invoke(["reproduce", "sec14-counterexample-1"])
    assert code == 0 and json.loads(out)["ok"]
    code, out = invoke(["reproduce", "sec12-onedim-characters", "--n", "3", "--beta", "nontrivial"])
    data = json.loads(out)
    assert code == 0 and data["computed"]["numerator_order"] == 5
    code, out = invoke(["reproduce", "sec7-MAJ-family", "--n", "2"])
    assert code == 0 and json.loads(out)["ok"]
    # the published rank-32 orders are not reproducible; the entry reports both
    code, out = invoke(["reproduce", "sec14-counterexample-2"])
    data = json.loads(out)
    assert code == 1 and not data["ok"]
    assert data["computed"]["numerator_order"] == 25
    assert data["computed"]["denominator_order"] == 22
    code, out = invoke(["reproduce", "no-such-id"])
    assert code == 1


def test_byte_determinism(pair_files):
    m, n = pair_files
    outs = {invoke(["lfun", "bessel-ratio", m, n])[1] for _ in range(3)}
    assert len(outs) == 1
    outs = {invoke(["relevance", "check", m, n])[1] for _ in range(3)}
    assert len(outs) == 1


def test_delta_class_order_ignores_hash_seed(tmp_path):
    # members that differ only in multiplicities must not keep set order
    paths = [
        write(tmp_path, "gl.json", {"parity": "gl", "expr": "3*1:D1:A2"}),
        write(tmp_path, "sp.json", {"parity": "symplectic", "expr": "1:D1:A2 + 1:D2:A1 + 1:D2:A3"}),
    ]
    script = (
        "import sys\nfrom aparam.cli import run\n"
        "for p in sys.argv[1:]: run(['relevance', 'delta-class', p])"
    )
    src = str(Path(__file__).parent.parent / "src")
    outs = []
    for seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        argv = [sys.executable, "-c", script, *paths]
        outs.append(subprocess.run(argv, env=env, capture_output=True, check=True).stdout)
    assert outs[0] == outs[1] and outs[0].count(b'"count"') == 2


def test_chars_ggp_character_command(tmp_path):
    m = write(tmp_path, "m.json", {"parity": "symplectic", "expr": "1:D2:A1 + 1:D4:A1"})
    n = write(tmp_path, "n.json", {"parity": "orthogonal", "expr": "1:D1:A1 + 1:D3:A1"})
    code, out = invoke(["chars", "ggp-character", m, n])
    data = json.loads(out)
    assert code == 0
    values = {(r["side"], r["weil"], r["d"]): r["value"] for r in data["character"]}
    assert values[("M", "1", 2)] == -1 and values[("M", "1", 4)] == 1


@pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).parent / "golden").glob("malformed-*.json")),
    ids=lambda p: p.stem,
)
def test_malformed_input_reports_error(path, tmp_path):
    # the golden corpus pins each message; here only the contract: error JSON, exit 1
    from test_golden import replay

    code, out = replay(json.loads(path.read_text()), tmp_path)
    assert code == 1 and list(json.loads(out)) == ["error"]


def test_usage_errors_keep_exit_contract():
    # argparse's wording (the list of subcommands, its quoting) varies across
    # Python versions, so an unknown subcommand is checked by contract only
    code, out = invoke(["frobnicate", "m.json"])
    assert code == 1 and list(json.loads(out)) == ["error"]
    buf = io.StringIO()
    with redirect_stdout(buf), pytest.raises(SystemExit) as exc:
        run(["relevance", "delta-class", "--help"])
    assert exc.value.code == 0 and "--bound" in buf.getvalue()
