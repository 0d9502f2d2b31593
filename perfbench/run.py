"""Seeded end-to-end and per-layer benchmark for aparam.

    python3 perfbench/run.py                       # every workload, seed 1, 20 s each
    python3 perfbench/run.py --workload pair-mix --seed 3 --seconds 20 --trace 0

One workload runs in one process: set-up (import of aparam, seeded inputs,
input files), a timed phase of whole rounds of calls until ``--seconds`` of
call time have passed, each round checked after it runs; ``items_per_s`` is
the median of the rounds' throughputs.  With
``--trace 1`` the timed phase is instead a fixed number of rounds per
workload (``TRACE_ROUNDS``), run with every public function of the seven
layers wrapped, so that counts and self times total a fixed amount of work;
a replay of the same rounds in a fresh untraced process gives the tracing
overhead.  The last line of standard output is one JSON
object; every line before it is a readable report.  The exit code is 0 only
if every output is correct.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits nonzero and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# the keys of workloads.WORKLOADS, known before aparam can be imported
NAMES = ("glbranch-corpus", "enumerate-sweep", "pair-mix", "delta-class")
# Set-ups per run: this process, then fresh processes before and after the
# timed phase, so that the median spans the run rather than one moment of it.
SETUP_CHILDREN_BEFORE = SETUP_CHILDREN_AFTER = 4
SPAN_FILE_LIMIT = 200_000
CHILD_TIMEOUT_S = 170


def load_workloads():
    """Import aparam from this checkout's src/ and the benchmark's workloads."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import aparam
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import aparam from {ROOT / 'src'}: {exc}")
    if Path(aparam.__file__).resolve().parent != ROOT / "src" / "aparam":
        sys.exit(f"perfbench: aparam was imported from {aparam.__file__}, not from src/")
    return importlib.import_module("workloads")


def setup(name: str, seed: int, workdir: Path):
    """Import, make round 0 and write its files; return (workload, round, seconds)."""
    t0 = time.perf_counter()
    workloads = load_workloads()
    wl = workloads.WORKLOADS[name](seed, workdir)
    first = wl.prepare(0)
    return wl, first, time.perf_counter() - t0


def child(args: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "run.py")] + args
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sha(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def lfun_blocks(tr, rep) -> None:
    tr.counts["lfun.blocks"] += len(rep.blocks)
    tr.counts["lfun.useful_blocks"] += sum(1 for b in rep.blocks if b[0].trivial_mult)


HOOKS = {
    "glbranch.derivative_products": lambda tr, r: tr.counts.update({"glbranch.candidates": len(r)}),
    "lfun.tensor_formal": lfun_blocks,
    "lfun.sym2_formal": lfun_blocks,
    "lfun.alt2_formal": lfun_blocks,
    "repcore.enumerate_params": lambda tr, r: tr.counts.update({"repcore.params_yielded": 1}),
    "relevance.delta_class_search": lambda tr, r: tr.counts.update({"relevance.delta_members": len(r)}),
}


class Failure:
    """An exception raised by a call; it fails every item of the call."""

    def __init__(self, text: str):
        self.text = text


class Sweep:
    """What the timed phase leaves once each round is checked and dropped."""

    def __init__(self):
        self.wall = 0.0  # summed call time; in a traced run, summed item spans
        self.latencies: list[float] = []  # of calls that complete one item
        self.calls = self.attempted = self.failed = self.rounds = 0
        self.round_rates: list[float] = []  # items completed per second, per round
        self.peak_rss_mib = 0.0
        self.in_digests: list[str] = []
        self.out_digests: list[str] = []
        self.tracebacks: list[str] = []  # the first few, for the report


def sweep(wl, first, seconds: float, max_rounds: int, tracer, check: bool = True) -> Sweep:
    """Run whole rounds until ``seconds`` of call time, or ``max_rounds`` rounds.

    Every round holds the same mix of inputs, so each round's throughput is
    a sample of the same quantity; the run reports their median, which a
    burst of load from other processes on the host moves less than the mean.

    Between rounds, with the clock and the tracer stopped, the round just run
    is checked and dropped and the next one is made, so memory holds one
    round at a time.  The peak RSS is read once, after the first round's
    calls and before its check: a fixed amount of work, so a faster program
    running more rounds (and fragmenting the heap more) does not read as
    using more memory.
    """
    s, rnd, clock = Sweep(), first, time.perf_counter
    item_idx = tracer.name_id("bench.item", "bench") if tracer else None
    while True:
        if rnd is None:
            rnd = wl.prepare(s.rounds)
        outs, round_wall = [], 0.0
        if tracer:
            tracer.install(HOOKS)
        for unit in rnd.units:
            if tracer:
                tracer.item_id = s.calls
                span = tracer.open(item_idx)
            t = clock()
            try:
                out = wl.call(unit)
            except Exception:  # a failed item is counted and the sweep goes on
                out = Failure(traceback.format_exc())
            dt = clock() - t
            if tracer:
                tracer.close(span)
                dt = tracer.end[span] - tracer.start[span]
            round_wall += dt
            s.calls += 1
            if unit.items == 1:
                s.latencies.append(dt)
            outs.append(out)
        if tracer:
            tracer.uninstall()
        s.wall += round_wall
        if s.rounds == 0:
            s.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if check:
            texts, attempted, failed = [], 0, 0
            for unit, out in zip(rnd.units, outs):
                attempted += unit.items
                if isinstance(out, Failure):
                    failed += unit.items
                    if len(s.tracebacks) < 3:
                        s.tracebacks.append(out.text)
                    texts.append("failure")
                else:
                    failed += wl.check(unit, out)
                    texts.append(wl.render(out))
            s.attempted += attempted
            s.failed += failed
            s.round_rates.append((attempted - failed) / round_wall)
            s.in_digests.append(sha([rnd.text]))
            s.out_digests.append(sha(texts))
        s.rounds += 1
        rnd = None
        if (max_rounds and s.rounds >= max_rounds) or (not max_rounds and s.wall >= seconds):
            return s


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_one(args) -> int:
    workdir = OUT / f"{args.workload}-s{args.seed}{'-trace' if args.trace else ''}"
    if args.setup_only or args.replay:
        workdir = Path(args.workdir)
    else:
        shutil.rmtree(workdir, ignore_errors=True)
    wl, first, setup_s = setup(args.workload, args.seed, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.replay:
        print(json.dumps({"wall_s": sweep(wl, first, 0, args.replay, None, check=False).wall}))
        return 0

    def setup_samples(first_id: int, count: int) -> list[float]:
        return [
            child(["--workload", args.workload, "--seed", str(args.seed),
                   "--setup-only", "--workdir", str(workdir / f"setup{i}")])["setup_s"]
            for i in range(first_id, first_id + count)
        ]

    setups = [setup_s] + setup_samples(1, SETUP_CHILDREN_BEFORE)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    s = sweep(wl, first, args.seconds, wl.TRACE_ROUNDS if tracer else 0, tracer)
    setups += setup_samples(1 + SETUP_CHILDREN_BEFORE, SETUP_CHILDREN_AFTER)
    for text in s.tracebacks:
        sys.stderr.write(text)
    (workdir / "digests.json").write_text(
        json.dumps({"inputs": s.in_digests, "outputs": s.out_digests}, indent=1) + "\n"
    )
    done = s.attempted - s.failed
    lat = sorted(s.latencies)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{s.rounds} rounds, {s.calls} calls, {s.attempted} items")
    print(f"  digest inputs   round0 {s.in_digests[0]}  all {sha(s.in_digests)}")
    print(f"  digest outputs  round0 {s.out_digests[0]}  all {sha(s.out_digests)}")
    print(f"  setup_s       {statistics.median(setups):10.4f} s      (median of {len(setups)})")
    items_per_s = statistics.median(s.round_rates)
    print(f"  items_per_s   {items_per_s:10.2f} 1/s    (median of {s.rounds} rounds; "
          f"{done} items in {s.wall:.3f} s)")
    if len(lat) >= 200:
        print(f"  item_p50_ms   {percentile(lat, 0.50) * 1e3:10.3f} ms     (n={len(lat)})")
        print(f"  item_p95_ms   {percentile(lat, 0.95) * 1e3:10.3f} ms     (n={len(lat)})")
    print(f"  peak_rss_mib  {s.peak_rss_mib:10.2f} MiB")
    print(f"  fail_ratio    {s.failed / s.attempted:10.6f}        ({s.failed}/{s.attempted})")

    if tracer:
        metrics = layer_report(args, wl, tracer, s.rounds, workdir)
    else:
        metrics = {
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": s.peak_rss_mib, "unit": "MiB"},
        }
    print(json.dumps({"correct": s.failed == 0, "attempted": s.attempted, "failed": s.failed,
                      "metrics": metrics}))
    return 0 if s.failed == 0 else 1


def layer_report(args, wl, tracer, nrounds, workdir) -> dict:
    import spans

    untraced = child(["--workload", args.workload, "--seed", str(args.seed),
                      "--replay", str(nrounds), "--workdir", str(workdir / "replay")])["wall_s"]
    per_layer, per_name, root = tracer.self_times()
    c = tracer.counts
    c["cli.stdout_bytes"] = wl.stdout_bytes
    print(f"  traced wall {root:.4f} s, untraced replay {untraced:.4f} s, "
          f"layer self times sum to {sum(per_layer.values()):.4f} s")
    for layer in spans.LAYERS + (spans.BENCH,):
        print(f"  {layer:10s} calls {c[f'{layer}.calls']:9d}  self {per_layer[layer]:9.4f} s  "
              f"{100 * per_layer[layer] / root if root else 0:5.1f} %")
    written = tracer.write(workdir / "spans.tsv", SPAN_FILE_LIMIT)
    (workdir / "self_times.json").write_text(json.dumps(
        {"layers": per_layer, "functions": per_name, "counts": dict(c),
         "spans": len(tracer.start), "spans_written": written}, indent=1, sort_keys=True) + "\n")
    print(f"  {len(tracer.start)} spans; the first {written} written to {workdir / 'spans.tsv'}")

    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = {"value": c[f"{layer}.calls"], "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": per_layer[layer], "unit": "s"}
    counters = {
        "glbranch.candidates": c["glbranch.candidates"],
        "lfun.blocks": c["lfun.blocks"],
        "repcore.params_yielded": c["repcore.params_yielded"],
        "relevance.delta_members": c["relevance.delta_members"],
        "cli.stdout_bytes": c["cli.stdout_bytes"],
    }
    for name, value in counters.items():
        metrics[name] = {"value": value, "unit": "B" if name.endswith("bytes") else "count"}
    blocks = c["lfun.blocks"]
    metrics["lfun.useful_block_ratio"] = {
        "value": c["lfun.useful_blocks"] / blocks if blocks else 0.0, "unit": "ratio"}
    metrics["repcore.parse_param.self_s"] = {
        "value": per_name.get("repcore.parse_param", 0.0), "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": root / untraced, "unit": "ratio"}
    return metrics


def run_all(args) -> int:
    """Every workload in its own process; a summary table at the end."""
    rows, ok = [], True
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        lines = proc.stdout.strip().splitlines()
        if lines[:-1]:
            print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "metrics": {}}
        ok &= proc.returncode == 0 and result["correct"]
        rows.append((name, result))
    print()
    for name, result in rows:
        cells = "  ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name:16s} correct={result['correct']}  {cells}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=NAMES, help="one workload; omit to run all four")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20,
                    help="call time of an untraced run; a traced run runs a fixed number of rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--replay", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
