"""Benchmark for idealconv: three workloads, end-to-end and per-layer.

    python3 bench/run.py                       every workload, every metric
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Each round of a workload runs in its own fresh process (bench/child.py),
one at a time, so memo caches start empty and nothing else competes for
the two CPUs.  A run makes whole cycles of rounds, one cycle per 10
seconds asked for (see cycles); a cycle is one round for each of the
workload's input sets, which all derive from --seed.  Every round is
preceded by a set-up-only process, so setup_s is the median of two
samples per round.

Without --trace a run reports every metric: untraced rounds give the
end-to-end metrics, then traced rounds the per-layer ones.  --trace 0
runs only the first part, --trace 1 only the second, so that a harness
timing the benchmark keeps tracing out of the end-to-end figures.  The
traced part alternates traced and untraced rounds and reports
trace.overhead_s (traced minus untraced cold-pass wall time).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics
(with all workloads, one such object per workload under "workloads").
Exit code 0 when a result is printed (a wrong answer shows as
"correct": false), 2 when the program or a round cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
ROUND_TIMEOUT_S = 120

# Input sets per cycle: fact-suite has no inputs to vary.
INPUT_SETS = {"finite-sweep": 4, "fact-suite": 1, "catalog-mix": 4}
WORKLOADS = tuple(INPUT_SETS)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_wall_s", "s"),
    ("question_p50_us", "us"),
    ("question_p99_us", "us"),
    ("peak_rss_mb", "MB"),
)
# (metric, unit, source): "span" sums self time of the spans named by the
# metric without its _s suffix; "calls" counts them; "count" is read from
# the round's counters.
PER_LAYER = (
    ("terms.classify_s", "s", "span"),
    ("terms.classify_calls", "count", "calls"),
    ("terms.member_s", "s", "span"),
    ("natset.eval_s", "s", "span"),
    ("pairset.eval_s", "s", "span"),
    ("bijections.preimage_s", "s", "span"),
    ("ideals.in_ideal_s", "s", "span"),
    ("ideals.in_ideal_calls", "count", "calls"),
    ("ideals.known_subset_s", "s", "span"),
    ("convergence.converges_s", "s", "span"),
    ("convergence.limits_s", "s", "span"),
    ("convergence.star_s", "s", "span"),
    ("convergence.verify_s", "s", "span"),
    ("convergence.decompose_s", "s", "span"),
    ("additivity.ap_s", "s", "span"),
    ("additivity.certify_s", "s", "span"),
    ("serialize.parse_s", "s", "span"),
    ("serialize.render_s", "s", "span"),
    ("finite.encode_s", "s", "span"),
    ("finite.brute_s", "s", "span"),
    ("finite.lemma_s", "s", "span"),
    ("finite.crosscheck_s", "s", "span"),
    ("bench.question_s", "s", "span"),
    ("terms.cache_entries", "count", "count"),
    ("ideals.cache_entries", "count", "count"),
    ("finite.checks", "count", "count"),
    ("convergence.star_yes", "count", "count"),
    ("convergence.star_no", "count", "count"),
    ("convergence.star_unknown", "count", "count"),
)


class RoundFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload, input_seed, mode, trace_file="-"):
    """Run one child process to its end and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(input_seed)]
    t0 = time.monotonic_ns()
    try:
        p = subprocess.run(
            cmd + [str(t0), mode, trace_file],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload} round timed out after {ROUND_TIMEOUT_S} s") from None
    if p.returncode != 0 or not p.stdout.strip():
        raise RoundFailed(f"{workload} round exited {p.returncode}: {p.stderr.strip()[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def input_seed(seed, k):
    return seed * 1000 + k


def quantile(sorted_vals, q):
    """Nearest-rank quantile of a sorted list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def cycles(seconds, trace):
    """Cycles in a run: one per 10 s asked for, one per 20 s when traced
    (every round then runs twice).  A cycle takes 9 to 12 s on the
    reference machine.  The count, not the time, is fixed, so every run of
    a given length asks the same rounds whatever the machine's speed."""
    return max(1, int(seconds / (20 if trace else 10) + 0.5))


def run_rounds(workload, seed, seconds, trace, log):
    start = time.monotonic()
    setups, rounds, plain_walls = [], [], []
    for _ in range(cycles(seconds, trace)):
        for k in range(INPUT_SETS[workload]):
            s = input_seed(seed, k)
            setups.append(spawn(workload, s, "setup")["setup_s"])
            if trace:
                r = spawn(workload, s, "traced", os.path.join(OUT, f"trace-{workload}-{k}.json"))
                plain_walls.append(spawn(workload, s, "plain")["wall_s"])
            else:
                r = spawn(workload, s, "plain")
            setups.append(r["setup_s"])
            rounds.append(r)
            log(f"  round {len(rounds)} seed {s}: wall {r['wall_s']:.4f} s, "
                f"{len(r['question_ns'])} questions, {r['failed']} failed")
    return setups, rounds, plain_walls, time.monotonic() - start


def end_to_end(rounds, setups):
    med = statistics.median
    q = sorted(x for r in rounds for x in r["question_ns"])
    values = {
        "setup_s": med(setups),
        "wall_s": med(r["wall_s"] for r in rounds),
        "warm_wall_s": med(r["warm_wall_s"] for r in rounds),
        "question_p50_us": quantile(q, 0.50) / 1e3,
        "question_p99_us": quantile(q, 0.99) / 1e3,
        "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
    }
    metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    return metrics, {"question_samples": len(q), "setup_samples": len(setups)}


def per_layer(rounds, plain_walls, cli):
    med = statistics.median
    metrics = {}
    for name, unit, src in PER_LAYER:
        if src == "count":
            v = med(r["counts"].get(name, 0) for r in rounds)
        else:
            span = name.rsplit("_", 1)[0]
            v = med(r["layers"].get(span, (0.0, 0))[0 if src == "span" else 1] for r in rounds)
        metrics[name] = {"value": v, "unit": unit}
    checks = metrics["finite.checks"]["value"]
    busy = metrics["finite.lemma_s"]["value"] + metrics["finite.crosscheck_s"]["value"]
    metrics["finite.checks_per_s"] = {"value": checks / busy if busy else 0.0, "unit": "1/s"}
    metrics["cli.process_s"] = {"value": med(cli), "unit": "s"}
    metrics["runtime.gc_collections"] = {
        "value": med(r["gc_collections"] for r in rounds), "unit": "count"}
    metrics["trace.overhead_s"] = {
        "value": med(r["wall_s"] for r in rounds) - med(plain_walls), "unit": "s"}
    return metrics


def run_workload(workload, seed, seconds, trace, log):
    setups, rounds, plain_walls, elapsed = run_rounds(workload, seed, seconds, trace, log)
    if trace:
        metrics, info = per_layer(rounds, plain_walls, [cli_process() for _ in range(3)]), {}
    else:
        metrics, info = end_to_end(rounds, setups)
    med = statistics.median
    info.update(
        rounds=len(rounds),
        rss_mb_range=[min(r["peak_rss_mb"] for r in rounds), max(r["peak_rss_mb"] for r in rounds)],
        import_s=med(r["import_s"] for r in rounds),
        build_s=med(r["build_s"] for r in rounds),
        generate_s=med(r["generate_s"] for r in rounds),
        interpreter_s=med(r["interpreter_s"] for r in rounds),
        kinds=rounds[0]["kinds"],
        selftests={v: sum(r["selftest"] == v for r in rounds) for v in ("passed", "failed", "skipped")},
        elapsed_s=elapsed,
    )
    for p in [p for r in rounds for p in r["problems"]][:5]:
        log(f"  WRONG: {p}")
    for e in [e for r in rounds for e in r["errors"]][:5]:
        log(f"  FAILED: {e}")
    return {
        "correct": all(r["n_problems"] == 0 and r["selftest"] != "failed" for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }, info


CLI_SNIPPET = "import sys; from idealconv.cli import main; sys.exit(main(sys.argv[1:]))"


def cli_process():
    """Wall time of one cold `idealconv ap --I prg --J fin` process.  The
    pringsheim ideal is a partition ideal, so against fin the additive
    property fails."""
    t0 = time.monotonic_ns()
    p = subprocess.run(
        [sys.executable, "-c", CLI_SNIPPET, "ap", "--I", "prg", "--J", "fin"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=ROUND_TIMEOUT_S,
    )
    dt = (time.monotonic_ns() - t0) / 1e9
    if p.returncode != 0 or not p.stdout.startswith("status: fails\n"):
        raise RoundFailed(f"cli ap exited {p.returncode}: {p.stdout!r} {p.stderr[-500:]!r}")
    return dt


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics only, 1: per-layer metrics only (default: both)")
    args = ap.parse_args(argv)

    def log(msg):
        print(msg, flush=True)

    if not os.path.isfile(os.path.join(SRC, "idealconv", "__init__.py")):
        print(f"error: no program to measure at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        modes = (0, 1) if args.trace is None else (args.trace,)
        results = {}
        for w in names:
            total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for trace in modes:
                log(f"{w}: seed {args.seed}, {args.seconds} s, trace {trace}")
                res, info = run_workload(w, args.seed, args.seconds, trace, log)
                for name, m in res["metrics"].items():
                    log(f"  {w} {name} = {m['value']:.6g} {m['unit']}")
                log(f"  {w} attempted={res['attempted']} failed={res['failed']} "
                    f"correct={str(res['correct']).lower()}")
                log(f"  {w} info {json.dumps(info, sort_keys=True)}")
                total["correct"] = total["correct"] and res["correct"]
                total["attempted"] += res["attempted"]
                total["failed"] += res["failed"]
                total["metrics"].update(res["metrics"])
            results[w] = total
    except RoundFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    with open(os.path.join(OUT, "last-run.json"), "w") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "results": results}, fh, indent=1, sort_keys=True)
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
