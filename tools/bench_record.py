"""Record alternating benchmark pairs into BENCH_<n>.json.

    python3 tools/bench_record.py --pr <n> --base <commit>
        [--workload fact-suite --workload finite-sweep ...]
        [--seed 1 --seed 8675 ...] [--out <path>]
    python3 tools/bench_record.py --quick --out /tmp/bench.json

For each seed and workload, 10 pairs each run `bench/run.py --workload W
--seconds 30 --trace 0 --seed N` once in a checkout of the base commit and
once in this checkout, the base first in odd pairs and second in even
ones, each checkout byte-compiled beforehand and each run in a fresh
interpreter.  The record holds, per seed, workload and end-to-end metric,
the median and quartiles of each side, the per-pair change/base ratios
(median, least, greatest) and how many pairs the change had the lower
value, together with the commit, the base, the CPU count and the Python
version.  "dirty" says that the checkout measured held changes not yet
committed on top of "commit"; "source_sha256" names the code measured
either way, a hash of every file under src/ and bench/ that git tracks or
would track (recompute it on any checkout with `source_digest()`).
Absolute times do not carry from one machine or session to another; the
ratios of one record do.

--base is a commit, archived into a temporary directory with `git
archive`, or a directory holding a checkout.  --quick makes one pair of
fact-suite runs of one round each against this checkout itself, which
checks the record's shape in a few seconds.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS, SECONDS = 10, 30
METRICS = ("setup_s", "wall_s", "warm_wall_s", "question_p50_us", "question_p99_us", "peak_rss_mb")


def git(*args: str, cwd: str = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()


def source_digest(checkout: str = ROOT) -> str:
    """sha256 over the path and bytes of each file of src/ and bench/ that
    git tracks or would track, in path order: the code a run executes."""
    h = hashlib.sha256()
    for path in sorted(git("ls-files", "-co", "--exclude-standard", "src", "bench", cwd=checkout).splitlines()):
        full = os.path.join(checkout, path)
        if os.path.isfile(full):  # a tracked file deleted in the checkout is left out
            with open(full, "rb") as fh:
                h.update(path.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def bench_run(checkout: str, workload: str, seconds: int, seed: int) -> dict:
    """The end-to-end metrics of one bench/run.py run, by name."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
           "--trace", "0", "--seed", str(seed)]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {p.returncode}: {p.stderr[-500:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if result["correct"] is not True or result["failed"]:
        raise RuntimeError(f"{workload} in {checkout}: correct={result['correct']} failed={result['failed']}")
    return {m: result["metrics"][m]["value"] for m in METRICS}


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def summarise(pairs: list) -> dict:
    """pairs: (base metrics, change metrics) per pair."""
    out = {}
    for m in METRICS:
        base = [b[m] for b, _ in pairs]
        change = [c[m] for _, c in pairs]
        ratios = [c / b for b, c in zip(base, change) if b]
        out[m] = {
            "base": spread(base),
            "change": spread(change),
            "ratio": {"median": statistics.median(ratios), "min": min(ratios), "max": max(ratios)}
            if ratios else None,
            "change_lower": sum(c < b for b, c in zip(base, change)),
        }
    return out


def record(base: str, workloads: list, seeds: list, pairs: int, seconds: int, log) -> dict:
    tmp = None
    if os.path.isdir(base):
        base_dir, base_commit = os.path.abspath(base), None
    else:
        base_commit = git("rev-parse", base)
        tmp = tempfile.mkdtemp(prefix="bench-base-")
        archive = subprocess.run(["git", "archive", base_commit], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        base_dir = tmp
    try:
        for d in {base_dir, ROOT}:
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=d,
                           capture_output=True, check=True)
        out = {}
        for seed in seeds:
            for w in workloads:
                runs = []
                for k in range(pairs):
                    sides = ("base", "change") if k % 2 == 0 else ("change", "base")
                    got = {s: bench_run(base_dir if s == "base" else ROOT, w, seconds, seed) for s in sides}
                    runs.append((got["base"], got["change"]))
                    log(f"seed {seed} {w} pair {k + 1}/{pairs}: wall_s {got['base']['wall_s']:.4f} -> "
                        f"{got['change']['wall_s']:.4f}")
                out.setdefault(str(seed), {})[w] = summarise(runs)
    finally:
        if tmp:
            shutil.rmtree(tmp, ignore_errors=True)
    try:
        commit, dirty = git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
        digest = source_digest()
    except (OSError, subprocess.CalledProcessError):
        commit = dirty = digest = None
    return {
        "commit": commit,
        "dirty": dirty,
        "source_sha256": digest,
        "base": base_commit or base_dir,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "command": f"bench/run.py --workload <w> --seconds {seconds} --trace 0 --seed <seed>",
        "pairs": pairs,
        "seeds": out,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", type=int, help="number n of the BENCH_<n>.json to write")
    ap.add_argument("--base", help="commit or checkout directory to compare against")
    ap.add_argument("--workload", action="append", help="repeatable; default fact-suite")
    ap.add_argument("--seed", type=int, action="append", help="repeatable; default 1")
    ap.add_argument("--out", help="output path; default BENCH_<pr>.json at the repository root")
    ap.add_argument("--quick", action="store_true", help="one one-round fact-suite pair against this checkout")
    args = ap.parse_args(argv)
    if args.quick:
        base, workloads, pairs, seconds = ROOT, ["fact-suite"], 1, 10
    else:
        if args.base is None or (args.pr is None and args.out is None):
            ap.error("--base and one of --pr or --out are required without --quick")
        base, workloads, pairs, seconds = args.base, args.workload or ["fact-suite"], PAIRS, SECONDS
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    rec = record(base, workloads, args.seed or [1], pairs, seconds, lambda s: print(s, file=sys.stderr))
    if args.pr is not None:
        rec = {"pr": args.pr, **rec}
    with open(out, "w") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
