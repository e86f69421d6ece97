"""One round of one workload, in a fresh single-threaded process.

    python3 bench/child.py WORKLOAD INPUT_SEED SPAWN_NS MODE TRACE_FILE

run.py starts this with the program's src directory on PYTHONPATH.
SPAWN_NS is run.py's monotonic clock just before it started the
process; set-up time runs from there to the first question, so it holds
interpreter start, `import idealconv` and the building of the inputs.
MODE is "setup" (stop after set-up), "plain" or "traced".  TRACE_FILE
is where a traced round writes its spans ("-" for none).

A full round asks every question once with the program's memo caches
empty (cold pass), then rebuilds the inputs through the program's
constructors and asks them again (warm pass).  Answers are checked
after the passes, outside the timed regions.  The last line of stdout is
one JSON object with the round's measurements.
"""

import time

START_NS = time.monotonic_ns()

import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402

WORKLOADS = {
    "finite-sweep": "finite_sweep",
    "fact-suite": "fact_suite",
    "catalog-mix": "catalog_mix",
}


def gc_collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


def run_pass(api, wl, questions, tr=None):
    """Ask every question, and the follow-ups their answers call for.
    api is the package, or its TracedAPI stand-in when tr records spans.
    Returns (questions, answers, per-question ns, wall ns, indices of the
    questions that raised)."""
    queue = list(questions)
    answers, times, errors = [], [], set()
    now = tracing.now_ns
    start = now()
    k = 0
    while k < len(queue):
        q = queue[k]
        if tr:
            tr.question(k)
        t0 = now()
        try:
            a = tr.call("bench.question", q.ask, api) if tr else q.ask(api)
        except Exception as e:  # a failed operation; the run goes on
            times.append(now() - t0)
            answers.append(("error", f"{type(e).__name__}: {e}"))
            errors.add(k)
            k += 1
            continue
        times.append(now() - t0)
        answers.append(a)
        queue.extend(wl.followups(q, a))
        k += 1
    return queue, answers, times, now() - start, errors


def count_failed(wl, queue, answers, errors):
    return sum(1 for k, (q, a) in enumerate(zip(queue, answers)) if k in errors or wl.failed(q, a))


def main(argv):
    workload, seed, spawn_ns, mode, trace_file = argv
    seed, spawn_ns = int(seed), int(spawn_ns)
    wmod = importlib.import_module(WORKLOADS[workload])
    t_import = tracing.now_ns()
    import idealconv as ic

    import_ns = tracing.now_ns() - t_import
    tr = tracing.Tracer() if mode == "traced" else None
    api = tracing.TracedAPI(ic, tr) if tr else ic
    t_build = tracing.now_ns()
    wl = wmod.Workload(ic, seed, api)
    build_ns = tracing.now_ns() - t_build
    setup_ns = tracing.now_ns() - spawn_ns
    out = {
        "setup_s": setup_ns / 1e9,
        "import_s": import_ns / 1e9,
        "build_s": build_ns / 1e9,
        "generate_s": wl.generate_s,
        "interpreter_s": (START_NS - spawn_ns) / 1e9,
    }
    if mode == "setup":
        print(json.dumps(out))
        return 0

    gc0 = gc_collections()
    queue, answers, times, wall, errors = run_pass(api, wl, wl.questions, tr)
    gc_cold = gc_collections() - gc0
    counts = cache_entries(ic)
    counts.update(wl.layer_counts(queue, answers))
    layers = tr.layer_totals() if tr else {}

    wqueue, wanswers, _, warm_wall, werrors = run_pass(ic, wl, wl.build(ic))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = count_failed(wl, wqueue, wanswers, werrors)
    problems = []
    for k, (q, a) in enumerate(zip(queue, answers)):
        if k in errors or wl.failed(q, a):
            failed += 1
        else:
            msg = wl.check(q, a)
            if msg:
                problems.append(msg)
    problems.extend(wl.check_groups(queue, answers))
    diff = [k for k, (a, b) in enumerate(zip(answers, wanswers)) if a != b]
    if diff or len(wanswers) != len(answers):
        problems.append(f"{len(diff)} warm answers differ from cold ({len(wanswers)} warm, "
                        f"{len(answers)} cold questions)")

    # self-test: the checker must reject one deliberately wrong answer,
    # made from an answer that neither raised nor counts as failed
    usable = [k for k, (q, a) in enumerate(zip(queue, answers))
              if k not in errors and not wl.failed(q, a)]
    picked = wl.wrong_answer(queue, answers, usable)
    if picked is None:
        selftest = "skipped"
    else:
        k, wrong = picked
        ok = wl.check(queue[k], wrong) is not None and wl.check(queue[k], answers[k]) is None
        selftest = "passed" if ok else "failed"

    if tr and trace_file != "-":
        tr.write(trace_file)
    out.update(
        {
            "wall_s": wall / 1e9,
            "warm_wall_s": warm_wall / 1e9,
            "question_ns": times,
            "peak_rss_mb": rss_mb,
            "attempted": len(answers) + len(wanswers),
            "failed": failed,
            "problems": problems[:5],
            "n_problems": len(problems),
            "errors": [answers[k][1] for k in sorted(errors)[:5]],
            "selftest": selftest,
            "gc_collections": gc_cold,
            "layers": layers,
            "counts": counts,
            "kinds": kind_counts(queue),
        }
    )
    print(json.dumps(out))
    return 0


def cache_entries(ic) -> dict:
    """currsize of the public memoised functions, where they have one."""
    def total(fns):
        return sum(f.cache_info().currsize for f in fns if hasattr(f, "cache_info"))

    return {
        "terms.cache_entries": total((ic.classify, ic.nat_value, ic.pair_grid)),
        "ideals.cache_entries": total(
            (ic.in_ideal, ic.known_subset, ic.proper, ic.admissible, ic.has_maximum, ic.maximum_term)
        ),
    }


def kind_counts(queue) -> dict:
    out = {}
    for q in queue:
        out[q.kind] = out.get(q.kind, 0) + 1
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
