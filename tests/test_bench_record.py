"""The BENCH_<n>.json writer, in its quick mode."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRICS = {"setup_s", "wall_s", "warm_wall_s", "question_p50_us", "question_p99_us", "peak_rss_mb"}


def test_quick_record_has_every_key(tmp_path):
    out = tmp_path / "bench.json"
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bench_record.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert p.returncode == 0, p.stderr
    rec = json.loads(out.read_text())
    assert {"commit", "dirty", "source_sha256", "base", "cpus", "python", "command", "pairs", "seeds"} <= set(rec)
    assert rec["pairs"] == 1 and rec["cpus"] >= 1 and rec["python"].count(".") == 2
    assert len(rec["source_sha256"]) == 64
    assert set(rec["seeds"]) == {"1"} and set(rec["seeds"]["1"]) == {"fact-suite"}
    metrics = rec["seeds"]["1"]["fact-suite"]
    assert set(metrics) == METRICS
    for m in metrics.values():
        assert set(m) == {"base", "change", "ratio", "change_lower"}
        for side in (m["base"], m["change"]):
            assert set(side) == {"median", "q1", "q3", "runs"} and len(side["runs"]) == 1
        assert set(m["ratio"]) == {"median", "min", "max"}
