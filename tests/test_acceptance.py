"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line so a suite run doubles as a
conformance report.
"""

import contextlib
import io
import json
import random
import subprocess
import sys
import time

import idealconv as ic
from idealconv import cli, sampling
from idealconv import serialize as S
from idealconv.partitions import block_of


def _report(capsys, n: int, label: str, ok: bool, detail: str = ""):
    line = f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_oracle_equivalence(capsys):
    # every finite model up to 4 points, decided by loops and symbolically
    t0 = time.time()
    rep = ic.agreement_sweep(4)
    elapsed = time.time() - t0
    ok = rep.ok and rep.size == 4 and elapsed < 60.0
    _report(
        capsys,
        1,
        "oracle equivalence",
        ok,
        f"conv={rep.conv_checked} star={rep.star_checked} "
        f"disagreements={len(rep.disagreements)} {elapsed:.1f}s",
    )
    assert ok, rep.disagreements[:3]


def test_criterion_2_lemma_suite(capsys):
    rep = ic.lemma_suite(3)
    ok = rep.violations == 0 and len(rep.claims) == 12
    ok = ok and all(c.checked > 0 for c in rep.claims)
    _report(capsys, 2, "structural fact suite", ok, f"claims={len(rep.claims)}")
    assert ok, [c.name for c in rep.claims if c.violations]


def test_criterion_3_grid_ideal_identity(capsys):
    # two routes to the same grid ideal must agree on random terms,
    # and block incidence must be stable across truncation bounds
    rng = random.Random(20260816)
    prg = ic.pringsheim()
    bad = 0
    n = 1000
    for _ in range(n):
        t = sampling.random_term(rng, ic.Universe.NATPAIR)
        if ic.in_ideal(prg, t) != ic.quadrant_avoidance(t):
            bad += 1
            continue
        met10 = {block_of(ic.CORNER, e) for e in ic.truncate(t, 10)}
        met50 = {block_of(ic.CORNER, e) for e in ic.truncate(t, 50)}
        if not met10 <= met50:
            bad += 1
            continue
        finite, idxs = ic.partition_incidence(ic.CORNER, t)
        if finite and not met50 <= set(idxs):
            bad += 1
    ok = bad == 0
    _report(capsys, 3, "grid ideal identity", ok, f"terms={n} mismatches={bad}")
    assert ok


def test_criterion_4_ap_failure_reproduction(capsys):
    rng = random.Random(41)
    fin_pair = ic.fin(ic.Universe.NATPAIR)
    checks = []
    for i in (ic.partition_ideal(ic.COLUMNS), ic.pringsheim()):
        v = ic.additive_property(i, fin_pair)
        checks.append(v.status is ic.ApStatus.FAILS and v.witness is not None)
        members = [
            sampling.random_partition_member(rng, v.witness.partition)
            for _ in range(100)
        ]
        bound = ic.bound_for_count(v.witness.partition, 8, 3)
        cert = ic.certify_failure_on_truncation(v.witness, members, bound)
        checks.append(cert.certified and len(cert.rows) == 100)
    f = ic.diagonal_function(ic.COLUMNS, 0)
    uni = ic.partition_ideal(ic.COLUMNS)
    checks.append(ic.converges(f, uni, 0) is ic.Verdict.YES)
    star = ic.star_converges(f, uni, fin_pair, 0)
    checks.append(star.verdict is ic.Verdict.NO)
    ok = all(checks)
    _report(capsys, 4, "additivity failure reproduction", ok, f"checks={len(checks)}")
    assert ok, checks


def test_criterion_5_corpus_consistency(capsys):
    # with the additive property, base convergence must transfer to star
    # convergence; and every positive witness must re-verify
    corpus = sampling.fixture_corpus()
    assert len(corpus) >= 50
    bad_transfer = []
    bad_witness = []
    for fx in corpus:
        ap = ic.additive_property(fx.base, fx.aux)
        conv = ic.converges(fx.fn, fx.base, fx.x)
        star = ic.star_converges(fx.fn, fx.base, fx.aux, fx.x)
        if (
            ap.status is ic.ApStatus.HOLDS
            and conv is ic.Verdict.YES
            and star.verdict is ic.Verdict.NO
        ):
            bad_transfer.append(fx.name)
        if star.verdict is ic.Verdict.YES and star.witness is not None:
            if not ic.verify_witness(fx.fn, fx.base, fx.aux, fx.x, star.witness):
                bad_witness.append(fx.name)
    ok = not bad_transfer and not bad_witness
    _report(
        capsys,
        5,
        "corpus transfer consistency",
        ok,
        f"fixtures={len(corpus)}",
    )
    assert ok, (bad_transfer, bad_witness)


def test_criterion_6_pi_crosscheck(capsys):
    r3 = ic.pi_condition_crosscheck(3)
    r4 = ic.pi_condition_crosscheck(4)
    ok = r3.ok and r4.ok and r3.pairs == 64 and r4.pairs == 256
    _report(
        capsys,
        6,
        "phrasing equivalence",
        ok,
        f"pairs={r3.pairs}+{r4.pairs}",
    )
    assert ok, (r3.disagreements[:3], r4.disagreements[:3])


def test_criterion_7_bijection_transfer(capsys):
    rng = random.Random(7001)
    fwd = ic.RULER_CORNER
    bad = 0
    n = 1000
    for _ in range(n):
        t = sampling.random_term(rng, ic.Universe.NATPAIR)
        e = sampling.random_element(rng, ic.Universe.NAT)
        pre = ic.preimage_term(fwd, t)
        if ic.member(pre, e) != ic.member(t, ic.apply(fwd, e)):
            bad += 1
    codec_ok = True
    for k in range(1, 10_001):
        if ic.pair_decode(ic.pair_encode(k)) != k:
            codec_ok = False
            break
    for a in range(1, 101):
        for b in range(1, 101):
            if ic.pair_encode(ic.pair_decode((a, b))) != (a, b):
                codec_ok = False
    ok = bad == 0 and codec_ok
    _report(
        capsys,
        7,
        "bijection transfer",
        ok,
        f"pairs={n} mismatches={bad} codec={'ok' if codec_ok else 'bad'}",
    )
    assert ok


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_criterion_8_cli_determinism(capsys, tmp_path):
    fx = tmp_path / "diag.json"
    fx.write_text(
        json.dumps(
            {"function": S.fn_to_obj(ic.diagonal_function(ic.COLUMNS, 0)), "point": 0}
        )
    )
    invocations = [
        ["ideal", "info", "prg"],
        ["--output", "json", "ideal", "info", "improper"],
        ["set", "classify", "--term", '{"atom":"tail","start":4}', "--ideal", "fin"],
        ["conv", "decide", "--fixture", str(fx), "--I", "uni"],
        ["--output", "json", "conv", "decide", "--fixture", str(fx), "--I", "uni", "--J", "fin"],
        ["ap", "--I", "uni", "--J", "fin"],
        ["--output", "json", "oracle", "run", "--size", "2", "--suite", "lemma"],
    ]
    ok = True
    for argv in invocations:
        if _run_cli(argv) != _run_cli(argv):
            ok = False
    cmd = [sys.executable, "-m", "idealconv.cli", "--output", "json", "ap", "--I", "prg", "--J", "fin"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    ok = ok and a.stdout == b.stdout and a.returncode == b.returncode == 0
    _report(capsys, 8, "deterministic output", ok, f"invocations={len(invocations) + 1}")
    assert ok
