"""Command line front end: examples, exit codes, determinism."""

import contextlib
import functools
import io
import json
import operator
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idealconv as ic
from idealconv import cli
from idealconv import serialize as S
from idealconv.additivity import PiCrosscheckReport
from idealconv.finite import AgreementReport, ClaimResult, CrosscheckReport, SuiteReport
from idealconv.sampling import fixture_corpus


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def fn_json(f) -> str:
    return S.canonical_dumps(S.fn_to_obj(f))


ROW_COL = '{"op":"inter","terms":[{"atom":"row","index":2},{"atom":"col","index":3}]}'


# --- ideal info ---


def test_info_pringsheim():
    rc, out, _ = run(["ideal", "info", "prg"])
    assert rc == 0
    assert "universe: natpair" in out
    assert "admissible: true" in out and "proper: true" in out
    assert "has maximum: false" in out


def test_info_improper_and_principal():
    rc, out, _ = run(["ideal", "info", "improper"])
    assert rc == 0
    assert "proper: false" in out and "has maximum: true" in out
    assert "maximum:" in out

    gen = S.canonical_dumps(S.term_to_obj(ic.tail(10)))
    rc, out, _ = run(["ideal", "info", "principal", "--set", gen])
    assert rc == 0
    assert "has maximum: true" in out
    assert '"start": 10' in out or '"start":10' in out or "tail" in out


def test_info_universe_override():
    rc, out, _ = run(["ideal", "info", "fin", "--universe", "natpair"])
    assert rc == 0 and "universe: natpair" in out
    rc, out, _ = run(["ideal", "info", "fin"])
    assert rc == 0 and "universe: nat" in out


def test_info_mac_partitions():
    rc, out, _ = run(["ideal", "info", "mac"])
    assert rc == 0 and "universe: nat" in out
    rc, out, _ = run(["ideal", "info", "mac", "--partition", "corner"])
    assert rc == 0 and "universe: natpair" in out


def test_info_unknown_ideal_exits_2():
    rc, out, err = run(["ideal", "info", "bogus"])
    assert rc == 2 and out == "" and err.startswith("error:")


# --- set commands ---


def test_classify_row_meets_col():
    rc, out, _ = run(["set", "classify", "--term", ROW_COL])
    assert rc == 0
    assert "kind: finite" in out and "cardinality: 1" in out
    assert "[[3, 2]]" in out.replace("\n", " ") or "[[3,2]]" in out


def test_classify_json_mode():
    rc, out, _ = run(["--output", "json", "set", "classify", "--term", ROW_COL])
    assert rc == 0
    obj = json.loads(out)
    assert obj["kind"] == "finite" and obj["cardinality"] == 1
    assert obj["elements"] == [[3, 2]]


def test_classify_with_ideal_membership():
    term = S.canonical_dumps(S.term_to_obj(ic.compl(ic.upper_quad(4))))
    rc, out, _ = run(["set", "classify", "--term", term, "--ideal", "prg"])
    assert rc == 0 and "in ideal: true" in out


def test_member_queries():
    t5 = S.canonical_dumps(S.term_to_obj(ic.tail(5)))
    rc, out, _ = run(["set", "member", "--term", t5, "--element", "4"])
    assert rc == 0 and "member: false" in out
    rc, out, _ = run(["set", "member", "--term", t5, "--element", "7"])
    assert rc == 0 and "member: true" in out
    rc, out, _ = run(["set", "member", "--term", ROW_COL, "--element", "[3,2]"])
    assert rc == 0 and "member: true" in out


def test_bad_element_exits_2():
    t5 = S.canonical_dumps(S.term_to_obj(ic.tail(5)))
    rc, _, err = run(["set", "member", "--term", t5, "--element", "[3,2]"])
    assert rc == 2 and "error:" in err
    rc, _, err = run(["set", "member", "--term", "not json", "--element", "1"])
    assert rc == 2


def test_empty_op_exits_2():
    rc, _, err = run(["set", "classify", "--term", '{"op":"inter"}'])
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize(
    "term",
    [
        '{"atom":"tail","start":0}',
        '{"atom":"tail","start":"x"}',
        '{"atom":"tail"}',
    ],
)
def test_bad_tail_start_exits_2(term):
    rc, out, err = run(["set", "classify", "--term", term])
    assert rc == 2 and out == "" and err.startswith("error:")


_FULL = '{"atom":"full","universe":"nat"}'


def _metric_fn(first, value, *rest):
    """A NAT function into the metric line: value on the term first, 0 on
    each term of rest."""
    pieces = [(first, value)] + [(t, "0") for t in rest]
    body = ",".join(f'{{"set":{t},"value":{{"const":{v}}}}}' for t, v in pieces)
    return f'{{"universe":"nat","codomain":"metric","pieces":[{body}]}}'


_ZERO = _metric_fn(_FULL, "0")


@pytest.mark.parametrize(
    "argv",
    [
        ["ap", "--I", '{"ideal":"uniform_product","base":{"ideal":"fin"},"cutoff":0}', "--J", "fin:natpair"],
        ["set", "classify", "--term", '{"atom":"block","partition":"residues:0","index":1}'],
        [
            "conv", "decide", "--I", "fin", "--x", '"a"', "--fn",
            '{"universe":"nat","codomain":{"points":["a","a"],"opens":[[],["a"]]},'
            '"pieces":[],"default":"a"}',
        ],
        # malformed rationals, as the target and as a piece value
        ["conv", "decide", "--fn", _ZERO, "--I", "fin", "--x", '{"num":1,"den":0}'],
        ["conv", "decide", "--fn", _ZERO, "--I", "fin", "--x", '{"num":1.5,"den":2}'],
        ["conv", "decide", "--fn", _ZERO, "--I", "fin", "--x", '{"num":true,"den":2}'],
        ["conv", "decide", "--fn", _metric_fn(_FULL, '{"num":1,"den":0}'), "--I", "fin", "--x", "0"],
        ["conv", "decide", "--fn", _metric_fn(_FULL, '{"num":1.5,"den":2}'), "--I", "fin", "--x", "0"],
        # functions that fail validate_fn
        ["conv", "decide", "--fn", '{"universe":"nat","codomain":"metric","pieces":[]}', "--I", "fin", "--x", "1"],
        ["conv", "decide", "--fn", _metric_fn(_FULL, "0", '{"atom":"tail","start":3}'), "--I", "fin", "--x", "0"],
        ["conv", "decide", "--fn", _metric_fn('{"atom":"row","index":1}', "0", _FULL), "--I", "fin", "--x", "0"],
        [
            "conv", "decide", "--I", "fin", "--x", "0", "--fn",
            '{"universe":"nat","codomain":"metric","pieces":[],'
            '"diagonal":{"partition":"ruler","target":0,"scale":0}}',
        ],
    ],
)
def test_bad_constructor_input_exits_2(argv):
    rc, out, err = run(argv)
    assert rc == 2 and out == "" and err.startswith("error:")


def _product_over_tail(start, cutoff):
    base = {"ideal": "principal", "set": {"atom": "tail", "start": start}}
    return json.dumps({"ideal": "uniform_product", "base": base, "cutoff": cutoff})


@pytest.mark.parametrize("ideal", [_product_over_tail(3, 10**9), _product_over_tail(10**6, 2)])
def test_product_maximum_is_bounded(ideal):
    # its maximum would list 10**9 columns or 10**6 rows, one atom each;
    # the refusal comes before any is built (0.2 s with interpreter start)
    cmd = [sys.executable, "-m", "idealconv.cli", "ideal", "info", ideal]
    r = subprocess.run(cmd, capture_output=True, timeout=3)
    assert r.returncode == 2 and r.stdout == b"" and r.stderr.startswith(b"error:")


def test_member_boolean_element_exits_2():
    rc, out, err = run(
        ["set", "member", "--term", '{"atom":"tail","start":5}', "--element", "true"]
    )
    assert rc == 2 and out == "" and err.startswith("error:")


# --- fixtures ---


@pytest.fixture
def diag_fixture(tmp_path):
    f = ic.diagonal_function(ic.COLUMNS, 0)
    p = tmp_path / "diag.json"
    p.write_text(json.dumps({"function": S.fn_to_obj(f), "point": 0}))
    return str(p)


def test_fixture_unknown_key_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"term": S.term_to_obj(ic.tail(3)), "shape": 1}))
    rc, _, err = run(["set", "classify", "--fixture", str(p)])
    assert rc == 2 and "shape" in err


def test_fixture_not_object_exits_2(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1,2,3]")
    rc, _, err = run(["set", "classify", "--fixture", str(p)])
    assert rc == 2


# --- convergence ---


def test_conv_diagonal_examples(diag_fixture):
    rc, out, _ = run(["conv", "decide", "--fixture", diag_fixture, "--I", "uni"])
    assert rc == 0 and "verdict: yes" in out

    rc, out, _ = run(
        ["conv", "decide", "--fixture", diag_fixture, "--I", "uni", "--J", "fin"]
    )
    assert rc == 0 and "verdict: no" in out
    assert "reason:" in out


def test_conv_constant_witness(tmp_path):
    f = ic.constant_fn(ic.Universe.NAT, ic.METRIC_LINE, 3)
    p = tmp_path / "const.json"
    p.write_text(
        json.dumps(
            {
                "function": S.fn_to_obj(f),
                "base": S.ideal_to_obj(ic.fin(ic.Universe.NAT)),
                "aux": S.ideal_to_obj(ic.fin(ic.Universe.NAT)),
                "point": 3,
            }
        )
    )
    rc, out, _ = run(["conv", "witness", "--fixture", str(p)])
    assert rc == 0 and "verdict: yes" in out
    assert "witness:" in out and '"atom":"full"' in out
    obj = json.loads(run(["--output", "json", "conv", "witness", "--fixture", str(p)])[1])
    assert obj["verdict"] == "yes" and obj["witness"]["set"]["atom"] == "full"


def test_conv_universe_mismatch_exits_2(diag_fixture):
    rc, _, err = run(["conv", "decide", "--fixture", diag_fixture, "--I", "fin:nat"])
    assert rc == 2 and "error:" in err


def test_conv_missing_target_exits_2(diag_fixture, tmp_path):
    p = tmp_path / "nopoint.json"
    obj = json.loads(open(diag_fixture).read())
    del obj["point"]
    p.write_text(json.dumps(obj))
    rc, _, err = run(["conv", "decide", "--fixture", str(p), "--I", "uni"])
    assert rc == 2


def test_conv_strict_unknown_exits_3(tmp_path):
    pushed = ic.pushforward(ic.partition_ideal(ic.RULER), ic.RULER_CORNER)
    f = ic.diagonal_function(ic.COLUMNS, 0)
    p = tmp_path / "unk.json"
    p.write_text(
        json.dumps(
            {
                "function": S.fn_to_obj(f),
                "ideal": S.ideal_to_obj(pushed),
                "point": 0,
            }
        )
    )
    rc, out, _ = run(["conv", "decide", "--fixture", str(p)])
    assert rc == 0 and "verdict: unknown" in out
    rc, _, _ = run(["conv", "decide", "--fixture", str(p), "--strict"])
    assert rc == 3


def test_conv_reads_the_fixture_once(tmp_path, monkeypatch):
    f = ic.constant_fn(ic.Universe.NAT, ic.METRIC_LINE, 3)
    p = tmp_path / "all-keys.json"
    p.write_text(
        json.dumps(
            {
                "function": S.fn_to_obj(f),
                "base": S.ideal_to_obj(ic.fin(ic.Universe.NAT)),
                "aux": S.ideal_to_obj(ic.fin(ic.Universe.NAT)),
                "point": 3,
            }
        )
    )
    calls = []
    load = cli._load_fixture

    def counting(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(cli, "_load_fixture", counting)
    rc, out, _ = run(["conv", "decide", "--fixture", str(p)])
    assert rc == 0 and "verdict: yes" in out and "witness:" in out
    assert calls == [str(p)]


# --- additive property ---


def test_ap_examples():
    rc, out, _ = run(["ap", "--I", "uni", "--J", "fin"])
    assert rc == 0
    assert "status: fails" in out
    assert "witness family: blocks of columns" in out

    rc, out, _ = run(["ap", "--I", "fin", "--J", "fin"])
    assert rc == 0 and "status: holds" in out

    rc, out, _ = run(["ap", "--I", "prg", "--J", "fin"])
    assert rc == 0 and "status: fails" in out
    assert "blocks of corner" in out


def test_ap_strict_unknown_exits_3():
    rc, out, _ = run(["ap", "--I", "mac:corner", "--J", "uni"])
    assert rc == 0 and "status: unknown" in out
    rc, _, _ = run(["ap", "--I", "mac:corner", "--J", "uni", "--strict"])
    assert rc == 3


def test_ap_fixture_keys(tmp_path):
    p = tmp_path / "ap.json"
    p.write_text(
        json.dumps(
            {
                "base": S.ideal_to_obj(ic.partition_ideal(ic.COLUMNS)),
                "aux": S.ideal_to_obj(ic.fin(ic.Universe.NATPAIR)),
            }
        )
    )
    rc, out, _ = run(["ap", "--fixture", str(p)])
    assert rc == 0 and "status: fails" in out


# --- oracle suites ---


def test_oracle_lemma():
    rc, out, _ = run(["oracle", "run", "--size", "2", "--suite", "lemma"])
    assert rc == 0
    assert "suite lemma: claims=12 violations=0" in out
    assert "total violations: 0" in out


def test_oracle_agreement_and_pi():
    rc, out, _ = run(["oracle", "run", "--size", "2", "--suite", "agreement"])
    assert rc == 0 and "violations=0" in out
    rc, out, _ = run(["oracle", "run", "--size", "2", "--suite", "pi"])
    assert rc == 0 and "pairs=16" in out


@pytest.mark.parametrize(
    "size, suite", [("0", "agreement"), ("0", "all"), ("-1", "lemma"), ("5", "pi"), ("9", "lemma")]
)
def test_oracle_size_outside_one_to_four_exits_2(size, suite):
    # no vacuous report for size 0, and no silent clamp of 9 to 4
    rc, out, err = run(["oracle", "run", "--size", size, "--suite", suite])
    assert rc == 2 and out == ""
    assert "--size" in err


def test_oracle_json_shape():
    rc, out, _ = run(["--output", "json", "oracle", "run", "--size", "2", "--suite", "lemma"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["violations"] == 0
    rep = obj["reports"][0]
    assert rep["suite"] == "lemma" and len(rep["claims"]) == 12
    for c in rep["claims"]:
        assert set(c) == {"claim", "instances", "violations"}
        assert c["violations"] == []


_ORACLE_TEXT = (
    "suite lemma: claims=2 violations=1\n"
    "suite agreement: conv=10 star=20 violations=1\n"
    "suite pi: pairs=16 violations=1\n"
    "suite crosscheck: violations=1\n"
    "total violations: 4\n"
)
_ORACLE_JSON = (
    '{"reports":[{"claims":[{"claim":"holds","instances":5,"violations":[]},'
    '{"claim":"breaks","instances":7,"violations":["instance 3"]}],"size":2,"suite":"lemma"},'
    '{"convergence_instances":10,"size":2,"star_instances":20,"suite":"agreement",'
    '"violations":["conv f=(0,) x=0"]},'
    '{"pairs":16,"size":2,"suite":"pi","violations":["(\'pair\', 1)"]},'
    '{"bound":50,"suite":"crosscheck","violations":["{\\"atom\\":\\"block\\",\\"index\\":1,'
    '\\"partition\\":\\"ruler\\"}"]}],"violations":4}\n'
)


@pytest.mark.parametrize("output, expected", [("text", _ORACLE_TEXT), ("json", _ORACLE_JSON)])
def test_oracle_all_report_bytes(monkeypatch, output, expected):
    # canned suite reports, one violation each (crosscheck fails on its
    # first random term only), pin the whole report byte for byte
    claims = (ClaimResult("holds", 5, ()), ClaimResult("breaks", 7, ("instance 3",)))
    calls = []

    def crosscheck(t, bound):
        calls.append(t)
        return CrosscheckReport(bound, (("classify", len(calls) > 1, ""),))

    monkeypatch.setattr(cli, "lemma_suite", lambda n: SuiteReport(n, claims))
    monkeypatch.setattr(cli, "agreement_sweep", lambda n: AgreementReport(n, 10, 20, ("conv f=(0,) x=0",)))
    monkeypatch.setattr(cli, "pi_condition_crosscheck", lambda n: PiCrosscheckReport(n, 16, (("pair", 1),)))
    monkeypatch.setattr(cli, "crosscheck", crosscheck)
    rc, out, _ = run(["--output", output, "oracle", "run", "--size", "2", "--suite", "all"])
    assert (rc, out) == (1, expected)
    assert len(calls) == 200


# --- determinism ---

DETERMINISTIC_CASES = [
    ["ideal", "info", "prg"],
    ["--output", "json", "ideal", "info", "improper"],
    ["set", "classify", "--term", ROW_COL],
    ["--output", "json", "set", "classify", "--term", ROW_COL, "--ideal", "fin"],
    ["ap", "--I", "uni", "--J", "fin"],
    ["--output", "json", "oracle", "run", "--size", "2", "--suite", "pi"],
]


@pytest.mark.parametrize("argv", DETERMINISTIC_CASES, ids=lambda a: " ".join(a)[:40])
def test_double_run_identical(argv):
    first = run(argv)
    second = run(argv)
    assert first == second
    assert first[0] == 0


def test_console_script_bytes_identical():
    cmd = [sys.executable, "-m", "idealconv.cli", "ideal", "info", "prg"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0 and a.stdout == b.stdout and a.stdout


# --- serialization roundtrips ---


TERMS = [
    ic.tail(7),
    ic.compl(ic.upper_quad(2)),
    ic.inter(ic.row(2), ic.compl(ic.col(3))),
    ic.union(ic.block(ic.RULER, 1), ic.finite_set(ic.Universe.NAT, [2, 6])),
    ic.diff(ic.full(ic.Universe.NATPAIR), ic.block(ic.CORNER, 2)),
]

IDEALS = [
    ic.fin(ic.Universe.NAT),
    ic.improper(ic.Universe.NATPAIR),
    ic.principal(ic.tail(4)),
    ic.partition_ideal(ic.COLUMNS),
    ic.pringsheim(),
    ic.pushforward(ic.partition_ideal(ic.RULER), ic.RULER_CORNER),
    ic.trace_ideal(ic.fin(ic.Universe.NAT), ic.tail(5)),
    ic.uniform_product(ic.fin(ic.Universe.NAT), 2),
]


@pytest.mark.parametrize("t", TERMS, ids=range(len(TERMS)))
def test_term_roundtrip(t):
    assert S.term_from_obj(S.term_to_obj(t)) == t


@pytest.mark.parametrize("i", IDEALS, ids=range(len(IDEALS)))
def test_ideal_roundtrip(i):
    back = S.ideal_from_obj(S.ideal_to_obj(i))
    assert back == i
    probe = ic.tail(3) if i.universe is ic.Universe.NAT else ic.upper_quad(3)
    assert ic.in_ideal(back, probe) == ic.in_ideal(i, probe)


def test_fn_roundtrip():
    for f in (
        ic.constant_fn(ic.Universe.NAT, ic.METRIC_LINE, 3),
        ic.diagonal_function(ic.COLUMNS, 0),
        ic.diagonal_function(ic.RULER, 2, scale=3),
    ):
        back = S.fn_from_obj(S.fn_to_obj(f))
        assert back == f
        assert fn_json(back) == fn_json(f)


# --- malformed input of any shape: exit 2, never a traceback ---

_JUNK = [None, True, 3, 2.5, "x", [], {}]
_DROP = object()


def _paths(o, path=()):
    yield path
    items = o.items() if isinstance(o, dict) else enumerate(o) if isinstance(o, list) else ()
    for k, v in items:
        yield from _paths(v, path + (k,))


def _mutated(o, path, junk):
    """A copy of o with the value at path dropped (junk is _DROP) or
    replaced by junk."""
    if not path:
        return junk
    o = json.loads(json.dumps(o))
    holder = functools.reduce(operator.getitem, path[:-1], o)
    if junk is _DROP:
        del holder[path[-1]]
    else:
        holder[path[-1]] = junk
    return o


_SEEDS = (
    [("term", S.term_to_obj(t)) for t in TERMS]
    + [("ideal", S.ideal_to_obj(i)) for i in IDEALS]
    + [
        (
            "fixture",
            {
                "function": S.fn_to_obj(fx.fn),
                "base": S.ideal_to_obj(fx.base),
                "aux": S.ideal_to_obj(fx.aux),
                "point": S.value_to_obj(fx.x),
            },
        )
        for fx in fixture_corpus()
    ]
)


def _argvs(kind, doc, fixture_path):
    """Commands that read the mutated doc; a fixture doc is also written
    to fixture_path."""
    d = json.dumps
    if kind == "term":
        return [
            ["set", "classify", f"--term={d(doc)}", "--ideal=fin"],
            ["ideal", "info", "principal", f"--set={d(doc)}"],
            ["set", "member", f"--term={d(doc)}", "--element=1"],
            ["set", "member", f"--term={d(doc)}", "--element=[1,2]"],
        ]
    if kind == "ideal":
        return [
            ["ideal", "info", d(doc)],
            ["ap", f"--I={d(doc)}", "--J=fin"],
            ["set", "classify", f"--term={d(S.term_to_obj(ic.tail(3)))}", f"--ideal={d(doc)}"],
        ]
    fixture_path.write_text(d(doc))
    flags = dict(function="--fn", base="--I", aux="--J", point="--x")
    inline = [f"{flags[k]}={d(v)}" for k, v in doc.items()] if isinstance(doc, dict) else []
    return [
        ["conv", "decide", f"--fixture={fixture_path}"],
        ["conv", "witness", f"--fixture={fixture_path}"],
        ["ap", f"--fixture={fixture_path}"],
        ["conv", "witness", *inline],
    ]


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fixture.json"


@settings(max_examples=300)
@given(st.data())
def test_mutated_input_exits_cleanly(fuzz_file, data):
    # a dropped key or a junk value anywhere in a term, ideal, function or
    # fixture file is an input error, not an oracle violation
    kind, doc = data.draw(st.sampled_from(_SEEDS))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    junk = data.draw(st.sampled_from(_JUNK + [_DROP] if path else _JUNK))
    argv = data.draw(st.sampled_from(_argvs(kind, _mutated(doc, path, junk), fuzz_file)))
    rc, _, err = run(argv)
    assert rc in (0, 2, 3), (argv, err)
    assert rc != 2 or err.startswith("error:")


# --- nesting budget at the JSON door ---


def compl_chain(levels: int) -> str:
    return '{"op":"compl","terms":[' * levels + '{"atom":"tail","start":1}' + "]}" * levels


@pytest.mark.parametrize("levels", [330, 10_000])
def test_deep_json_exits_2_before_parsing(levels):
    # 330 operators overflow the engine's recursion, 10,000 the parser's
    rc, out, err = run(["set", "classify", "--term", compl_chain(levels)])
    assert (rc, out) == (2, "")
    assert err == f"error: JSON nests {2 * levels + 1} levels deep (limit 400)\n"


def test_deep_fixture_file_exits_2(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"term": ' + compl_chain(10_000) + "}")
    rc, out, err = run(["set", "classify", "--fixture", str(path)])
    assert (rc, out) == (2, "") and err.startswith("error: fixture file nests 20002 levels")


def test_json_within_the_nesting_budget_is_read():
    # brackets inside strings do not count toward the depth
    rc, out, _ = run(["set", "classify", "--term", compl_chain(199)])
    assert rc == 0 and "kind: empty" in out
    rc, _, err = run(["set", "classify", "--term", '{"atom": "[[[[' + "[" * 500 + '"}'])
    assert rc == 2 and "nests" not in err


def test_unclosed_string_is_refused_in_linear_time():
    # one open quote, then escaped quotes: a scan that retried each quote
    # as the start of a string would take minutes here
    cmd = [sys.executable, "-m", "idealconv.cli", "set", "classify", "--term", '"' + '\\"' * 50_000]
    r = subprocess.run(cmd, capture_output=True, timeout=10)
    assert r.returncode == 2 and r.stdout == b"" and r.stderr.startswith(b"error: bad JSON")


def test_deep_utf16_fixture_file_exits_2(tmp_path):
    # U+5B22 is the bytes 0x22 0x5B in UTF-16-LE: read byte-wise, the quotes
    # fall out of step and every bracket of the chain lands inside a string
    path = tmp_path / "deep16.json"
    path.write_bytes(('{"point": "嬢", "term": ' + compl_chain(10_000) + "}").encode("utf-16-le"))
    rc, out, err = run(["set", "classify", "--fixture", str(path)])
    assert (rc, out) == (2, "") and err.startswith("error: fixture file nests 20002 levels")
