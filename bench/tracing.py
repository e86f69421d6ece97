"""Spans around the benchmark's own calls into the program's layers.

A span records its name, start and end (monotonic nanoseconds), the span
that caused it and the question it belongs to.  Spans stay in memory
and are written out once, when the round ends.  A layer's self time is
its span's duration minus the part its child spans cover.

A traced round hands the workload a TracedAPI in place of the package,
so the workloads call the program the same way in both kinds of round
and an untraced round calls it directly, with nothing in between.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

now_ns = time.monotonic_ns

# The public functions a traced round records, by the span they count
# toward.  Names are those of idealconv and idealconv.serialize.
SPANS = {
    "classify": "terms.classify",
    "member": "terms.member",
    "nat_value": "natset.eval",
    "pair_grid": "pairset.eval",
    "preimage_term": "bijections.preimage",
    "in_ideal": "ideals.in_ideal",
    "known_subset": "ideals.known_subset",
    "converges": "convergence.converges",
    "limits": "convergence.limits",
    "star_converges": "convergence.star",
    "verify_witness": "convergence.verify",
    "decompose": "convergence.decompose",
    "additive_property": "additivity.ap",
    "certify_failure_on_truncation": "additivity.certify",
    "encode_ideal": "finite.encode",
    "encode_space": "finite.encode",
    "encode_fn": "finite.encode",
    "brute_i_limits": "finite.brute",
    "brute_ihj": "finite.brute",
    "lemma_suite": "finite.lemma",
    "pi_condition_crosscheck": "finite.crosscheck",
    "term_from_obj": "serialize.parse",
    "ideal_from_obj": "serialize.parse",
    "fn_from_obj": "serialize.parse",
    "value_from_obj": "serialize.parse",
    "canonical_dumps": "serialize.render",
    "term_to_obj": "serialize.render",
    "fn_to_obj": "serialize.render",
    "star_to_obj": "serialize.render",
    "value_to_obj": "serialize.render",
}


class TracedAPI:
    """Stands in for a module: the functions named in SPANS come back
    wrapped in their span, submodules come back wrapped alike, and every
    other name comes back unchanged."""

    def __init__(self, module, tracer):
        self._module = module
        self._tracer = tracer

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if name in SPANS:
            value = self._wrap(SPANS[name], value)
        elif isinstance(value, types.ModuleType):
            value = TracedAPI(value, self._tracer)
        setattr(self, name, value)
        return value

    def _wrap(self, span, fn):
        call = self._tracer.call
        return lambda *args: call(span, fn, *args)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, question id]
        self._stack = []
        self._qid = -1

    def question(self, qid):
        self._qid = qid

    def call(self, name, fn, *args):
        idx = len(self.spans)
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self._qid]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = now_ns()
        try:
            return fn(*args)
        finally:
            span[2] = now_ns()
            self._stack.pop()

    def layer_totals(self):
        """{name: (self seconds, calls)} over every recorded span."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        acc = defaultdict(lambda: [0, 0])
        for k, (name, start, end, _, _) in enumerate(self.spans):
            acc[name][0] += end - start - child_ns[k]
            acc[name][1] += 1
        return {n: (ns / 1e9, c) for n, (ns, c) in acc.items()}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "question"],
                       "spans": self.spans}, fh, separators=(",", ":"))
