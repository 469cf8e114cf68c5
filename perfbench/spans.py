"""Span tracing from outside the program.

``Tracer.install`` replaces public functions of the antipal layers with
span-recording wrappers, at every name a calling module binds them under
(``antipal.membership.longest_antipalindrome``, ``antipal.cli.classify``,
``antipal.language.FactorIndex.census`` ...), so calls made inside the
package route through the wrappers with ``src/`` untouched.
``Tracer.uninstall`` puts the originals back.

Spans live in memory as (name, start, end, parent, job) and are written
once, when the run ends.  A span's self time is its duration minus the time
its child spans cover.  Tracing is serial only: forked pool workers would
record spans the parent never sees.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _letters(args, result):
    return len(args[0])


# Each layer group: span name, the functions it covers as (module, attribute)
# at every binding site, and the counters it keeps besides `calls`.
GROUPS = (
    ("words.longest_antipalindrome",
     [("antipal.membership", "longest_antipalindrome"), ("antipal.language", "longest_antipalindrome")],
     {"letters": _letters}),
    ("words.smallest_period",
     [("antipal.membership", "smallest_period"), ("antipal.words", "smallest_period")],
     {"letters": _letters}),
    ("morphisms.fixed_point_prefix",
     [("antipal.membership", "fixed_point_prefix"), ("antipal.language", "fixed_point_prefix"),
      ("antipal.morphisms", "fixed_point_prefix")],
     {"letters": lambda args, result: len(result)}),
    ("morphisms.conjugacy_chain",
     [("antipal.membership", "conjugacy_chain"), ("antipal.language", "conjugacy_chain")],
     {"chain_len": lambda args, result: len(result.chain)}),
    ("morphisms.square",
     [("antipal.membership", "square")],
     {}),
    ("membership.witnesses",
     [("antipal.membership", name) for name in
      ("p_witnesses", "ep_witnesses", "ep_suffix_witnesses", "a1_witnesses", "a2_witnesses")],
     {"hits": lambda args, result: int(bool(result))}),
    ("membership.classify",
     [("antipal.membership", "classify"), ("antipal.cli", "classify")],
     {}),
    ("equations.decompose",
     [("antipal.membership", "decompose_two_palindromes"), ("antipal.membership", "decompose_two_antipalindromes")],
     {}),
    ("language.build_index",
     [("antipal.language", "build_index"), ("antipal.cli", "build_index")],
     {"stable_up_to": lambda args, result: result.stable_up_to}),
    ("language.census",
     [("antipal.language", "FactorIndex.census")],
     {"lengths": lambda args, result: len(result)}),
    ("language.bispecials", [("antipal.language", "FactorIndex.bispecials")], {}),
    ("language.e_closure_check", [("antipal.language", "FactorIndex.e_closure_check")], {}),
    ("language.antipal_center", [("antipal.language", "FactorIndex.antipal_center")], {}),
    ("cli.scan", [("antipal.cli", "cmd_scan")], {}),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.job = None
        self._stack: list[int] = []
        self._patched: list = []

    @contextmanager
    def span(self, name: str):
        """Record one span around a block, for boundaries outside the wrapped functions."""
        index = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float):
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.job)

    def _wrap(self, name, fn, counters):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, name, start)
            counts = tracer.counts[name]
            counts["calls"] += 1
            for key, count in counters.items():
                counts[key] += count(args, result)
            return result

        return wrapper

    def install(self):
        wrapped = {}
        for name, sites, counters in GROUPS:
            for module_name, attr in sites:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original, counters)
                setattr(owner, leaf, wrapped[id(original)])
                self._patched.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    def self_times(self, keep=lambda job: True) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's,
        over the spans whose job id satisfies ``keep``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            if keep(job):
                out[name] += end - start - child[i]
        return out

    def add_spans(self, spans, job):
        """Append spans recorded in another process, re-parented into this list."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1, job))

    def add_counts(self, counts):
        for name, values in counts.items():
            for key, value in values.items():
                self.counts[name][key] += value

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")
