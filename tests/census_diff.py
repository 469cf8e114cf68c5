"""Compare the census oracle's output before and after a change of certification.

    PYTHONPATH=src python tests/census_diff.py OLD NEW

OLD and NEW are directories that each hold the six outputs of
``tests/census_oracle.py``, named as the CI steps name them:
``census.jsonl`` (no flag), ``queries.jsonl``, ``grid.jsonl``,
``grid-queries.jsonl``, ``long-queries.jsonl`` and ``boundaries.jsonl``
(``--queries`` and so on).  Make OLD at the parent commit and NEW at the
change, and run this script from the change, whose ``proven_prefix_len``
it reads.

A line may differ only in ``stable_up_to`` and in the ``certified`` flags,
and every count must be the same.  Each ``certified`` flag must read
``length <= stable_up_to``.  The query answers (``e_closure_check()``,
``bispecials()``, ``antipal_center()``) may move only on an index whose
``stable_up_to`` moved, and there they must equal those of a brute force
on the prefix of proven length N(stable_up_to), which holds every
certified factor: the bispecial factors and the closure come from a plain
one-letter-at-a-time refinement of the windows of that prefix, the centre
from ``bruteforce.bf_antipal_center``.  The script prints one summary line
per file and exits 1 on the first difference it cannot accept.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from antipal.morphisms import fixed_point_prefix, parse_morphism, proven_prefix_len
from bruteforce import bf_antipal_center, bf_exchange

# the rows' place in a line of each census file, and the query answers that
# a line of each file holds after stable_up_to, from (closure, bispecials,
# centre at a limit)
ROWS = {"census.jsonl": 5, "grid.jsonl": 5, "boundaries.jsonl": 6}
QUERIES = {
    "census.jsonl": lambda closed, found, center: [],
    "grid.jsonl": lambda closed, found, center: [],
    "boundaries.jsonl": lambda closed, found, center: [closed],
    "queries.jsonl": lambda closed, found, center: [closed, found, center(16)],
    "grid-queries.jsonl": lambda closed, found, center: [closed, found, center(64)],
    "long-queries.jsonl": lambda closed, found, center: [closed, center(150)],
}


def refine(text, top):
    """Yield (k, ids) for k = 0 .. top, where ids[i] is the rank of
    text[i : i + k] among the distinct k-windows of ``text`` (letters 0, 1
    and 2), ordered as the words are: each step pairs a k-window's rank with
    the letter after it, and ranks the pairs through a table."""
    letters = np.frombuffer(text.encode("ascii"), dtype=np.uint8).astype(np.int64) - ord("0")
    ids = np.zeros(letters.size + 1, dtype=np.int64)
    for k in range(top + 1):
        yield k, ids
        pairs = ids[:-1] * 3 + letters[k:]
        seen = np.zeros(int(pairs.max()) + 1, dtype=bool)
        seen[pairs] = True
        ids = (np.cumsum(seen) - 1)[pairs]


def bf_queries(prefix, top):
    """(closure, bispecials) of the factors of ``prefix`` of 1 .. top letters."""
    found = []
    letters = np.frombuffer(prefix.encode("ascii"), dtype=np.uint8).astype(np.int64) - ord("0")
    for k, ids in refine(prefix, top - 1):
        pairs = ids[:-1] * 3 + letters[k:]
        start = np.zeros(int(pairs.max()) + 1, dtype=np.int64)
        start[pairs] = np.arange(pairs.size)  # a start of each (k+1)-window, by its pair
        present = np.flatnonzero(np.bincount(pairs))
        heads, tails = present // 3, ids[start[present] + 1]
        special = np.intersect1d(np.flatnonzero(np.bincount(heads) >= 2), np.flatnonzero(np.bincount(tails) >= 2))
        where = dict(zip(heads.tolist(), start[present].tolist()))
        found.extend(prefix[where[c] : where[c] + k] for c in special.tolist())
    for _, ids in refine(prefix + "2" + bf_exchange(prefix), top):
        pass
    size = len(prefix) - top + 1
    closed = set(ids[:size].tolist()) == set(ids[len(prefix) + 1 : len(prefix) + 1 + size].tolist())
    return closed, found


def proven(line):
    m, letter, prefix_len, _, top = line[:5]
    prefix = fixed_point_prefix(parse_morphism(m), letter, prefix_len)
    bound = proven_prefix_len(parse_morphism(m), letter, top, prefix) if top else 0
    if bound is None or bound > prefix_len:
        raise SystemExit(f"{m} {letter} {prefix_len}: stable_up_to {top} has no proven prefix")
    return prefix[:bound]


def compare(name, old, new):
    moved = checked = 0
    for a, b in zip(old, new, strict=True):
        where = f"{name}: {a[:4]}"
        if a[:4] != b[:4]:
            raise SystemExit(f"{where}: the lines are of different indexes")
        end = ROWS.get(name)
        if end is not None:
            for r, s in zip(a[end], b[end], strict=True):
                if r[:4] != s[:4]:
                    raise SystemExit(f"{where}: the row of length {r[0]} moved: {r} -> {s}")
                if s[4] != (s[0] <= b[4]):
                    raise SystemExit(f"{where}: row {s[0]} certified={s[4]} with stable_up_to {b[4]}")
        if a[4] == b[4]:
            if a[5:end] != b[5:end]:
                raise SystemExit(f"{where}: a query moved while stable_up_to stayed {a[4]}")
            continue
        moved += 1
        expect = QUERIES[name]
        if expect(None, None, lambda limit: None):
            prefix, top = proven(b), b[4]
            closed, found = bf_queries(prefix, top) if top else (True, [])
            center = lambda limit: bf_antipal_center(SimpleNamespace(prefix=prefix, stable_up_to=top), limit)
            if b[5:end] != expect(closed, found, center):
                raise SystemExit(f"{where}: the queries differ from the brute force at stable_up_to {top}")
            checked += 1
    print(f"{name}: {len(new)} lines, stable_up_to moved on {moved}, {checked} of them checked by brute force")


def main(old_dir, new_dir):
    for name in QUERIES:
        old, new = ([json.loads(line) for line in open(Path(d) / name)] for d in (old_dir, new_dir))
        compare(name, old, new)


if __name__ == "__main__":
    main(*sys.argv[1:])
