"""Census rows of every small prolongable fixed point, one JSON line per index.

    PYTHONPATH=src python tests/census_oracle.py > census.jsonl

For each (bound, prefix length, n_max) below, every morphism whose two
images have 1..bound letters (in ``itertools.product`` order) is indexed at
each of its prolongable letters in order, and one line is printed:
``[morphism, letter, prefix length, n_max, stable_up_to, rows]`` with a row
``[length, factor_count, palindrome_count, antipalindrome_count, certified]``
for every length 1..n_max.  The sha256 of the output is a regression oracle
for the census and its certification (pytest does not collect this file;
``census_diff.py`` compares two sets of these outputs).

    PYTHONPATH=src python tests/census_oracle.py --queries > queries.jsonl

prints, over the same indexes, ``[morphism, letter, prefix length, n_max,
stable_up_to, e_closure_check(), bispecials(), antipal_center(16)]``: an
oracle for the queries that read the certified factors.

    PYTHONPATH=src python tests/census_oracle.py --grid > grid.jsonl

prints the same lines as the first mode for the family ``0->0(110)^k,
1->1(001)^k``, k = 1, 2, 3, at prefix lengths 25000 and 100000 with n_max
6250, over the census lengths ``GRID``: an oracle for certification past 64
letters (by the proven prefix length at n_max or by a binary search on it)
and for the long rows of every rank level up to 4096 letters.

    PYTHONPATH=src python tests/census_oracle.py --grid-queries > grid-queries.jsonl

prints the query lines of ``--queries`` for the grid indexes, with
``antipal_center(64)`` in place of ``antipal_center(16)``: an oracle for
the queries past 64 letters.

    PYTHONPATH=src python tests/census_oracle.py --long-queries > long-queries.jsonl

prints ``[morphism, letter, prefix length, n_max, stable_up_to,
e_closure_check(), antipal_center(150)]`` for the indexes at (1200, 300):
an oracle for the exchange ids past 64 letters off the grid family.

    PYTHONPATH=src python tests/census_oracle.py --long-bispecials > long-bispecials.jsonl

prints ``[morphism, letter, prefix length, n_max, stable_up_to,
bispecials()]`` for the indexes with images of up to 4 letters at (1200,
300): an oracle for the bispecial factors past 64 letters, those that head
the prefix among them, on more hosts than the images of up to 3 letters
that ``--queries`` reads.

    PYTHONPATH=src python tests/census_oracle.py --boundaries > boundaries.jsonl

prints ``[morphism, letter, prefix length, n_max, stable_up_to,
e_closure_check(), rows]`` for the indexes with images of up to 2 letters at
n_max 65, 128, 129, 256 and 257 with prefix length ``4 * n_max + 3``: an
oracle for the long rows and certification on both sides of each change
of rank-level width.
"""

import itertools
import json
import sys

from antipal.language import build_index
from antipal.morphisms import Morphism, prolongable_letters

CASES = ((4, 2000, 64), (3, 1200, 300))
LONG_BISPECIALS = ((4, 1200, 300),)
BOUNDARIES = tuple((2, 4 * n_max + 3, n_max) for n_max in (65, 128, 129, 256, 257))
GRID = [*range(1, 65), 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144]


def indexes(cases=CASES):
    for bound, prefix_len, n_max in cases:
        images = ["".join(w) for k in range(1, bound + 1) for w in itertools.product("01", repeat=k)]
        for a in images:
            for b in images:
                m = Morphism(a, b)
                for letter in sorted(prolongable_letters(m)):
                    yield build_index(m, letter, prefix_len, n_max)


def head(idx):
    return [str(idx.morphism), idx.letter, idx.prefix_len, idx.n_max, idx.stable_up_to]


def grid_indexes():
    for k in (1, 2, 3):
        for prefix_len in (25_000, 100_000):
            yield build_index(Morphism("0" + "110" * k, "1" + "001" * k), "0", prefix_len, 6250)


def lines(source=indexes, lengths=None):
    for idx in source():
        rows = [
            [r.length, r.factor_count, r.palindrome_count, r.antipalindrome_count, r.certified]
            for r in idx.census(lengths)
        ]
        yield json.dumps([*head(idx), rows]) + "\n"


def long_query_lines():
    for idx in indexes(CASES[1:]):
        yield json.dumps([*head(idx), idx.e_closure_check(), idx.antipal_center(150)]) + "\n"


def long_bispecial_lines():
    for idx in indexes(LONG_BISPECIALS):
        yield json.dumps([*head(idx), list(idx.bispecials())]) + "\n"


def boundary_lines():
    for idx in indexes(BOUNDARIES):
        rows = [
            [r.length, r.factor_count, r.palindrome_count, r.antipalindrome_count, r.certified]
            for r in idx.census()
        ]
        yield json.dumps([*head(idx), idx.e_closure_check(), rows]) + "\n"


def query_lines(source=indexes, center=16):
    for idx in source():
        queries = [idx.e_closure_check(), list(idx.bispecials()), idx.antipal_center(center)]
        yield json.dumps([*head(idx), *queries]) + "\n"


if __name__ == "__main__":
    modes = {
        "--queries": query_lines,
        "--grid": lambda: lines(grid_indexes, GRID),
        "--grid-queries": lambda: query_lines(grid_indexes, 64),
        "--long-queries": long_query_lines,
        "--long-bispecials": long_bispecial_lines,
        "--boundaries": boundary_lines,
    }
    sys.stdout.writelines(modes[sys.argv[1]]() if sys.argv[1:] else lines())
