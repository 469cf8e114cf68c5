"""Digests of fixed-point prefixes: every small host, and a few very long prefixes.

    PYTHONPATH=src python tests/fixed_point_oracle.py > fixed-points.jsonl

For every (host, letter) that ``fixed_point_source`` gives on the
image-length <= 5 scan space, for the default seed letter and for either
``--seed-letter`` (square hosts included), one line is printed:
``[host, letter, n, sha256]`` with the sha256 of
``fixed_point_prefix(host, letter, n)`` at n = 100000.  The pairs come in
the order of their first appearance in ``scan_space``.  Then the same line
at n = 10**7 for Thue-Morse, Fibonacci, ``0->0110110,1->1`` (one image of a
single letter) and the square host of ``0->10,1->0``.  The sha256 of the
output is a regression oracle for ``fixed_point_prefix``; the scan digests
pin only the prefixes that a record's evidence reads, and only through the
longest antipalindromes (pytest does not collect this file).
"""

import hashlib
import json
import sys

from antipal.cli import scan_space
from antipal.errors import PreconditionViolated
from antipal.morphisms import fixed_point_prefix, fixed_point_source, format_morphism, parse_morphism

SHORT = 100_000
LONG = 10**7
LONG_HOSTS = (
    ("0->01,1->10", "0"),
    ("0->01,1->0", "0"),
    ("0->0110110,1->1", "0"),
    ("0->010,1->10", "0"),  # the square of 0->10,1->0, which has no prolongable letter
)


def _pairs(max_image_len=5):
    seen = {}
    for text in scan_space(max_image_len):
        m = parse_morphism(text)
        for letter in (None, "0", "1"):
            try:
                found = fixed_point_source(m, letter)
            except PreconditionViolated:
                continue
            if found is not None:
                _, host, seed = found
                seen.setdefault((format_morphism(host), seed), host)
    return seen.items()


def _line(text, host, letter, n):
    digest = hashlib.sha256(fixed_point_prefix(host, letter, n).encode()).hexdigest()
    return json.dumps([text, letter, n, digest]) + "\n"


def lines():
    for (text, letter), host in _pairs():
        yield _line(text, host, letter, SHORT)
    for text, letter in LONG_HOSTS:
        yield _line(text, parse_morphism(text), letter, LONG)


if __name__ == "__main__":
    sys.stdout.writelines(lines())
