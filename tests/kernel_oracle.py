"""Longest antipalindromes of every small fixed point at several prefix lengths.

    PYTHONPATH=src python tests/kernel_oracle.py > kernel.jsonl

For every morphism of the image-length <= 5 scan space (in ``scan_space``
order) that ``fixed_point_source`` gives a fixed point, one line is printed:
``[morphism, source, host, letter, lengths]`` with ``longest_antipalindrome``
of the fixed point's prefixes of ``PREFIX_LENS`` letters.  The short lengths
reach the edge centres of the kernel's exact first stage (a word of 2W + 1,
2W + 2 or 2W + 3 letters for the exact width W = 16), the long ones its
search; the scan digests pin only the two evidence scales.  The sha256 of
the output is a regression oracle for the kernel (pytest does not collect
this file).
"""

import json
import sys

from antipal.cli import scan_space
from antipal.morphisms import fixed_point_prefix, fixed_point_source, format_morphism, parse_morphism
from antipal.words import longest_antipalindrome

PREFIX_LENS = (1, 2, 16, 33, 34, 35, 1000, 25_000, 100_000)


def lines(max_image_len=5):
    for text in scan_space(max_image_len):
        found = fixed_point_source(parse_morphism(text))
        if found is None:
            continue
        source, host, letter = found
        w = fixed_point_prefix(host, letter, max(PREFIX_LENS))
        lengths = [longest_antipalindrome(w[:n]) for n in PREFIX_LENS]
        yield json.dumps([text, source, format_morphism(host), letter, lengths]) + "\n"


if __name__ == "__main__":
    sys.stdout.writelines(lines())
