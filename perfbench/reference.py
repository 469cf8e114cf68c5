"""Reference values the code under test does not produce.

Closed forms from the literature, and plain string computations over
fixed-point prefixes generated by plain iteration (``inputs.fixed_prefix``),
independently of ``antipal``.
"""

from __future__ import annotations

from inputs import exchange


def thue_morse_complexity(n: int) -> int:
    """Factor complexity of Thue-Morse (Brlek 1989; de Luca and Varricchio 1989).

    p(1) = 2, p(2) = 4; for n >= 3 write n = 2^r + q + 1 with 0 <= q < 2^r,
    then p(n) = 6*2^(r-1) + 4q if q < 2^(r-1), else 8*2^(r-1) + 2q.
    """
    if n <= 2:
        return 2 * n
    r = (n - 2).bit_length() - 1
    q = n - 2**r - 1
    half = 2 ** (r - 1)
    return 6 * half + 4 * q if q < half else 8 * half + 2 * q


def sturmian_row(n: int) -> tuple[int, int]:
    """(factor count, palindrome count) of length n in a Sturmian word."""
    return n + 1, 1 if n % 2 == 0 else 2


def exact_row(prefix: str, n: int) -> tuple[int, int, int]:
    """Distinct factors, palindromes and antipalindromes of length n in ``prefix``."""
    factors = {prefix[i : i + n] for i in range(len(prefix) - n + 1)}
    pal = sum(1 for w in factors if w == w[::-1])
    anti = sum(1 for w in factors if w == exchange(w))
    return len(factors), pal, anti


def conjugates(image0: str, image1: str) -> set[tuple[str, str]]:
    """Every morphism reachable by moving a shared first letter of both images
    to their ends, or a shared last letter to their fronts."""
    seen = {(image0, image1)}
    todo = [(image0, image1)]
    while todo:
        x, y = todo.pop()
        steps = []
        if x and y and x[0] == y[0]:
            steps.append((x[1:] + x[0], y[1:] + y[0]))
        if x and y and x[-1] == y[-1]:
            steps.append((x[-1] + x[:-1], y[-1] + y[:-1]))
        for step in steps:
            if step not in seen:
                seen.add(step)
                todo.append(step)
    return seen


def witness_shape_ok(d: dict) -> bool:
    """The defining equations of each witness kind, checked on the strings."""
    kind = d["kind"]
    if kind == "p":
        return all(w == w[::-1] for w in (d["prefix"], d["tail0"], d["tail1"]))
    if kind == "ep":
        return all(w == exchange(w) for w in (d["prefix"], d["tail0"], d["tail1"]))
    if kind == "a1":
        return bool(d["head"]) and d["suffix"] == exchange(d["suffix"])
    if kind == "a2":
        return bool(d["core"]) and d["k"] >= 0 and d["h"] >= 0
    return False
