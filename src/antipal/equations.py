"""Solvers for the handful of word equations the deciders rely on.

Each solver either returns the defining decomposition or raises a
``NoSolution`` subclass.  Decomposition operations return every solution
so that downstream code never depends on an arbitrary pick; where a
single solution is returned it is the canonical one documented on the
function.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from math import gcd

from .errors import (
    ConsistencyError,
    EmptyWordError,
    EquationFails,
    HypothesisNotMet,
    NoCommonRoot,
    NoNormalForm,
    NotAntipalindrome,
    NotCommuting,
    PreconditionViolated,
)
from .words import Word, exchange, is_antipalindrome, is_palindrome, primitive_root


@dataclass(frozen=True)
class CommutationSolution:
    """x == u**i and y == u**j for a primitive u."""

    u: Word
    i: int
    j: int


@dataclass(frozen=True)
class TransferSolution:
    """x == u+v, y == (u+v)*i + u, z == v+u."""

    u: Word
    v: Word
    i: int


@dataclass(frozen=True)
class PalAntipalSolution:
    """x == (u+E(u))*i + u and y == (E(u)+u)*j + E(u) for a palindrome u."""

    u: Word
    i: int
    j: int


def solve_commutation(x: Word, y: Word) -> CommutationSolution:
    """Solve xy = yx: both words are powers of a common primitive root.

    When both inputs are empty any primitive root fits; "0" is returned
    for determinism.
    """
    if x + y != y + x:
        raise NotCommuting(f"{x!r} and {y!r} do not commute")
    base = x or y
    if not base:
        return CommutationSolution("0", 0, 0)
    root, _ = primitive_root(base)
    return CommutationSolution(root, len(x) // len(root), len(y) // len(root))


def solve_transfer(x: Word, y: Word, z: Word) -> TransferSolution:
    """Solve xy = yz with x nonempty: x = uv, y = (uv)^i u, z = vu."""
    if not x:
        raise EmptyWordError("x must be nonempty")
    if x + y != y + z:
        raise EquationFails(f"{x!r}+{y!r} != {y!r}+{z!r}")
    i, r = divmod(len(y), len(x))
    u, v = x[:r], x[r:]
    return TransferSolution(u, v, i)


def alternations(x: Word, y: Word, t: Callable[[Word], Word]) -> Iterator[tuple[Word, int, int]]:
    """Every (c, i, j) with x == c + (t(c)+c)*i and y == (t(c)+c)*j + t(c),
    shortest c first; t must preserve length (reverse, exchange)."""
    for ell in range(1, len(x) + 1):
        qx, rx = divmod(len(x), ell)
        qy, ry = divmod(len(y), ell)
        if rx or ry or qx % 2 == 0 or qy % 2 == 0:
            continue
        c = x[:ell]
        tc = t(c)
        i, j = (qx - 1) // 2, (qy - 1) // 2
        if x == c + (tc + c) * i and y == (tc + c) * j + tc:
            yield c, i, j


def solve_pal_antipal(x: Word, y: Word) -> PalAntipalSolution:
    """Two nonempty palindromes whose concatenation is an antipalindrome.

    Returns the solution with the shortest seed palindrome u.
    """
    if not x or not y or not is_palindrome(x) or not is_palindrome(y):
        raise PreconditionViolated("x and y must be nonempty palindromes")
    if not is_antipalindrome(x + y):
        raise NotAntipalindrome(f"{x + y!r} is not an antipalindrome")
    for u, i, j in alternations(x, y, exchange):
        if is_palindrome(u):
            return PalAntipalSolution(u, i, j)
    raise ConsistencyError(
        f"no seed palindrome found for x={x!r}, y={y!r} although xy is an antipalindrome"
    )


def _is_prefix_of_power(w: Word, x: Word) -> bool:
    reps = len(w) // len(x) + 1
    return (x * reps).startswith(w)


def fine_wilf_root(x: Word, y: Word, w: Word) -> Word:
    """Common root extraction from a long enough common prefix of powers.

    If w is a prefix of both x**r and y**r and |w| >= |x|+|y|-gcd(|x|,|y|),
    the periodicity bound forces a word z with x and y both nonempty
    powers of z.  Empty x or y admits no such z and raises NoCommonRoot.
    """
    if not x or not y:
        raise NoCommonRoot("empty inputs cannot be nonempty powers of a common root")
    if not _is_prefix_of_power(w, x) or not _is_prefix_of_power(w, y):
        raise HypothesisNotMet("w is not a common prefix of powers of x and y")
    g = gcd(len(x), len(y))
    if len(w) < len(x) + len(y) - g:
        raise HypothesisNotMet(
            f"|w|={len(w)} is below the bound {len(x) + len(y) - g}"
        )
    z = w[:g]
    if z * (len(x) // g) != x or z * (len(y) // g) != y:
        raise ConsistencyError("periodicity bound met but no common root emerged")
    return z


def _two_splits(w: Word, mirror) -> tuple[tuple[Word, Word], ...]:
    if not w:
        raise EmptyWordError("need a nonempty word to decompose")
    return tuple((w[:k], w[k:]) for k in range(len(w) + 1) if mirror(w[:k]) and mirror(w[k:]))


def decompose_two_palindromes(w: Word) -> tuple[tuple[Word, Word], ...]:
    """All splits w = p + q with both parts palindromes (empty parts allowed)."""
    return _two_splits(w, is_palindrome)


def decompose_two_antipalindromes(w: Word) -> tuple[tuple[Word, Word], ...]:
    """All splits of w into two antipalindromes (empty parts allowed)."""
    return _two_splits(w, is_antipalindrome)


def antipal_periodic_normal_form(w: Word) -> tuple[Word, int]:
    """Write a rotation of w as (c + E(c))**k with c a palindrome.

    Rotations are scanned by offset, then candidate lengths of c in
    increasing order; the first hit is returned.  Rotation search absorbs
    any preperiod of the purely periodic word w generates, which is the
    only periodic shape handled here.
    """
    if not w:
        raise EmptyWordError("need a nonempty word")
    n = len(w)
    if n % 2 == 0:
        half = n // 2
        for s in range(n):
            r = w[s:] + w[:s]
            for d in range(1, half + 1):
                if half % d:
                    continue
                c = r[:d]
                if is_palindrome(c) and (c + exchange(c)) * (half // d) == r:
                    return c, half // d
    raise NoNormalForm(f"no rotation of {w!r} is a power of c+E(c) with c a palindrome")
