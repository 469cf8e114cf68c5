"""Factor language of a fixed-point prefix.

The index is built over the length-N prefix of a fixed point.  Because a
prefix only approximates the infinite language, a length n is trusted only
when the n-factors of the half prefix and of the full prefix agree.  That
property is downward closed, so ``stable_up_to`` is an exact threshold
found by one binary search.  Queries beyond the certified range raise
instead of silently lying.

Per-length counting works on rolling hashes (two 31-bit prime moduli,
numpy-vectorized), which keeps full censuses over thousands of lengths
affordable; collisions across both moduli are negligible at these sizes.
The special-factor operations work on exact string sets: every certified
length is cut from the one set of windows of length ``stable_up_to``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadBounds,
    CertificationExceeded,
    CyclicMorphism,
    PreconditionViolated,
    UnstableLength,
)
from .morphisms import Morphism, apply, conjugacy_chain, fixed_point_prefix
from .words import Word, exchange, is_antipalindrome, longest_antipalindrome, power_table

_MODS = ((2_147_483_647, 1_000_003), (2_147_483_629, 998_244_353))


class _HashedText:
    """Prefix hashes of one string under both moduli."""

    def __init__(self, s: str, powers, inverse_powers):
        digits = np.frombuffer(s.encode("ascii"), dtype=np.uint8).astype(np.int64) - ord("0")
        self.length = len(s)
        self.prefix = []
        self.inverse_powers = inverse_powers
        for (mod, _), pw in zip(_MODS, powers):
            q = np.zeros(self.length + 1, dtype=np.int64)
            np.cumsum(digits * pw[: self.length], out=q[1:])
            q[1:] %= mod
            self.prefix.append(q)

    def window_keys(self, n: int) -> np.ndarray:
        """Combined hash of every length-n window, indexed by start."""
        count = self.length - n + 1
        keys = None
        for (mod, _), q, inv in zip(_MODS, self.prefix, self.inverse_powers):
            h = (q[n : n + count] - q[:count]) % mod
            h = h * inv[:count] % mod
            keys = h if keys is None else keys * mod + h
        return keys


def _power_tables(n: int):
    powers = [power_table(base, mod, n + 1) for mod, base in _MODS]
    inverse_powers = [power_table(pow(base, mod - 2, mod), mod, n + 1) for mod, base in _MODS]
    return powers, inverse_powers


@dataclass(frozen=True)
class CensusRow:
    length: int
    factor_count: int
    palindrome_count: int
    antipalindrome_count: int
    certified: bool


class FactorIndex:
    """Factors of a fixed-point prefix, organized by length."""

    def __init__(self, morphism: Morphism, letter: str, prefix_len: int, n_max: int):
        if n_max < 1 or n_max > prefix_len // 4:
            raise BadBounds(f"need 1 <= n_max <= prefix_len // 4, got {n_max} / {prefix_len}")
        self.morphism = morphism
        self.letter = letter
        self.prefix_len = prefix_len
        self.n_max = n_max
        self.prefix = fixed_point_prefix(morphism, letter, prefix_len)
        powers, inverse_powers = _power_tables(prefix_len)
        self._fwd = _HashedText(self.prefix, powers, inverse_powers)
        self._rev = _HashedText(self.prefix[::-1], powers, inverse_powers)
        self._exch = _HashedText(exchange(self.prefix), powers, inverse_powers)
        self._sets: dict[int, frozenset[str]] = {0: frozenset({""})}
        self.stable_up_to = self._certify()

    def _stable_at(self, n: int) -> bool:
        """Factor set of length n agrees between the half and full prefix."""
        keys = self._fwd.window_keys(n)
        half_count = self.prefix_len // 2 - n + 1
        return half_count >= 1 and bool(
            np.array_equal(np.unique(keys[:half_count]), np.unique(keys))
        )

    def _certify(self) -> int:
        """Largest n <= n_max with the length-n factor sets stable.

        Stability is downward closed: when the n-factors of the half and
        the full prefix agree, every (n-1)-factor of the full prefix is the
        head or the tail of one of its n-factors, hence a factor of the half
        prefix.  So one binary search finds the threshold, and every length
        up to it is stable.
        """
        lo, hi = 0, self.n_max + 1  # length lo is stable; hi is not, or is past n_max
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._stable_at(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def factors(self, n: int) -> frozenset[str]:
        """Exact set of length-n factors of the prefix (not certification-gated).

        A certified length is cut from the length-``stable_up_to`` windows:
        every length-n factor lies inside one of them, which also occurs in
        the half prefix, and a window starting inside the half prefix fits
        in the prefix, so the factor heads a window.  Longer lengths are
        sliced from the prefix directly.
        """
        if n < 0 or n > self.prefix_len:
            return frozenset()
        if n not in self._sets:
            top, u = self.stable_up_to, self.prefix
            if n < top:
                self._sets[n] = frozenset(w[:n] for w in self.factors(top))
            else:
                self._sets[n] = frozenset(u[i : i + n] for i in range(len(u) - n + 1))
        return self._sets[n]

    def certified_factor(self, w: Word) -> bool:
        return len(w) <= self.stable_up_to and (w == "" or w in self.factors(len(w)))

    def _require_certified(self, n: int):
        if n > self.stable_up_to:
            raise UnstableLength(
                f"length {n} exceeds the certified range (stable up to {self.stable_up_to})"
            )

    def right_special(self, n: int) -> frozenset[str]:
        """Certified length-n factors extendable by both letters on the right."""
        self._require_certified(n + 1)
        longer = self.factors(n + 1)
        return frozenset(w for w in self.factors(n) if w + "0" in longer and w + "1" in longer)

    def left_special(self, n: int) -> frozenset[str]:
        self._require_certified(n + 1)
        longer = self.factors(n + 1)
        return frozenset(w for w in self.factors(n) if "0" + w in longer and "1" + w in longer)

    def bispecials(self) -> tuple[str, ...]:
        """All bispecial factors within the certified range, shortest first."""
        return tuple(
            w
            for n in range(self.stable_up_to)
            for w in sorted(self.right_special(n) & self.left_special(n))
        )

    def census(self, lengths=None) -> tuple[CensusRow, ...]:
        """Distinct factor / palindrome / antipalindrome counts per length.

        ``lengths`` defaults to every length up to n_max; pass a sparser
        grid when n_max is large.
        """
        rows = []
        for n in lengths if lengths is not None else range(1, self.n_max + 1):
            if not 1 <= n <= self.n_max:
                raise BadBounds(f"census length {n} outside 1..{self.n_max}")
            keys = self._fwd.window_keys(n)
            count = keys.size
            mirror = self._rev.window_keys(n)[::-1]
            pal = int(np.unique(keys[keys == mirror]).size)
            if n % 2:
                anti = 0
            else:
                image = self._exch.window_keys(n)[::-1]
                anti = int(np.unique(keys[keys == image]).size)
            rows.append(
                CensusRow(
                    length=n,
                    factor_count=int(np.unique(keys).size),
                    palindrome_count=pal,
                    antipalindrome_count=anti,
                    certified=n <= self.stable_up_to,
                )
            )
        return tuple(rows)

    def e_closure_check(self) -> bool:
        """True iff the certified factor sets are closed under the exchange map."""
        for n in range(1, self.stable_up_to + 1):
            fs = self.factors(n)
            if any(exchange(w) not in fs for w in fs):
                return False
        return True

    def antipal_center(self, limit: int) -> str:
        """The right half w of the least longest certified antipalindrome
        E(w)+w with |w| <= limit, or "" when there is none.

        The middle of E(wa)+wa is E(w)+w, so the valid w are closed under
        prefixes: a letter-by-letter search from "" that tries "0" first
        reaches every valid w, and the first one of greatest length it
        meets is the lexicographically least.  So the answer is the least
        right half among the antipalindromic factors of the greatest even
        certified length that has one.
        """
        for k in range(min(limit, self.stable_up_to // 2), 0, -1):
            halves = [v[k:] for v in self.factors(2 * k) if is_antipalindrome(v)]
            if halves:
                return min(halves)
        return ""

    def extend_to_bispecial(self, f: Word) -> str:
        """Extend rightward by forced letters to a right special factor,
        then leftward to a left special one."""
        if not self.certified_factor(f):
            raise PreconditionViolated(f"{f!r} is not a certified factor")
        w = f
        for side, attach in (("right", lambda w, a: w + a), ("left", lambda w, a: a + w)):
            while True:
                if len(w) + 1 > self.stable_up_to:
                    raise CertificationExceeded(
                        f"ran into the certification boundary at length {len(w)}"
                    )
                longer = self.factors(len(w) + 1)
                exts = [x for x in (attach(w, "0"), attach(w, "1")) if x in longer]
                if len(exts) == 2:
                    break
                if not exts:
                    raise CertificationExceeded(f"{w!r} has no certified {side} extension")
                w = exts[0]
        return w


def build_index(
    morphism: Morphism, letter: str, prefix_len: int = 100_000, n_max: int = 64
) -> FactorIndex:
    return FactorIndex(morphism, letter, prefix_len, n_max)


def bispecial_successor(m: Morphism, w: Word) -> Word:
    """Image of a bispecial factor under the rightmost conjugate, followed
    by the conjugacy word; maps bispecial factors to bispecial factors."""
    chain = conjugacy_chain(m)
    if chain.cyclic:
        raise CyclicMorphism(f"{m} is cyclic")
    return apply(chain.rightmost, w) + chain.q_full


@dataclass(frozen=True)
class BispecialOrbit:
    seed: Word
    steps: tuple[Word, ...]


def bispecial_orbit(m: Morphism, seed: Word, count: int) -> BispecialOrbit:
    steps = []
    w = seed
    for _ in range(count):
        w = bispecial_successor(m, w)
        steps.append(w)
    return BispecialOrbit(seed, tuple(steps))


def q_antipalindrome_check(m: Morphism, idx: FactorIndex) -> bool | None:
    """Consistency check: when the prefix keeps producing longer
    antipalindromes, the conjugacy word between the extreme conjugates
    must itself be an antipalindrome.

    Returns None when the evidence does not grow (check not applicable),
    otherwise the verdict of the antipalindrome test on the conjugacy
    word.
    """
    chain = conjugacy_chain(m)
    if chain.cyclic:
        raise CyclicMorphism(f"{m} is cyclic")
    quarter = idx.prefix[: idx.prefix_len // 4]
    if longest_antipalindrome(idx.prefix) <= longest_antipalindrome(quarter):
        return None
    return is_antipalindrome(chain.q_full)
