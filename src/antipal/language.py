"""Factor language of a fixed-point prefix.

The index is built over the length-N prefix of a fixed point.  Because a
prefix only approximates the infinite language, a length n is trusted only
when the n-factors of the half prefix and of the full prefix agree.  That
property is downward closed, so ``stable_up_to`` is an exact threshold.
Queries beyond the certified range raise instead of silently lying.

Up to 64 letters, certification and the distinct factors come from one
sorted array of each prefix's windows, built once: the packed 64-letter
keys in lexicographic order, with the common-head length of neighbours
and one start of each.  The number of distinct n-factors, for every
n <= 64 at once, is one count over those lengths, and the first entry of
each group of windows that share an n-letter head gives one start per
distinct n-factor.

Every window gets an exact integer id: equal ids mean equal words.  The
ids are taken over U = prefix + reverse(prefix) + exchange(prefix), so a
window's mirror image and its exchange are windows of U too, and one
comparison of ids tells a palindrome or an antipalindrome at every
length.  A window of n <= 64 letters is read as an n-bit number from the
packed 64-letter key at its start.  A longer window is covered by two
overlapping windows of length a, the power of two times 64 with
a <= n < 2a, whose dense ranks come from the packed keys by prefix
doubling; each doubling level ranks int64 pairs of the ranks below with
one packed sort, each start held in the low bits beside its pair.
Census rows, certification past 64 letters, the factor sets,
the special factors and exchange closure (tested at the top certified
length only) rest on these ids, so they are exact; no per-length sets are
kept, and strings are cut only for answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadBounds,
    CertificationExceeded,
    CyclicMorphism,
    PreconditionViolated,
    UnstableLength,
)
from .morphisms import Morphism, apply, conjugacy_chain, fixed_point_prefix
from .words import Word, _packed_keys, exchange, is_antipalindrome, longest_antipalindrome

_KEY_LETTERS = 64
_ALL = np.uint64(2**64 - 1)


def _dense_rank(keys: np.ndarray) -> np.ndarray:
    """Rank of each key among the distinct keys, as int32 (equal keys, equal ranks).

    When every key leaves room for a start below it in an int64, the keys
    are packed as ``key << shift | start`` and sorted in place: one sort of
    plain integers, from which a mask reads the order back and a shift the
    sorted keys.  The keys are then overwritten, so the caller passes a
    temporary.  Other keys, such as the uint64 words of level 0 (a view
    of the index's keys), take an argsort and are left as they are.
    """
    shift = keys.size.bit_length()
    if keys.dtype == np.int64 and int(keys.max()) < 2 ** (63 - shift):
        keys <<= shift
        keys |= np.arange(keys.size)
        keys.sort()
        order = keys & ((1 << shift) - 1)
        keys >>= shift
        ordered = keys
    else:
        order = np.argsort(keys)
        ordered = keys[order]
    step = np.zeros(keys.size, dtype=np.int32)
    np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
    del ordered  # the ranks are built in place, so the peak stays at one sorted copy
    np.cumsum(step, out=step)
    rank = np.empty(keys.size, dtype=np.int32)
    rank[order] = step
    return rank


def _distinct(ids: np.ndarray) -> int:
    """Number of distinct values (a sort is much faster here than ``np.unique``'s hashing)."""
    ordered = np.sort(ids)
    return int(ordered.size > 0) + int(np.count_nonzero(ordered[1:] != ordered[:-1]))


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Bit length of each uint64 (the frexp exponent of each 32-bit half,
    which a float64 holds exactly)."""
    high = np.frexp((x >> np.uint64(32)).astype(np.float64))[1]
    low = np.frexp((x & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(high > 0, high + 32, low)


def _sorted_windows(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The windows of up to 64 letters at every start of ``text[:size]``,
    given the packed 64-letter keys of text, in lexicographic order with
    each distinct 64-letter window once: (lengths, lcp, starts).

    A start at most size - 64 gives a 64-letter window; a later start
    gives the shorter window that ends at ``size``, its key with the bits
    past that end zeroed.  The zeros put such a window before every window
    it heads, and among equal keys the shorter window goes first, so the
    order is the true lexicographic one with a proper prefix before its
    extensions.  ``lcp[j]`` is the length of the common head of the
    entries j - 1 and j, at most either length (0 for the first entry),
    and ``starts[j]`` is where one occurrence of entry j starts.
    """
    full = max(size - _KEY_LETTERS + 1, 0)
    order = np.argsort(keys[:full])
    ordered = keys[order]
    first = np.ones(full, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct, starts = ordered[first], order[first]
    lengths = np.arange(size - full, 0, -1)
    tail = keys[full:size] & ~(_ALL >> lengths.astype(np.uint64))
    order = np.lexsort((lengths, tail))
    tail, lengths = tail[order], lengths[order]
    at = np.searchsorted(distinct, tail, "left")
    words = np.insert(distinct, at, tail)
    starts = np.insert(starts, at, full + order)
    lengths = np.insert(np.full(distinct.size, _KEY_LETTERS), at, lengths)
    lcp = np.zeros(words.size, dtype=np.int64)
    common = _KEY_LETTERS - _bit_length(words[1:] ^ words[:-1])
    lcp[1:] = np.minimum(common, np.minimum(lengths[1:], lengths[:-1]))
    return lengths, lcp, starts


def _factor_counts(lengths: np.ndarray, lcp: np.ndarray) -> np.ndarray:
    """Number of distinct n-letter windows for n = 1..64 (index n), from
    ``_sorted_windows``: the entries with ``lcp < n <= length``, that is
    ``#{length >= n} - #{lcp >= n}`` (an lcp is at most its length)."""
    spread = np.bincount(lengths, minlength=_KEY_LETTERS + 1) - np.bincount(lcp, minlength=_KEY_LETTERS + 1)
    return spread[::-1].cumsum()[::-1]


def _repeated(ids: np.ndarray) -> np.ndarray:
    """The values that occur twice, where none occurs more often (as for
    the heads or the tails of distinct binary words one letter longer)."""
    ordered = np.sort(ids)
    return ordered[1:][ordered[1:] == ordered[:-1]]


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
        text = self.prefix + self.prefix[::-1] + exchange(self.prefix)
        bits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
        self._keys = _packed_keys(bits, np.uint64)
        self._levels: list[np.ndarray] = []  # level k: dense ranks of the (64 * 2**k)-windows of U
        self._windows = _sorted_windows(self._keys, prefix_len)
        self.stable_up_to = self._certify()

    def _ranks(self, level: int) -> np.ndarray:
        """Dense ranks of the length-(64 * 2**level) windows of U, by prefix doubling.

        The 2b-window at i is the b-window at i followed by the one at
        i + b, so the pair of their ranks ranks it.  With d distinct ranks
        the pair is read as ``rank * d + next``, below d**2 <= |U|**2, so up
        to |U| < 2**21 it leaves ``_dense_rank`` room to pack each start
        beside it for one plain sort (it falls back to an argsort past
        that); the rank fits an int32 (|U| < 2**31).  Every level is built
        once and kept.
        """
        levels, total = self._levels, self._keys.size
        if not levels:
            levels.append(_dense_rank(self._keys[: total - _KEY_LETTERS + 1]))
        while len(levels) <= level:
            b, rank = _KEY_LETTERS << (len(levels) - 1), levels[-1]
            # the pairs are a temporary, which _dense_rank overwrites in place
            pairs = rank[: total - 2 * b + 1].astype(np.int64) * (int(rank.max()) + 1) + rank[b:]
            levels.append(_dense_rank(pairs))
        return levels[level]

    def _ids(self, n: int) -> np.ndarray:
        """Exact id of every length-n window of U, by start: equal ids, equal words.

        Up to 64 letters the id is the window read as an n-bit number.  A
        longer window is the a-window at its start followed by the one
        ending where it ends (a <= n < 2a, so the two cover it), and the id
        pairs their ranks.
        """
        total = self._keys.size
        count = total - n + 1
        if n <= _KEY_LETTERS:
            return self._keys[:count] >> np.uint64(_KEY_LETTERS - n)
        level = (n // _KEY_LETTERS).bit_length() - 1
        a, rank = _KEY_LETTERS << level, self._ranks(level)
        return rank[:count].astype(np.int64) * total + rank[n - a : n - a + count]

    def _ids_at(self, n: int, starts: np.ndarray) -> np.ndarray:
        """The ids of ``_ids(n)`` at the given starts only (n = 0 gives the
        empty word's one id: a shift by the full key width yields 0)."""
        if n <= _KEY_LETTERS:
            return self._keys[starts] >> np.uint64(_KEY_LETTERS - n)
        level = (n // _KEY_LETTERS).bit_length() - 1
        a, rank = _KEY_LETTERS << level, self._ranks(level)
        return rank[starts].astype(np.int64) * self._keys.size + rank[starts + (n - a)]

    def _aligned(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ids of the length-n windows of the prefix, of their mirror images
        and of their exchanges, by start: the window at i mirrors to the one
        at size - n - i of the reverse and of the exchange segment of U."""
        ids, size, count = self._ids(n), self.prefix_len, self.prefix_len - n + 1
        return ids[:count], ids[size : size + count][::-1], ids[2 * size : 2 * size + count][::-1]

    def _stable_at(self, n: int) -> bool:
        """Factor set of length n agrees between the half and full prefix.

        The half prefix's windows are among the full prefix's, so the sets
        agree exactly when they have as many distinct ids.
        """
        ids = self._aligned(n)[0]
        half_count = self.prefix_len // 2 - n + 1
        return half_count >= 1 and _distinct(ids[:half_count]) == _distinct(ids)

    def _certify(self) -> int:
        """Largest n <= n_max with the length-n factor sets stable.

        Stability is downward closed: when the n-factors of the half and
        the full prefix agree, every (n-1)-factor of the full prefix is the
        head or the tail of one of its n-factors, hence a factor of the half
        prefix.  So the threshold is the last length of the first run of
        agreements, and every length up to it is stable.  Up to 64 letters
        the two sets agree exactly when they are as large (the half
        prefix's windows are among the full prefix's), and both sizes come
        for every n at once from the sorted windows of the half and the
        full prefix, as the number of entries with ``lcp < n <= length``
        (see ``census``).  Past 64 letters, when 64 is stable, ``n_max``
        is probed first: a stable ``n_max`` is the threshold at once, with
        one probe.  Otherwise one binary search on ``_stable_at`` between 64
        and ``n_max`` finds it, which costs at most two probes more than a
        search over (64, n_max] would.
        """
        top = min(self.n_max, _KEY_LETTERS)
        half = _sorted_windows(self._keys, self.prefix_len // 2)
        agree = (_factor_counts(*self._windows[:2]) == _factor_counts(*half[:2]))[1 : top + 1]
        if not agree.all():
            return int(agree.argmin())
        if top == self.n_max or self._stable_at(self.n_max):
            return self.n_max
        lo, hi = top, self.n_max  # length lo is stable; hi is not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._stable_at(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def _starts(self, n: int) -> np.ndarray:
        """One start for each distinct length-n window of the prefix.

        Up to 64 letters these are the starts of the sorted windows with
        ``lcp < n <= length``, the first entry of each group that shares an
        n-letter head (see ``census``); longer windows take the first
        start of each distinct id.
        """
        if n <= _KEY_LETTERS:
            lengths, lcp, starts = self._windows
            return starts[(lcp < n) & (n <= lengths)]
        return np.unique(self._aligned(n)[0], return_index=True)[1]

    @cached_property
    def _top_starts(self) -> np.ndarray:
        """One start for each distinct window of length ``stable_up_to``."""
        return self._starts(self.stable_up_to)

    def factors(self, n: int) -> frozenset[str]:
        """Exact set of length-n factors of the prefix (not certification-gated).

        A certified length takes the heads of one window per distinct id
        at length ``stable_up_to``: every length-n factor lies inside such
        a window, which also occurs in the half prefix, and a window
        starting inside the half prefix fits in the prefix, so the factor
        heads a window.  Longer lengths slice one window per distinct id.
        """
        if n < 0 or n > self.prefix_len:
            return frozenset()
        if n == 0:
            return frozenset({""})
        starts = self._top_starts if n <= self.stable_up_to else self._starts(n)
        return self._cut(starts, n)

    def _cut(self, starts: np.ndarray, n: int) -> frozenset[str]:
        """The length-n words of the prefix at the given starts."""
        return frozenset(self.prefix[i : i + n] for i in starts.tolist())

    def certified_factor(self, w: Word) -> bool:
        return len(w) <= self.stable_up_to and w in self.prefix

    def _require_certified(self, n: int):
        if n > self.stable_up_to:
            raise UnstableLength(
                f"length {n} exceeds the certified range (stable up to {self.stable_up_to})"
            )

    def _extensions(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One start for each distinct certified (n+1)-factor, and the
        n-ids of its head and of its tail.

        The (n+1)-factors are the heads of the distinct top windows (see
        ``factors``), so their ids are gathered at ``_top_starts`` only.  A
        head id that occurs twice is a right special n-factor, a tail id
        that occurs twice a left special one.
        """
        self._require_certified(n + 1)
        starts = self._top_starts
        longer = starts[np.unique(self._ids_at(n + 1, starts), return_index=True)[1]]
        return longer, self._ids_at(n, longer), self._ids_at(n, longer + 1)

    def right_special(self, n: int) -> frozenset[str]:
        """Certified length-n factors extendable by both letters on the right."""
        longer, heads, _ = self._extensions(n)
        return self._cut(longer[np.isin(heads, _repeated(heads))], n)

    def left_special(self, n: int) -> frozenset[str]:
        longer, _, tails = self._extensions(n)
        return self._cut(longer[np.isin(tails, _repeated(tails))] + 1, n)

    def bispecials(self) -> tuple[str, ...]:
        """All bispecial factors within the certified range, shortest first.

        The special factors are found by their ids; only the bispecial
        ones are cut from the prefix.
        """
        found = []
        for n in range(self.stable_up_to):
            longer, heads, tails = self._extensions(n)
            both = _repeated(np.concatenate((_repeated(heads), _repeated(tails))))  # in both sets
            found.extend(sorted(self._cut(longer[np.isin(heads, both)], n)))
        return tuple(found)

    def census(self, lengths=None) -> tuple[CensusRow, ...]:
        """Distinct factor / palindrome / antipalindrome counts per length.

        ``lengths`` defaults to every length up to n_max; pass a sparser
        grid when n_max is large.

        The distinct factors of up to 64 letters are read from the sorted
        windows of the prefix (``_sorted_windows``), which are in the true
        lexicographic order.  In that order the windows that share an
        n-letter head h are contiguous: a word that lies between two words
        with head h starts with h, so it is no shorter than n.  The common
        head of two neighbours is at most the shorter one's length, so the
        distinct n-factors are the entries with ``lcp < n <= length``: the
        first entry of each group (``_starts``).  A row gathers the ids of
        these windows, of their mirror images and of their exchanges, and
        as the ids are distinct it counts the matches without a sort; a
        longer row compares the ids of all the prefix's windows with those
        of their mirror images and exchanges.  Either way a factor is a
        palindrome or an antipalindrome when one id comparison says so.
        """
        rows = []
        for n in lengths if lengths is not None else range(1, self.n_max + 1):
            if not 1 <= n <= self.n_max:
                raise BadBounds(f"census length {n} outside 1..{self.n_max}")
            rows.append(self._row(n))
        return tuple(rows)

    def _row(self, n: int) -> CensusRow:
        if n <= _KEY_LETTERS:
            starts, size = self._starts(n), self.prefix_len
            forward = self._ids_at(n, starts)
            mirror = self._ids_at(n, 2 * size - n - starts)
            image = self._ids_at(n, 3 * size - n - starts)
            # one start per distinct factor: the ids are distinct, so no sort
            factor_count, count = starts.size, np.count_nonzero
        else:
            forward, mirror, image = self._aligned(n)
            factor_count, count = _distinct(forward), lambda same: _distinct(forward[same])
        return CensusRow(
            length=n,
            factor_count=factor_count,
            palindrome_count=int(count(forward == mirror)),
            antipalindrome_count=0 if n % 2 else int(count(forward == image)),
            certified=n <= self.stable_up_to,
        )

    def e_closure_check(self) -> bool:
        """True iff the certified factor sets are closed under the exchange map.

        Closure at the top certified length T implies it below: a certified
        w heads a T-factor wx (w occurs in the half prefix, and T <= N/4), so
        E(w) is the tail of the factor E(wx) = E(x)E(w).  The exchanges of
        the distinct T-windows are windows of the exchange segment: the
        exchange of the window at i starts at 3N - T - i of U.
        """
        top, size = self.stable_up_to, self.prefix_len
        if top == 0:
            return True
        starts = self._top_starts
        image = self._ids_at(top, 3 * size - top - starts)
        return set(image.tolist()) <= set(self._ids_at(top, starts).tolist())

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
                exts = [x for x in (attach(w, "0"), attach(w, "1")) if x in self.prefix]
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
