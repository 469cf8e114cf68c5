"""Factor language of a fixed-point prefix.

The index is built over the length-N prefix of a fixed point.  Because a
prefix only approximates the infinite language, a length n is trusted only
when the n-factors of the half prefix and of the full prefix agree.  That
property is downward closed, so ``stable_up_to`` is an exact threshold.
The bispecial, closure and centre queries stay inside the certified
range, and census rows past it are flagged as uncertified.

Every window gets an exact integer id, ordered as the words are.  The ids
are taken over U = prefix + reverse(prefix) + exchange(prefix), so a
window's mirror image and its exchange are windows of U too, and one
comparison of ids tells a palindrome or an antipalindrome.  Up to 64
letters the id is read from the packed 64-letter key at the window's
start, and the keys come from the packed bytes of U.  A longer window
pairs the dense ranks of two overlapping windows of 64 * 2**k letters,
built by prefix doubling.

Up to 64 letters one batched pass over the sorted distinct windows of
the prefix gives one start for each distinct factor of every length at
once, and from it every census row, the bispecial factors and the
antipalindromic centres.  Strings are cut only for answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadBounds, CyclicMorphism
from .morphisms import Morphism, apply, conjugacy_chain, fixed_point_prefix
from .words import Word, exchange
# unused here, but perfbench/spans.py traces longest_antipalindrome at this binding
from .words import longest_antipalindrome

_KEY_LETTERS = 64
_ALL = np.uint64(2**64 - 1)


def _window_keys(bits: np.ndarray) -> np.ndarray:
    """The packed 64-letter key at every start of a 0/1 array, first letter
    in the top bit and letters past the end read as 0.

    Row r of a byte matrix packs the letters from r on, so the key at
    start 8j + r is the big-endian 8-byte word at byte j of row r: one
    ``np.packbits`` and one strided read of all the keys.
    """
    size = bits.size
    count = -(-size // 8)  # keys per row
    width = 8 * (count + 7)  # letters per row: the last key reads 8 bytes
    padded = np.zeros(width + 7, dtype=np.uint8)
    padded[:size] = bits
    rows = np.packbits(sliding_window_view(padded, width)[:8], axis=1)
    words = np.ndarray((count, 8), dtype=">u8", buffer=rows, strides=(1, rows.strides[0]))
    return words.astype(np.uint64, order="C").reshape(-1)[:size]


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a sorted array."""
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _dense_rank(keys: np.ndarray) -> np.ndarray:
    """Rank of each key among the distinct keys, as int32 (equal keys, equal ranks).

    When every key leaves room for a start below it in an int64, the keys
    are packed as ``key << shift | start`` and sorted in place: one sort of
    plain integers, from which a mask reads the order back and a shift the
    sorted keys.  The keys are then overwritten, so the caller passes a
    temporary.  Other keys, such as the uint64 words of level 0 (a view
    of the index's keys), are left as they are: a sorted copy gives the
    distinct keys, and a binary search ranks each key among them.
    """
    shift = keys.size.bit_length()
    if keys.dtype != np.int64 or int(keys.max()) >= 2 ** (63 - shift):
        ordered = np.sort(keys)
        return np.searchsorted(ordered[_run_starts(ordered)], keys).astype(np.int32)
    keys <<= shift
    keys |= np.arange(keys.size)
    keys.sort()
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    step = np.zeros(keys.size, dtype=np.int32)
    np.not_equal(keys[1:], keys[:-1], out=step[1:])
    np.cumsum(step, out=step)
    rank = np.empty(keys.size, dtype=np.int32)
    rank[order] = step
    return rank


def _distinct(ids: np.ndarray) -> int:
    """Number of distinct values (a sort is much faster here than ``np.unique``'s hashing)."""
    return int(np.count_nonzero(_run_starts(np.sort(ids))))


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Bit length of each uint64 (the frexp exponent of each 32-bit half,
    which a float64 holds exactly)."""
    high = np.frexp((x >> np.uint64(32)).astype(np.float64))[1]
    low = np.frexp((x & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(high > 0, high + 32, low)


def _with_tails(distinct: np.ndarray, keys: np.ndarray, size: int):
    """Insert into ``distinct``, the sorted distinct 64-letter windows of
    ``text[:size]`` (given the packed keys of text), its shorter windows,
    which end at ``size``: (lengths, lcp, at, tail_starts), where the tail
    window at ``tail_starts[i]`` goes before entry ``at[i]`` of distinct.

    A tail window's key has the bits past the end zeroed.  The zeros put
    such a window before every window it heads, and among equal keys the
    shorter window goes first, so the order is the true lexicographic one
    with a proper prefix before its extensions.  ``lcp[j]`` is the length
    of the common head of the entries j - 1 and j, at most either length
    (0 for the first entry).
    """
    full = max(size - _KEY_LETTERS + 1, 0)
    lengths = np.arange(size - full, 0, -1)
    tail = keys[full:size] & ~(_ALL >> lengths.astype(np.uint64))
    order = np.lexsort((lengths, tail))
    tail, lengths = tail[order], lengths[order]
    at = np.searchsorted(distinct, tail, "left")
    words = np.insert(distinct, at, tail)
    lengths = np.insert(np.full(distinct.size, _KEY_LETTERS), at, lengths)
    lcp = np.zeros(words.size, dtype=np.int64)
    common = _KEY_LETTERS - _bit_length(words[1:] ^ words[:-1])
    lcp[1:] = np.minimum(common, np.minimum(lengths[1:], lengths[:-1]))
    return lengths, lcp, at, full + order


def _sorted_windows(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The windows of up to 64 letters at every start of ``text[:size]``,
    given the packed 64-letter keys of text, in lexicographic order with
    each distinct 64-letter window once: (lengths, lcp, starts) as in
    ``_with_tails``, with ``starts[j]`` where one occurrence of entry j
    starts.
    """
    full = max(size - _KEY_LETTERS + 1, 0)
    order = np.argsort(keys[:full])
    ordered = keys[order]
    first = _run_starts(ordered)
    lengths, lcp, at, tail_starts = _with_tails(ordered[first], keys, size)
    return lengths, lcp, np.insert(order[first], at, tail_starts)


def _factor_counts(keys: np.ndarray, size: int) -> np.ndarray:
    """Number of distinct n-letter windows of ``text[:size]`` for n = 0..64
    (index n): the entries of the sorted windows with ``lcp < n <= length``
    (see ``FactorIndex._short_factors``), that is ``#{length >= n} -
    #{lcp >= n}`` (an lcp is at most its length).  No start is read, so
    the keys are sorted, not argsorted."""
    ordered = np.sort(keys[: max(size - _KEY_LETTERS + 1, 0)])
    lengths, lcp = _with_tails(ordered[_run_starts(ordered)], keys, size)[:2]
    spread = np.bincount(lengths, minlength=_KEY_LETTERS + 1) - np.bincount(lcp, minlength=_KEY_LETTERS + 1)
    return spread[::-1].cumsum()[::-1]


def _repeated(ids: np.ndarray) -> np.ndarray:
    """The values that occur twice, where none occurs more often (as for
    the heads or the tails of distinct binary words one letter longer)."""
    ordered = np.sort(ids)
    return ordered[1:][ordered[1:] == ordered[:-1]]


def _bispecial_ids(heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """The sorted ids that are both a repeated head (right special) and a
    repeated tail (left special) of the distinct longer factors."""
    return _repeated(np.concatenate((_repeated(heads), _repeated(tails))))


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
        self._keys = _window_keys(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))
        self._levels: list[np.ndarray] = []  # level k: dense ranks of the (64 * 2**k)-windows of U
        self._windows = _sorted_windows(self._keys, prefix_len)
        self.stable_up_to = self._certify()

    def _ranks(self, level: int) -> np.ndarray:
        """Dense ranks of the length-(64 * 2**level) windows of U, by prefix doubling.

        The 2b-window at i is the b-window at i followed by the one at
        i + b, so the pair of their ranks ranks it.  With d distinct ranks
        the pair is read as ``rank * d + next``, below d**2 <= |U|**2, so up
        to |U| < 2**21 it leaves ``_dense_rank`` room to pack each start
        beside it for one plain sort (it falls back to a sorted copy and a
        binary search past that); the rank fits an int32 (|U| < 2**31).
        Ranks follow the order of the words.  Every level is built once
        and kept.
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
        """Exact id of every length-n window of U, by start, for n > 64.

        The window is the a-window at its start followed by the one ending
        where it ends (a <= n < 2a, so the two cover it), and the id pairs
        their ranks.  Two words that agree on their first a letters differ
        first inside the last a, so the ids are ordered as the words are.
        """
        total = self._keys.size
        count = total - n + 1
        level = (n // _KEY_LETTERS).bit_length() - 1
        a, rank = _KEY_LETTERS << level, self._ranks(level)
        return rank[:count].astype(np.int64) * total + rank[n - a : n - a + count]

    def _key_ids(self, n, starts: np.ndarray) -> np.ndarray:
        """Ids of the windows of n <= 64 letters at the given starts: the
        top n bits of their keys.  n may be an array, one length per start
        (n = 0 gives the empty word's id: a shift by the full key width
        yields 0)."""
        return self._keys[starts] >> np.uint64(_KEY_LETTERS - n)

    def _ids_at(self, n: int, starts: np.ndarray) -> np.ndarray:
        """The ids of the length-n windows at the given starts only (see ``_ids``)."""
        if n <= _KEY_LETTERS:
            return self._key_ids(n, starts)
        level = (n // _KEY_LETTERS).bit_length() - 1
        a, rank = _KEY_LETTERS << level, self._ranks(level)
        return rank[starts].astype(np.int64) * self._keys.size + rank[starts + (n - a)]

    def _aligned(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ids of the length-n windows of the prefix (n > 64), of their
        mirror images and of their exchanges, by start: the window at i
        mirrors to the one at size - n - i of the reverse and of the
        exchange segment of U."""
        ids, size, count = self._ids(n), self.prefix_len, self.prefix_len - n + 1
        return ids[:count], ids[size : size + count][::-1], ids[2 * size : 2 * size + count][::-1]

    @cached_property
    def _short_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """One start for each distinct factor of every length 1..64, with
        its length: by length, and in lexicographic order within a length.

        In the sorted windows (``_sorted_windows``) the windows that share
        an n-letter head h are contiguous: a word that lies between two
        words with head h starts with h, so it is no shorter than n.  The
        common head of two neighbours is at most the shorter one's length,
        so the distinct n-factors are the entries with ``lcp < n <=
        length``, the first entry of each group.  One mask over every n
        gives them all.
        """
        lengths, lcp, starts = self._windows
        n = np.arange(1, _KEY_LETTERS + 1)[:, None]
        row, entry = np.nonzero((lcp < n) & (n <= lengths))
        return row + 1, starts[entry]

    def _shorter(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``_short_factors`` of up to n letters (n <= 64)."""
        lengths, starts = self._short_factors
        cut = np.searchsorted(lengths, n, "right")
        return lengths[:cut], starts[:cut]

    def _stable_at(self, n: int) -> bool:
        """Factor set of length n > 64 agrees between the half and full prefix.

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
        full prefix.  Past 64 letters, when 64 is stable, ``n_max`` is
        probed first: a stable ``n_max`` is the threshold at once, with one
        probe.  Otherwise one binary search on ``_stable_at`` between 64
        and ``n_max`` finds it, which costs at most two probes more than a
        search over (64, n_max] would.
        """
        top = min(self.n_max, _KEY_LETTERS)
        full = np.bincount(self._short_factors[0], minlength=_KEY_LETTERS + 1)
        agree = (full == _factor_counts(self._keys, self.prefix_len // 2))[1 : top + 1]
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
        """One start for each distinct length-n window of the prefix: up to
        64 letters from ``_short_factors``, past that the first start of
        each distinct id."""
        if n <= _KEY_LETTERS:
            lengths, starts = self._shorter(n)
            return starts[np.searchsorted(lengths, n) :]
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

    def _extensions(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One start for each distinct certified (n+1)-factor, and the
        n-ids of its head and of its tail.

        The (n+1)-factors are the heads of the distinct top windows (see
        ``factors``), so their ids are gathered at ``_top_starts`` only.  A
        head id that occurs twice is a right special n-factor, a tail id
        that occurs twice a left special one.
        """
        starts = self._top_starts
        longer = starts[np.unique(self._ids_at(n + 1, starts), return_index=True)[1]]
        return longer, self._ids_at(n, longer), self._ids_at(n, longer + 1)

    def bispecials(self) -> tuple[str, ...]:
        """All bispecial factors within the certified range, shortest first.

        Up to 63 letters one pass covers every length: the certified
        factors of 1..64 letters (``_short_factors``) give the ids of their
        heads and tails, each with a bit set above it for its length, so
        ids of different lengths stay apart and sort by length first, then
        lexicographically.  The heads are sorted already, as the factors
        are, so a binary search finds a start for each bispecial id.
        Longer lengths go one at a time through ``_extensions``.  Only the
        bispecial factors are cut from the prefix.
        """
        top = self.stable_up_to
        lengths, longer = self._shorter(min(top, _KEY_LETTERS))
        n = lengths - 1
        tag = np.uint64(1) << n.astype(np.uint64)
        heads = self._key_ids(n, longer) | tag
        both = _bispecial_ids(heads, self._key_ids(n, longer + 1) | tag)
        at = np.searchsorted(heads, both)
        found = [self.prefix[i : i + k] for i, k in zip(longer[at].tolist(), n[at].tolist())]
        for k in range(_KEY_LETTERS, top):
            longer, heads, tails = self._extensions(k)
            found.extend(sorted(self._cut(longer[np.isin(heads, _bispecial_ids(heads, tails))], k)))
        return tuple(found)

    def census(self, lengths=None) -> tuple[CensusRow, ...]:
        """Distinct factor / palindrome / antipalindrome counts per length.

        ``lengths`` defaults to every length up to n_max; pass a sparser
        grid when n_max is large.

        The rows up to 64 letters come at once from one start per distinct
        factor of every length (``_short_factors``): the ids of those
        windows, of their mirror images and of their exchanges, compared
        and counted by length.  A longer row compares the ids of all the
        prefix's windows with those of their mirror images and exchanges.
        Either way a factor is a palindrome or an antipalindrome when one
        id comparison says so.
        """
        short, rows = self._short_rows(), []
        for n in lengths if lengths is not None else range(1, self.n_max + 1):
            if not 1 <= n <= self.n_max:
                raise BadBounds(f"census length {n} outside 1..{self.n_max}")
            counts = short[n] if n <= _KEY_LETTERS else self._long_row(n)
            rows.append(CensusRow(n, *counts, certified=n <= self.stable_up_to))
        return tuple(rows)

    def _short_rows(self) -> list[tuple[int, int, int]]:
        """(factors, palindromes, antipalindromes) of every length 0..64, by length."""
        lengths, starts = self._short_factors
        size = self.prefix_len
        forward = self._key_ids(lengths, starts)
        mirror = self._key_ids(lengths, 2 * size - lengths - starts)
        image = self._key_ids(lengths, 3 * size - lengths - starts)
        masks = (slice(None), forward == mirror, forward == image)
        return list(zip(*(np.bincount(lengths[m], minlength=_KEY_LETTERS + 1).tolist() for m in masks)))

    def _long_row(self, n: int) -> tuple[int, int, int]:
        forward, mirror, image = self._aligned(n)
        return tuple(_distinct(forward[m]) for m in (slice(None), forward == mirror, forward == image))

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
        certified length that has one.  Past 64 letters each even length,
        from the longest down, compares the ids of the top windows' heads
        with those of their exchanges; up to 64 one comparison over the
        distinct factors of every length finds the antipalindromic ones
        (an odd length has none).
        """
        half, size = min(limit, self.stable_up_to // 2), self.prefix_len
        for k in range(half, _KEY_LETTERS // 2, -1):
            n, starts = 2 * k, self._top_starts
            anti = self._ids_at(n, starts) == self._ids_at(n, 3 * size - n - starts)
            if anti.any():
                return self._least_half(starts[anti], k)
        lengths, starts = self._shorter(2 * min(half, _KEY_LETTERS // 2))
        anti = self._key_ids(lengths, starts) == self._key_ids(lengths, 3 * size - lengths - starts)
        if not anti.any():
            return ""
        longest = int(lengths[anti][-1])
        return self._least_half(starts[anti & (lengths == longest)], longest // 2)

    def _least_half(self, starts: np.ndarray, k: int) -> str:
        """The least right half of the 2k-letter windows at the given starts
        (ids are ordered as the words are)."""
        right = starts + k
        i = int(right[np.argmin(self._ids_at(k, right))])
        return self.prefix[i : i + k]


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
