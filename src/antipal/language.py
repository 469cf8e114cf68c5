"""Factor language of a fixed-point prefix.

A length n is certified when the indexed letters provably hold L_n, every
n-factor of the infinite fixed point: ``morphisms.proven_prefix_len`` gives
such a prefix length N(n).  When N(n_max) fits in the prefix, every length
up to n_max is certified and the index reads only the first S = N(n_max)
letters, which hold every certified factor (each word of L_n heads one of
L_(n_max)), so every answer is that of the whole prefix.  Otherwise S is
the whole prefix and ``stable_up_to`` the largest n with N(n) <= S, found
by one binary search (N is nondecreasing).  A host with a letter that never
grows (``0->0,1->1w``) has no bound and certifies nothing.  The queries
stay inside the certified range, and census rows past it are flagged as
uncertified.  ``prefix`` is the whole prefix, and ``factors(n)`` past
n_max reads an index built for n over it.

Every window of the S indexed letters gets an exact integer id, ordered as
the words are.  Up to 64 letters the id is read from the packed 64-letter
key at the window's start, and the keys come from the packed bytes of the
text.  A longer window pairs the dense ranks of two overlapping windows of
64 * 2**k letters, built by prefix doubling.  The text runs C letters of
the fixed point past the S, C = 64 * 2**K the least such width >= n_max
(so C >= 64), so that each of their starts has a window at every level up
to C.  The pair of two ranks below d is an exact id below d**2, ordered as
the words are.  When d <= 1024 (d**2 <= 2**20) a table of all d**2 ids
marks those that occur and reads their dense ranks off in increasing
order, which is exactly the rank a sort would give, with no sort; it takes
at most 1 MB of bool and 4 MB of int32 while the level is built.  A level
below more ranks sorts its ids.

A second packed array, ``_back``, holds the 64 letters before each end,
last letter first (the keys of the reversed text).  The top n bits of
``_back[i + n]`` are the id of the mirror image of the n-window at i, and
their complement that of its exchange, so up to 64 letters one comparison
of ids tells a palindrome or an antipalindrome; past that the first half of
a window is compared with them 64 letters at a time.  Only the exchange
closure looks up the id of an image, which need not occur in the text:
each rank level keeps one map on its distinct ranks, to the rank of the
exchanged window or -1 when that is no indexed factor, built from the
level below.

Every length is read by one rule, from the first start of each distinct
factor.  The S starts are put in the order of their windows, with the
length of the common head of neighbours (an LCP array, Manber & Myers,
SIAM J. Comput. 1993).  The windows that share an n-letter head are then
the runs of neighbours whose lcp is at least n, the least start of a run is
the first occurrence of its head, and the heads whose first start leaves
room for n letters in the S indexed ones are their n-factors.  One order
of the S starts by their C-letter windows serves every length up to C: one
argsort of the keys when C = 64, one sort of pairs of ranks past that.
Up to 64 letters one batched pass over it gives the first starts of every
length at once, and from them every census row and the antipalindromic
centres; a longer census row tests the first starts of its length only.
The bispecial factors of every length come from one pass over its
neighbours: a pair that shares exactly k letters gives a right special
k-factor, and the letters before the starts of its run tell whether that
factor is left special.  No query sorts every window, and strings are cut
only for answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadBounds, CyclicMorphism
from .morphisms import Morphism, apply, conjugacy_chain, fixed_point_prefix, proven_prefix_len
from .words import _KEY_LETTERS, Word, _bit_length, _window_keys
# unused here, but perfbench/spans.py traces longest_antipalindrome at this binding
from .words import longest_antipalindrome

# A rank level whose pair ids number at most _TABLE is ranked through a
# table of every id, not sorted; tests set _TABLE to 0 to sort every level.
_TABLE = 2**20
_ALL = np.uint64(2**64 - 1)


def _lookup(distinct: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of each value among the sorted ``distinct`` values, or -1
    where it is not one of them.  The values are searched in sorted order,
    which a binary search walks much faster than scattered needles, and
    the answers are put back in place."""
    order = np.argsort(values)
    at = np.empty(values.size, dtype=np.int64)
    at[order] = np.searchsorted(distinct, values[order])
    at.clip(max=distinct.size - 1, out=at)
    return np.where(distinct[at] == values, at, -1)


def _pair_ids(head: np.ndarray, tail: np.ndarray, width: int) -> np.ndarray:
    """The pairs of ranks read as ``head * width + tail``, in an int64."""
    return head.astype(np.int64) * width + tail


def _image_ids(head: np.ndarray, tail: np.ndarray, width: int) -> np.ndarray:
    """``_pair_ids``, or -1 where either rank is -1 (no product is formed
    from a -1, so none can pass for an id)."""
    ids = np.full(head.size, -1, dtype=np.int64)
    found = (head | tail) >= 0
    ids[found] = _pair_ids(head[found], tail[found], width)
    return ids


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a sorted array."""
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _sort_order(keys: np.ndarray) -> np.ndarray:
    """Sort non-negative int64 keys in place and return their order (the
    caller passes a temporary).

    When every key leaves room for its index below it in an int64, the
    keys are packed as ``key << shift | index`` and sorted: one sort of
    plain integers, from which a mask reads the order back and a shift the
    sorted keys.  Larger keys are argsorted.
    """
    shift = keys.size.bit_length()
    if int(keys.max()) >= 2 ** (63 - shift):
        order = np.argsort(keys)
        keys[:] = keys[order]
        return order
    keys <<= shift
    keys |= np.arange(keys.size)
    keys.sort()
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    return order


def _dense_rank(keys: np.ndarray) -> np.ndarray:
    """Rank of each key among the distinct keys, as int32 (equal keys, equal ranks).

    int64 keys, such as the pairs of a rank level too wide for a table
    (``_level_ranks``), are sorted in place by
    ``_sort_order`` (one packed sort when they leave room for a start below
    them), so the caller passes a temporary.  Other keys, such as the
    uint64 words of level 0 (a view of the index's keys), are left as they
    are: a sorted copy gives the distinct keys, and a binary search ranks
    each key among them.
    """
    if keys.dtype != np.int64:
        ordered = np.sort(keys)
        return np.searchsorted(ordered[_run_starts(ordered)], keys).astype(np.int32)
    order = _sort_order(keys)
    step = np.zeros(keys.size, dtype=np.int32)
    np.not_equal(keys[1:], keys[:-1], out=step[1:])
    np.cumsum(step, out=step)
    rank = np.empty(keys.size, dtype=np.int32)
    rank[order] = step
    return rank


def _level_ranks(keys: np.ndarray, count: int | None = None) -> np.ndarray:
    """Dense ranks of a rank level's keys, as int32 in the order of the
    words: the uint64 64-letter keys of level 0, or the pair ids ``rank *
    count + next`` of a level above it, all below ``count**2``.

    When ``count**2 <= _TABLE`` the pairs are ranked through a table of
    every possible id: each id is marked in a bool array, ``np.flatnonzero``
    reads the distinct ids in increasing order, which is the order of the
    words, their index among those is written into an int32 table at them,
    and each pair's rank is gathered from it.  That is exactly the dense
    rank a sort gives.  The bool and the int32 table take at most
    ``_TABLE`` and ``4 * _TABLE`` bytes, touched only at the pairs' ids.
    Other keys are ranked by ``_dense_rank``, which sorts the pairs in
    place.
    """
    if count is not None and count * count <= _TABLE:
        seen = np.zeros(count * count, dtype=bool)
        seen[keys] = True
        ids = np.flatnonzero(seen)
        table = np.empty(seen.size, dtype=np.int32)
        table[ids] = np.arange(ids.size, dtype=np.int32)
        return table[keys]
    return _dense_rank(keys)


def _since(values: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """At every place i, the least of the non-negative ``values[m..i]``, m
    the last marked place at or before i, or -1 where no place up to i is
    marked.  One ``np.minimum.accumulate`` reads every run at once: the run
    from the r-th mark is shifted down by r times a step above every value,
    so each run lies below all the runs before it, and shifted back after.
    """
    run = np.cumsum(marks, dtype=np.int64)
    run *= int(values.max(initial=0)) + 2
    shifted = values - run
    shifted[run == 0] = -1  # before the first mark
    return np.minimum.accumulate(shifted) + run


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
        if not 1 <= n_max <= prefix_len:
            raise BadBounds(f"need 1 <= n_max <= prefix_len, got {n_max} / {prefix_len}")
        self.morphism = morphism
        self.letter = letter
        self.prefix_len = prefix_len
        self.n_max = n_max
        # C = 64 * 2**K, the least such width >= n_max (64 when n_max <= 64):
        # the keys and rank levels run C letters of the fixed point past the
        # indexed letters, so that each of their starts has a C-letter window
        # (see _suffixes).
        self._reach = _KEY_LETTERS << ((n_max - 1) // _KEY_LETTERS).bit_length()
        text = fixed_point_prefix(morphism, letter, prefix_len + self._reach)
        self.prefix = text[:prefix_len]
        bound = proven_prefix_len(morphism, letter, n_max, self.prefix)
        if bound is not None and bound <= prefix_len:
            self.stable_up_to, self._size = n_max, bound
        else:
            self.stable_up_to, self._size = self._proven_below(n_max), prefix_len
        self._text = text[: self._size + self._reach]
        self._bits = np.frombuffer(self._text.encode("ascii"), dtype=np.uint8) - ord("0")
        self._keys = _window_keys(self._bits)
        self._levels: list[np.ndarray] = []  # level k: dense ranks of the (64 * 2**k)-windows
        self._maps: list[np.ndarray] = []  # level k: its exchange map

    def _proven_below(self, n_max: int) -> int:
        """Largest n < n_max whose proven prefix length N(n) fits in the
        prefix, or 0, when N(n_max) does not: N is nondecreasing
        (``proven_prefix_len``), so one binary search finds it."""
        lo, hi = 0, n_max  # lo is proven (0 trivially), hi is not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            bound = proven_prefix_len(self.morphism, self.letter, mid, self.prefix)
            if bound is not None and bound <= self.prefix_len:
                lo = mid
            else:
                hi = mid
        return lo

    def _ranks(self, level: int) -> np.ndarray:
        """Dense ranks of the length-(64 * 2**level) windows of the keyed
        text (the indexed letters and the C after them), by prefix doubling.

        The 2b-window at i is the b-window at i followed by the one at
        i + b, so the pair of their ranks ranks it.  With d distinct ranks
        the pair is read as ``rank * d + next``, an exact id below d**2
        ordered as the 2b-windows are.  When d**2 <= ``_TABLE`` = 2**20
        (d <= 1024) the ids are ranked through a table of all d**2 of them
        (``_level_ranks``): a primitive fixed point has linear factor
        complexity (Pansiot, ICALP 1984), so the short levels have few
        distinct ranks (190, 382 and 766 below the 128-, 256- and
        512-letter levels of ``0->0110,1->1001`` at 100000 letters), and the
        transient tables take at most 1 MB of bool and 4 MB of int32.
        Otherwise the ids, below d**2 <= T**2 for a text of T letters, are
        sorted: up to T < 2**21 they leave ``_dense_rank`` room to pack each
        start beside them for one plain sort (it falls back to an argsort
        past that).  The rank fits an int32 (T < 2**31).  Ranks follow the
        order of the words.  Every level is built once and kept.
        """
        levels, size = self._levels, self._keys.size
        if not levels:
            levels.append(_level_ranks(self._keys[: size - _KEY_LETTERS + 1]))
        while len(levels) <= level:
            b, rank = _KEY_LETTERS << (len(levels) - 1), levels[-1]
            count = int(rank.max()) + 1
            # the pairs are a temporary, which _dense_rank overwrites in place
            pairs = _pair_ids(rank[: size - 2 * b + 1], rank[b:], count)
            levels.append(_level_ranks(pairs, count))
        return levels[level]

    @cached_property
    def _back(self) -> np.ndarray:
        """The packed 64 letters before every end e = 0..S + C of the keyed
        text, last letter first and letters before 0 read as 0: the keys of
        the reversed text, with one 0 after it for e = 0, read backwards.
        The top n bits of ``_back[i + n]`` are the id of the mirror image of
        the n-window at i."""
        return _window_keys(np.append(self._bits[::-1], 0))[::-1]

    def _level_maps(self, level: int) -> np.ndarray:
        """The exchange map of a rank level: an int32 array on its distinct
        ranks, giving the rank of the exchange of the window, or -1 where
        that is no factor of the indexed letters (and at every rank of a
        window that is none).

        The map is built from the indexed windows only, read at the first
        start of each distinct one (``_starts``, in the order of the words
        and so of the ranks).  At level 0 they are the distinct keys, and
        the exchange of the window at s is the complement of ``_back[s +
        64]``, found among them by a binary search.  The 2b-window xy of
        ranks (x, y) at level k + 1 exchanges to E(y)E(x), the pair (psi(y),
        psi(x)) of level k's map psi, found among the sorted distinct pairs
        of the level's indexed windows.  Every level's map is built once
        and kept.
        """
        maps, width = self._maps, self._keys.size
        while len(maps) <= level:
            k = len(maps)
            rank = self._ranks(k)
            starts = self._starts(_KEY_LETTERS << k)
            ranks = rank[starts]
            if k == 0:
                distinct, image = self._keys[starts], ~self._back[starts + _KEY_LETTERS]
            else:
                below, b = self._levels[k - 1], _KEY_LETTERS << (k - 1)
                head, tail = below[starts], below[starts + b]
                distinct = _pair_ids(head, tail, width)
                image = _image_ids(maps[k - 1][tail], maps[k - 1][head], width)
            at = _lookup(distinct, image)
            psi = np.full(int(rank.max()) + 1, -1, dtype=np.int32)
            psi[ranks] = np.where(at >= 0, ranks[at], -1)
            maps.append(psi)
        return maps[level]

    def _key_images(self, n, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ids of the windows of n <= 64 letters at the given starts, of
        their mirror images and of their exchanges (n may be an array, one
        length per start): the top n bits of the keys at the starts, of
        ``_back`` at the ends, and the complement of the latter."""
        shift = np.uint64(_KEY_LETTERS - n)
        back = self._back[starts + n]
        return self._keys[starts] >> shift, back >> shift, ~back >> shift

    def _images(self, n: int, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the length-n windows at the given starts and of their
        exchanges.

        Up to 64 letters they are read from the keys and ``_back``
        (``_key_images``).  Past that a window with ranks (x, y) exchanges
        to the window of ranks (psi(y), psi(x)), by the map of its level
        (``_level_maps``): the exchange need not occur in the text, so its
        id is looked up, and it is -1, equal to no id, when that word is no
        factor of the indexed letters.
        """
        if n <= _KEY_LETTERS:
            ids, _, image = self._key_images(n, starts)
            return ids, image
        # the a-windows (a <= n < 2a) at the window's start and ending at its end cover it
        level = (n // _KEY_LETTERS).bit_length() - 1
        a, rank = _KEY_LETTERS << level, self._ranks(level)
        head, tail = rank[starts], rank[starts + (n - a)]
        psi, width = self._level_maps(level), self._keys.size
        return _pair_ids(head, tail, width), _image_ids(psi[tail], psi[head], width)

    def _aligned(self, n: int, starts: np.ndarray, flip: np.uint64) -> np.ndarray:
        """Mask of the length-n windows (n > 64) at the given starts that
        equal their mirror image (``flip`` 0) or their exchange (``flip``
        all ones).

        The window w at i equals R(w) when its first n // 2 letters do, and
        R(w) from letter 64j on is ``_back[i + n - 64j]``: block j compares
        it with the key at i + 64j on the top min(64, n // 2 - 64j) bits,
        and E(w) is R(w) complemented.  No odd window is an antipalindrome
        (its middle letter would be its own exchange).  The first block is
        compared at every start, the others in one 2-D gather at the few
        starts that pass it.
        """
        if flip and n % 2:
            return np.zeros(starts.size, dtype=bool)
        blocks = np.arange(0, n // 2, _KEY_LETTERS)
        shift = (_KEY_LETTERS - np.minimum(n // 2 - blocks, _KEY_LETTERS)).astype(np.uint64)
        hit = ((self._keys[starts] ^ self._back[starts + n] ^ flip) >> shift[0]) == 0
        if blocks.size > 1:
            live, blocks = starts[hit][:, None], blocks[1:]
            rest = self._keys[live + blocks] ^ self._back[live + (n - blocks)] ^ flip
            hit[hit] = ((rest >> shift[1:]) == 0).all(axis=1)
        return hit

    @cached_property
    def _short_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The first start of each distinct factor of every length 1..64,
        with its length: by length, and in lexicographic order within a
        length.

        In the order of ``_suffixes`` the neighbours with ``lcp < 64`` open
        the runs of the distinct 64-letter windows, and the least start of
        a run is the first occurrence of its window.  The lcp at the head of
        a run is the common head of that window and the one before it, so
        for every n at once the distinct windows with ``lcp < n`` open the
        groups that share an n-letter head, and the least start of a group
        (one ``np.minimum.reduceat`` over the 64 rows) is the first
        occurrence of its head.  The heads whose first start leaves room for
        n letters in the S indexed ones are their n-factors.
        """
        order, lcp = self._suffixes
        heads = np.flatnonzero(lcp < _KEY_LETTERS)
        first, lcp = np.minimum.reduceat(order, heads).astype(np.int64), lcp[heads]
        row, entry = np.nonzero(lcp < np.arange(1, _KEY_LETTERS + 1)[:, None])
        # entry 0 (lcp 0) opens a group in every row, so no group runs into the next row
        least = np.minimum.reduceat(np.tile(first, _KEY_LETTERS), row * first.size + entry)
        lengths = row + 1
        keep = least <= self._size - lengths
        return lengths[keep], least[keep]

    @cached_property
    def _short_images(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_key_images`` of ``_short_factors``: the ids of the short
        factors, of their mirror images and of their exchanges."""
        return self._key_images(*self._short_factors)

    def _shorter(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``_short_factors`` of up to n letters (n <= 64)."""
        lengths, starts = self._short_factors
        cut = np.searchsorted(lengths, n, "right")
        return lengths[:cut], starts[:cut]

    @cached_property
    def _suffixes(self) -> tuple[np.ndarray, np.ndarray]:
        """The S indexed starts in the order of their C-letter windows
        (C = 64 * 2**K >= n_max, whose windows all fit in the keyed text),
        and ``lcp[j]``, the length of the common head of the windows at
        ``order[j - 1]`` and ``order[j]``, at most C (0 for j = 0), both
        int32.

        When C = 64 the windows are the keys at the S starts, so one stable
        argsort of the keys gives the order, and no rank level is built.
        Past that the C-window at s is the two (C/2)-windows at s and
        s + C/2, so one sort of the pairs of their ranks (``_sort_order``)
        gives the order, and level K itself is not built.  Neighbours with
        equal keys or pairs share C letters; for the others the levels below
        K, from the widest down, each add their width to the common head
        while the windows there agree, and the first differing bit of the
        keys past it, ``64 - bit_length(xor)``, gives the last letters.
        """
        cap, size = self._reach, self._size
        top = (cap // _KEY_LETTERS).bit_length() - 1
        if top == 0:
            keys = self._keys[:size]
            order = np.argsort(keys, kind="stable")
            ordered = keys[order]
        else:
            below, half = self._ranks(top - 1), cap // 2
            ordered = _pair_ids(below[:size], below[half : half + size], int(below.max()) + 1)
            order = _sort_order(ordered)  # leaves the pairs sorted
        order = order.astype(np.int32)
        lcp = np.full(size, cap, dtype=np.int32)
        lcp[0] = 0
        differ = np.flatnonzero(ordered[1:] != ordered[:-1])
        p, q = order[differ], order[differ + 1]
        common = np.zeros(differ.size, dtype=np.int64)
        for k in range(top - 1, -1, -1):
            below = self._levels[k]
            common += (below[p + common] == below[q + common]) * (_KEY_LETTERS << k)
        common += _KEY_LETTERS - _bit_length(self._keys[p + common] ^ self._keys[q + common])
        lcp[differ + 1] = common
        return order, lcp

    @cached_property
    def _places(self) -> np.ndarray:
        """The place of each indexed start in ``_suffixes`` (the inverse of its order)."""
        order, _ = self._suffixes
        places = np.empty_like(order)
        places[order] = np.arange(order.size, dtype=order.dtype)
        return places

    def _starts(self, n: int) -> np.ndarray:
        """The first start of each distinct length-n window (n <= n_max) of
        the indexed letters, in the order of the words: the least start of
        each run of neighbours in ``_suffixes`` whose lcp is at least n,
        kept when it leaves room for n letters in the indexed ones.  No id
        is formed or sorted.
        """
        order, lcp = self._suffixes
        first = np.minimum.reduceat(order, np.flatnonzero(lcp < n))
        # int64, as numpy gathers more slowly by int32 indices
        return first[first <= self._size - n].astype(np.int64)

    @cached_property
    def _top_starts(self) -> np.ndarray:
        """The first start of each distinct window of length ``stable_up_to``.

        Every certified factor w heads one of these windows: w is a factor
        of the fixed point u, so it extends to the right in u to a word of
        L_T, T = ``stable_up_to``, and the indexed letters hold all of L_T
        (the first N(n_max) letters, or the whole prefix when N(T) fits in
        it).
        """
        return self._starts(self.stable_up_to)

    def factors(self, n: int) -> frozenset[str]:
        """Exact set of length-n factors of the prefix (not certification-gated).

        Up to n_max they are those of the indexed letters: on a certified
        length both are L_n, and an uncertified one indexes the whole prefix.
        Past n_max an index built for n over the same prefix gives them by
        the same rule.
        """
        if n < 0 or n > self.prefix_len:
            return frozenset()
        if n == 0:
            return frozenset({""})
        if n > self.n_max:
            return FactorIndex(self.morphism, self.letter, self.prefix_len, n).factors(n)
        return self._cut(self._starts(n), n)

    def _cut(self, starts: np.ndarray, n: int) -> frozenset[str]:
        """The length-n words of the prefix at the given starts."""
        return frozenset(self.prefix[i : i + n] for i in starts.tolist())

    def bispecials(self) -> tuple[str, ...]:
        """All bispecial factors within the certified range, shortest first,
        by one rule at every length over the neighbours of ``_suffixes``
        (its lcp intervals: Abouelhoda, Kurtz & Ohlebusch, J. Discrete
        Algorithms 2, 2004).

        The starts whose windows begin with a k-letter w form one run of
        neighbours joined by lcp >= k, those continued by 0 first, so each
        pair j with ``lcp[j]`` = k < ``stable_up_to`` gives one right special
        k-factor, and as the indexed starts hold all of L_(k+1) every one
        comes this way.  w is left special when a pair inside its run has
        different letters before its two starts: the nearest such pair on
        either side of j has no lcp below k between it and j (``_since``,
        forward and reversed).  Start 0 takes the letter before its
        neighbour of longer common head, which lies in every run of two or
        more starts that holds it, so it adds no false difference, and it
        misses none, as every x·w of L_(k+1) also occurs at a start >= 1.
        A pair that shares at least ``stable_up_to`` letters, with equal
        letters before its starts, bounds no run and marks none: it is
        dropped.  A stable sort by lcp puts the pairs, in the order of the
        words, shortest first; the words are cut from the keyed text, as a
        window may run past the prefix.
        """
        order, lcp = self._suffixes
        top = self.stable_up_to
        before = self._bits[order - 1]
        p = int(np.argmin(order))  # the place of start 0
        before[p] = before[p - 1 if p + 1 == order.size or lcp[p] > lcp[p + 1] else p + 1]
        differ = before[1:] != before[:-1]  # at j - 1, for the pair j
        pairs = np.flatnonzero(differ | (lcp[1:] < top)) + 1
        common, differ = lcp[pairs], differ[pairs - 1]
        left = np.maximum(_since(common, differ), _since(common[::-1], differ[::-1])[::-1]) >= common
        found = pairs[left & (common < top)]
        found = found[np.argsort(lcp[found], kind="stable")]
        return tuple(self._text[i : i + k] for i, k in zip(order[found].tolist(), lcp[found].tolist()))

    def census(self, lengths=None) -> tuple[CensusRow, ...]:
        """Distinct factor / palindrome / antipalindrome counts per length.

        ``lengths`` defaults to every length up to n_max; pass a sparser
        grid when n_max is large.

        The rows up to 64 letters come at once from the first start of each
        distinct factor of every length (``_short_factors``): the ids of those
        windows, of their mirror images and of their exchanges (from the
        keys and ``_back``), compared and counted by length.  A longer row
        takes the first start of each distinct factor from one order of the
        indexed starts (``_starts``), with no sort, and tests only the
        windows there against their mirror images and exchanges, 64 letters
        at a time (``_aligned``).  No id of an image is looked up.
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
        lengths, _ = self._short_factors
        forward, mirror, image = self._short_images
        masks = (slice(None), forward == mirror, forward == image)
        return list(zip(*(np.bincount(lengths[m], minlength=_KEY_LETTERS + 1).tolist() for m in masks)))

    def _long_row(self, n: int) -> tuple[int, int, int]:
        starts = self._starts(n)
        masks = (self._aligned(n, starts, flip) for flip in (np.uint64(0), _ALL))
        return (starts.size, *(int(np.count_nonzero(m)) for m in masks))

    def e_closure_check(self) -> bool:
        """True iff the certified factor sets are closed under the exchange map.

        Closure at the top certified length T implies it below: a certified
        w heads a word wx of L_T (it extends to the right in the fixed
        point), so E(w) is the tail of E(wx) = E(x)E(w), which is in L_T
        when the T-factors are closed.  The indexed letters hold all of L_T
        (``_top_starts``), so the ids of the exchanges of the distinct
        T-windows (-1 past 64 letters for an exchange that is no indexed
        factor) must all be ids of T-windows.
        """
        if self.stable_up_to == 0:
            return True
        ids, image = self._images(self.stable_up_to, self._top_starts)
        return set(image.tolist()) <= set(ids.tolist())

    def antipal_center(self, limit: int) -> str:
        """The right half w of the least longest certified antipalindrome
        E(w)+w with |w| <= limit, or "" when there is none.

        The middle of E(wa)+wa is E(w)+w, so the valid w are closed under
        prefixes: a letter-by-letter search from "" that tries "0" first
        reaches every valid w, and the first one of greatest length it
        meets is the lexicographically least.  So the answer is the least
        right half among the antipalindromic factors of the greatest even
        certified length that has one.  Past 64 letters each even length,
        from the longest down, tests the heads of the top windows against
        their exchanges (``_aligned``); up to 64 one comparison of ids over
        the distinct factors of every length finds the antipalindromic ones
        (an odd length has none).
        """
        half = min(limit, self.stable_up_to // 2)
        for k in range(half, _KEY_LETTERS // 2, -1):
            starts = self._top_starts
            anti = self._aligned(2 * k, starts, _ALL)
            if anti.any():
                return self._least_half(starts[anti], k)
        lengths, starts = self._shorter(2 * min(half, _KEY_LETTERS // 2))
        ids, _, image = self._short_images
        anti = ids[: lengths.size] == image[: lengths.size]
        if not anti.any():
            return ""
        longest = int(lengths[anti][-1])
        return self._least_half(starts[anti & (lengths == longest)], longest // 2)

    def _least_half(self, starts: np.ndarray, k: int) -> str:
        """The least right half of the 2k-letter windows at the given starts:
        the one whose start comes first in ``_suffixes``.  Each right half
        starts at an indexed start, as its window's first start leaves room
        for it."""
        right = starts + k
        i = int(right[np.argmin(self._places[right])])
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


def bispecial_orbit(m: Morphism, seed: Word, count: int) -> tuple[Word, ...]:
    """The ``count`` words that follow ``seed`` on its orbit under
    ``bispecial_successor``, nearest first; the seed itself is not among them."""
    steps = []
    w = seed
    for _ in range(count):
        w = bispecial_successor(m, w)
        steps.append(w)
    return tuple(steps)
