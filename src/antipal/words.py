"""Finite binary words and the basic (anti)morphic operations on them.

Words are plain Python strings over the alphabet {0,1}; the empty string
is the empty word.  Everything here is a pure function on immutable
values, so results can be shared freely across threads and processes.

The two involutive antimorphisms are the mirror map (``reverse``) and the
exchange map (``exchange``), which complements every letter and reverses
the order.  A word fixed by ``reverse`` is a palindrome, a word fixed by
``exchange`` is an antipalindrome.  Antipalindromes have even length and
the empty word is the only word that is both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import EmptyWordError, NotInThetaImage, ParseError, PreconditionViolated

Word = str

_COMPLEMENT = str.maketrans("01", "10")
_THETA = str.maketrans({"0": "01", "1": "10"})


def check_word(w: str) -> Word:
    """Validate that ``w`` only uses letters 0 and 1 and return it."""
    if w.strip("01"):
        bad = min(i for i, ch in enumerate(w) if ch not in "01")
        raise ParseError(f"invalid letter {w[bad]!r} in word", position=bad)
    return w


def parse_word(text: str) -> Word:
    """Parse the textual word format: a {0,1}-string, with '' or 'eps' for the empty word."""
    text = "".join(text.split())
    if text in ("", "eps"):
        return ""
    return check_word(text)


def complement(w: Word) -> Word:
    """Flip every letter in place (0 <-> 1), keeping the order."""
    return w.translate(_COMPLEMENT)


def reverse(w: Word) -> Word:
    """Mirror image of ``w``."""
    return w[::-1]


def exchange(w: Word) -> Word:
    """Exchange map: complement of the mirror image.  An involution."""
    return w.translate(_COMPLEMENT)[::-1]


def is_palindrome(w: Word) -> bool:
    return w == w[::-1]


def is_antipalindrome(w: Word) -> bool:
    return w == exchange(w)


def theta_apply(w: Word) -> Word:
    """Apply the doubling morphism 0 -> 01, 1 -> 10 letter by letter."""
    return w.translate(_THETA)


def theta_decode(w: Word) -> Word:
    """Exact inverse of ``theta_apply`` on its image.

    Reads non-overlapping pairs 01 -> 0 and 10 -> 1.  Raises
    ``NotInThetaImage`` if the length is odd or some pair is 00/11.
    """
    # Every image block starts with the encoded letter, so the candidate
    # preimage is the subsequence of even positions.
    candidate = w[0::2]
    if theta_apply(candidate) != w:
        raise NotInThetaImage(f"{w!r} is not an image under 0->01, 1->10")
    return candidate


@dataclass(frozen=True)
class ThetaFactorization:
    """A decomposition ``x + theta_apply(z) + y`` with both borders of length <= 1."""

    x: Word
    z: Word
    y: Word

    def reassemble(self) -> Word:
        return self.x + theta_apply(self.z) + self.y


def theta_factorize(v: Word) -> tuple[ThetaFactorization, ...]:
    """All decompositions ``v = x + theta_apply(z) + y`` with ``|x|, |y| <= 1``.

    Returns every valid boundary choice (at most four).  Whenever ``v``
    contains 00 or 11 the result has at most one element; existence is
    only guaranteed for factors of the fixed points this is used on.
    """
    found = []
    n = len(v)
    for xl in (0, 1):
        for yl in (0, 1):
            if xl + yl > n:
                continue
            mid = v[xl : n - yl]
            if len(mid) % 2:
                continue
            candidate = mid[0::2]
            if theta_apply(candidate) == mid:
                found.append(ThetaFactorization(v[:xl], candidate, v[n - yl :] if yl else ""))
    return tuple(found)


def smallest_period(w: Word, bound: int | None = None) -> int | None:
    """Smallest p >= 1 with w[i] == w[i+p] for all valid i.

    Without ``bound`` this is the border construction, linear time.  With
    ``0 <= bound <= len(w) // 2`` it answers only whether that period is at
    most ``bound``: the period if so, else None, from one ``str.find``.  If
    the smallest period p is at most ``bound``, the prefix of length
    ``n - bound`` occurs at p, and its first occurrence j >= 1 is p itself:
    were j < p, the prefix of length ``n - bound + j`` would have periods j
    and p and be at least ``j + p`` letters long (``n - bound >= bound >=
    p``), so by Fine and Wilf it would have period gcd(j, p) < p, which
    divides p and so is a period of w too.  Hence the first occurrence is
    the only candidate to check.
    """
    if not w:
        raise EmptyWordError("the empty word has no period")
    n = len(w)
    if bound is not None:
        if not 0 <= bound <= n // 2:
            raise PreconditionViolated(f"the period bound must be in 0 .. {n // 2}, got {bound}")
        j = w.find(w[: n - bound], 1)
        return j if 0 < j <= bound and w[j:] == w[: n - j] else None
    border = [0] * n
    k = 0
    for i in range(1, n):
        while k and w[i] != w[k]:
            k = border[k - 1]
        if w[i] == w[k]:
            k += 1
        border[i] = k
    return n - border[-1]


def primitive_root(w: Word) -> tuple[Word, int]:
    """The primitive root and maximal exponent: root**exponent == w."""
    if not w:
        raise EmptyWordError("the empty word has no primitive root")
    p = smallest_period(w)
    if len(w) % p == 0:
        return w[:p], len(w) // p
    return w, 1


def s_map(w: Word) -> Word:
    """Letterwise difference map: output letter i is (w[i] + w[i+1]) mod 2; length shrinks by one."""
    if not w:
        raise EmptyWordError("the difference map needs a nonempty word")
    return "".join("1" if a != b else "0" for a, b in zip(w, w[1:]))


def power_table(base: int, mod: int, n: int) -> np.ndarray:
    """``base**j % mod`` for ``j = 0 .. n-1`` as int64, for ``mod < 2**31``.

    Built by doubling: the known head of length k times ``base**k`` gives
    the next k entries, so the table takes log2(n) vectorised steps.  Each
    product stays below ``mod**2 < 2**62``.
    """
    table = np.empty(n, dtype=np.int64)
    table[:1] = 1
    known = 1
    while known < n:
        step = min(known, n - known)
        np.multiply(table[:step], pow(base, known, mod), out=table[known : known + step])
        table[known : known + step] %= mod
        known += step
    return table


def _packed_keys(bits: np.ndarray, dtype: type[np.unsignedinteger]) -> np.ndarray:
    """From each start of a 0/1 array, as many letters as ``dtype`` has bits,
    packed into one unsigned integer with the first letter in the top bit.

    Doubling steps: the key of 2b letters at i is the b-letter key at i
    shifted up by b, or-ed with the b-letter key at i + b.  Letters past
    the end read as 0, so the top k bits of a key are the k-letter window
    at its start whenever that window lies inside the array.
    """
    keys = bits.astype(dtype)
    width, b = 8 * keys.itemsize, 1
    while b < width:
        wider = keys << keys.dtype.type(b)
        wider[:-b] |= keys[b:]
        keys, b = wider, 2 * b
    return keys


# The antipalindrome kernel settles every radius up to _EXACT letters
# exactly, from packed uint16 keys (so _EXACT <= 16), and searches beyond it
# under one Mersenne-prime hash; exactness comes from confirming every
# answer, not from the modulus (see below).
_EXACT = 16
_MOD = 2_147_483_647
_BASE = 1_000_003
_CHUNK = 8192
_MAX_LEN = 2**30


class _Mirrored:
    """``S = d + reverse(d)`` for a difference word d of length m, with the
    exact short test of every centre and a prefix hash built on first use.

    The radius-r window right of centre c is ``S[c+1 .. c+r]`` and its
    mirror image left of c is ``S[2m-c .. 2m-c+r-1]``.  ``mismatch[c]`` is the
    xor of the packed 16-letter keys at those two starts: its top k bits are
    zero exactly when the first k letters of the two windows agree (for
    ``k <= r``, and r within the centre's room).
    """

    def __init__(self, d: np.ndarray):
        m = self.m = d.size
        self.s = np.concatenate((d, d[::-1]))
        keys = _packed_keys(self.s, np.uint16)
        self.mismatch = np.zeros(m, dtype=np.uint16)  # centre 0 has room for radius 0 only
        self.mismatch[1:] = keys[2 : m + 1] ^ keys[2 * m - 1 : m : -1]

    @cached_property
    def hashes(self) -> tuple[np.ndarray, np.ndarray]:
        """The prefix hash h of S and the power table pw.

        The terms are each below ``2**31`` and reduced only after the
        ``cumsum``, so the int64 sum is safe while ``2m * 2**31 < 2**63``.
        """
        pw = power_table(_BASE, _MOD, self.s.size)
        h = np.zeros(self.s.size + 1, dtype=np.int64)
        np.multiply(self.s, pw, out=h[1:])
        np.cumsum(h[1:], out=h[1:])
        h %= _MOD
        return h, pw


def _passing(centres: np.ndarray, r: int, text: _Mirrored) -> np.ndarray:
    """The centres where the difference word may be a palindrome to radius ``r``.

    ``centres`` is sorted, so the centres with room for radius r (``r <= c``
    and ``c + r < m``) are one slice.  Their windows ``S[c+1 .. c+r]`` and
    ``S[2m-c .. 2m-c+r-1]`` are compared by hash, shifted to the same power
    by ``pw[b - a]``.  This is the hash test alone: the search calls it only
    on centres that the exact pass found to reach ``_EXACT`` letters, at
    longer radii.  A centre that truly reaches r always passes; one that
    does not passes only on a collision.
    """
    m = text.m
    centres = centres[np.searchsorted(centres, r) : np.searchsorted(centres, m - r)]
    if not len(centres):
        return centres
    h, pw = text.hashes
    kept = []
    for i in range(0, len(centres), _CHUNK):
        c = centres[i : i + _CHUNK]
        a = c + 1
        b = 2 * m - c
        left = (h[a + r] - h[a]) % _MOD * pw[b - a] % _MOD
        right = (h[b + r] - h[b]) % _MOD
        kept.append(c[left == right])
    return np.concatenate(kept)


def longest_antipalindrome(w: Word) -> int:
    """Length of the longest antipalindromic factor of ``w`` (0 if none).

    An even factor ``w[c-r .. c+r+1]`` is an antipalindrome exactly when the
    difference word ``d`` (``d[i] = w[i] xor w[i+1]``) has an odd palindrome
    of radius r centred on a letter ``d[c] == 1``; the answer is
    ``2 * (R + 1)`` for the largest such radius R.  The room of centre c,
    ``min(c, m - 1 - c)``, is the largest radius that fits in d.

    Two stages find R, with W = ``_EXACT`` = 16:

    * **One exact pass over all centres.**  The leading zero bits of
      ``mismatch[c]`` count the letters on which the two sides of c agree
      (see ``_Mirrored``), so the radius of a 1-centre capped at W is
      ``min(16 - mismatch[c].bit_length(), room(c), W)``.  The centres in
      ``[W, m - W)`` all have room for W, so one minimum of ``mismatch``
      masked to the 1-centres gives the largest capped radius among them;
      the at most 2W edge centres are read one by one with their room.  If
      the largest capped radius is below W it is R, with no search and no
      hash: every word whose longest antipalindrome has at most 2W letters
      is settled here.
    * **A hashed search beyond W.**  Only the centres that reach W (the
      1-centres in ``[W, m - W)`` with ``mismatch[c] < 1 << (16 - W)``) go
      on, from lo = W.  The radius doubles from 2W while some centre still
      passes ``_passing``, keeping only the passing centres, then a binary
      search runs between the last pass and the first fail.  Before each
      doubling pass the survivors with the most room are probed at that
      room q (capped below the upper bound): on a periodic prefix every
      survivor past one period reaches its full room, so ``(01)^k`` takes
      one hash test.  If one passes, no survivor can reach q + 1, so the
      search ends between q and q + 1 and goes straight to the confirmation
      below; if none passes, no centre reaches q.

    The hash is built on the first ``_passing`` call, so a word settled by
    the exact pass never builds one.  The result is exact whatever the
    hashes do:

    * The first stage is exact: up to W a radius is read letter by letter
      from the packed keys, and every survivor truly reaches W.
    * The hash test has no false negatives: a centre that truly reaches r
      passes it.  So when the search ends at radius ``lo`` every centre
      that truly reaches ``lo`` is still a survivor, and a failed test at
      radius ``hi`` proves that no centre reaches ``hi``.
    * The answer is confirmed by a direct string test ``f == exchange(f)``
      on the survivors.  If none confirms, no centre reaches ``lo``, so
      ``lo`` becomes the upper bound and the search runs again below it.
      This covers a probe that passed on a collision too: a centre that
      truly reaches q survived every pass and so passes the probe.  The
      bound falls each time and a search that ends at W always confirms,
      so this terminates.  A collision costs time, never a wrong value, so
      one modulus is enough (and never mod ``2**64``: Thue-Morse words
      defeat it).

    With ``_EXACT = 0`` the first stage settles nothing and every 1-centre
    goes to the hashed search.

    The centre indices are int32 and reach ``2|w|``, and the hash sums
    need ``2 * |w| * 2**31 < 2**63``; both hold below ``2**30`` letters,
    which is checked.
    """
    n = len(w)
    if n < 2:
        return 0
    if n >= _MAX_LEN:
        raise PreconditionViolated(f"longest_antipalindrome takes fewer than 2**30 letters, got {n}")
    m = n - 1
    letters = np.frombuffer(w.encode("ascii"), dtype=np.uint8)
    d = letters[1:] ^ letters[:-1]
    if not d.any():
        return 0
    text = _Mirrored(d)
    width = _EXACT
    inner = slice(width, max(width, m - width))
    nearest = np.where(d[inner], text.mismatch[inner], 0xFFFF).min(initial=0xFFFF)
    best = 16 - int(nearest).bit_length()
    if best < width:
        for c in chain(range(min(width, m)), range(max(width, m - width), m)):
            if d[c]:
                best = max(best, min(16 - int(text.mismatch[c]).bit_length(), c, m - 1 - c))
        return 2 * (best + 1)
    survivors = np.flatnonzero(d[inner] & (text.mismatch[inner] < 1 << (16 - width)))
    survivors = (survivors + width).astype(np.int32)

    hi = m  # no centre has room for radius m
    while True:
        lo, alive, r = width, survivors, max(2 * width, 1)
        while True:
            room = min(int(np.minimum(alive, m - 1 - alive).max()), hi - 1)
            top = _passing(alive, room, text) if room > lo else alive
            if len(top):
                lo, alive, hi = room, top, room + 1
                break
            hi = room
            if r >= hi:
                break
            found = _passing(alive, r, text)
            if not len(found):
                hi = r
                break
            lo, alive, r = r, found, 2 * r
        while hi - lo > 1:
            mid = (lo + hi) // 2
            found = _passing(alive, mid, text)
            if len(found):
                lo, alive = mid, found
            else:
                hi = mid
        for c in map(int, alive):
            if is_antipalindrome(w[c - lo : c + lo + 2]):
                return 2 * (lo + 1)
        hi = lo
