"""Finite binary words and the basic (anti)morphic operations on them.

Words are plain Python strings over the alphabet {0,1}; the empty string
is the empty word.  Everything here is a pure function on immutable
values, so results can be shared freely across threads and processes.

The two involutive antimorphisms are the mirror map (``reverse``) and the
exchange map (``exchange``), which complements every letter and reverses
the order.  A word fixed by ``reverse`` is a palindrome, a word fixed by
``exchange`` is an antipalindrome.  Antipalindromes have even length and
the empty word is the only word that is both.

The antipalindrome kernel imports numpy inside its functions, on first
call, so importing this module does not load numpy.
"""

from __future__ import annotations

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


def smallest_period(w: Word, bound: int | None = None) -> int | None:
    """Smallest p >= 1 with w[i] == w[i+p] for all valid i.

    Without ``bound`` this is the border construction, linear time.  With
    ``0 <= bound <= len(w) // 2`` it answers only whether that period is at
    most ``bound``: the period if so, else None, from one ``str.find`` of
    the first ``bound`` letters in the first ``2 * bound`` and one
    comparison.  If the smallest period p is at most ``bound``, the needle
    ``w[:bound]`` occurs at p, and its first occurrence j >= 1 is p itself:
    were j < p, the prefix of length ``j + bound`` would have periods j
    and p and be at least ``j + p`` letters long, so by Fine and Wilf it
    would have period gcd(j, p) < p.  That divides p, and the prefix holds
    w[:p], so w[:p] is a power of w[:gcd(j, p)] and w, of period p, has
    the smaller period too.  Hence the first occurrence, which ends within
    ``2 * bound`` letters, is the only candidate to check.
    """
    if not w:
        raise EmptyWordError("the empty word has no period")
    n = len(w)
    if bound is not None:
        if not 0 <= bound <= n // 2:
            raise PreconditionViolated(f"the period bound must be in 0 .. {n // 2}, got {bound}")
        j = w.find(w[:bound], 1, 2 * bound)
        return j if j > 0 and w[j:] == w[: n - j] else None
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
    p = (w + w).find(w, 1)  # w equals its rotation by p exactly when w is a power of w[:p]
    return w[:p], len(w) // p


def _packed_keys(bits: np.ndarray) -> np.ndarray:
    """From each start of a 0/1 array, 16 letters packed into one uint16
    with the first letter in the top bit.

    Doubling steps: the key of 2b letters at i is the b-letter key at i
    shifted up by b, or-ed with the b-letter key at i + b.  Letters past
    the end read as 0, so the top k bits of a key are the k-letter window
    at its start whenever that window lies inside the array.
    """
    import numpy as np

    keys, b = bits.astype(np.uint16), 1
    while b < 16:
        wider = keys << np.uint16(b)
        wider[:-b] |= keys[b:]
        keys, b = wider, 2 * b
    return keys


# The antipalindrome kernel settles the radii below _EXACT letters from the
# letters alone and reads every longer radius from packed uint16 keys in a
# doubling search.  Before a search pass that would compare more than
# _DENSITY * m letters the periodic runs among its centres are settled in
# closed form; tests set _DENSITY to 0 to run that step before every pass.
_EXACT = 16
_DENSITY = 1
_MAX_LEN = 2**30


def _agree(keys: np.ndarray, a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """For each pair of starts, the first t in ``[lo, hi)`` with
    ``S[a+t] != S[b+t]``, or hi if the windows agree up to hi, given the
    packed keys of S and ``lo < hi``.

    Reads one key every 16 letters from lo on; the leading zero bits of the
    first nonzero xor give t.  A key start past the end of S is clamped to
    the last key: every letter it stands for lies past the end, where the
    caller's cap (a centre's room, a run's edge) already holds.
    """
    import numpy as np

    steps = np.arange(lo, hi, 16)
    last = keys.size - 1
    x = keys[np.minimum(a[:, None] + steps, last)] ^ keys[np.minimum(b[:, None] + steps, last)]
    j = (x != 0).argmax(axis=1)
    first = x[np.arange(x.shape[0]), j]
    t = steps[j] + 16 - np.frexp(first)[1]  # the exponent of a positive key is its bit length
    return np.where(first != 0, np.minimum(t, hi), hi)


def _extension(keys: np.ndarray, a: np.ndarray, b: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """For each pair of starts, the number of letters on which ``S[a..]`` and
    ``S[b..]`` agree, at most cap: ``_agree`` over windows that double from
    16 letters, so the keys read are proportional to the answer."""
    import numpy as np

    out = np.zeros(len(a), dtype=np.int64)
    todo = np.flatnonzero(cap > 0)
    lo, hi = 0, 16
    while len(todo):
        t = np.minimum(_agree(keys, a[todo], b[todo], lo, hi), cap[todo])
        out[todo] = t
        todo = todo[t == hi]
        lo, hi = hi, 2 * hi
    return out


def _settle_runs(keys: np.ndarray, m: int, alive: np.ndarray, lo: int) -> tuple[int, np.ndarray]:
    """The largest radius among the centres of ``alive`` that lie in chains,
    and the centres that lie in none (see ``longest_antipalindrome``)."""
    import numpy as np

    gaps = np.diff(alive)
    small = gaps <= lo
    if not small.any():
        return 0, alive
    same = np.zeros_like(small)  # gap i continues the chain of gap i - 1
    same[1:] = small[:-1] & (gaps[1:] == gaps[:-1])
    first = np.flatnonzero(small & ~same)
    last = np.flatnonzero(small & ~np.append(same[1:], False))
    g2 = 2 * gaps[first]
    left, right = alive[first] - lo, alive[last + 1] + lo
    s = left - _extension(keys, 2 * m - left, 2 * m - left - g2, left)
    e = right + 1 + _extension(keys, right + 1, right + 1 - g2, m - 1 - right)
    members = np.flatnonzero(small)  # the left end of every short gap, then the last member of each chain
    chain = (np.cumsum(small & ~same) - 1)[members]
    x = np.concatenate((alive[members], alive[last + 1]))
    chain = np.concatenate((chain, np.arange(len(first))))
    radius = np.minimum(x - s[chain], e[chain] - 1 - x)
    tie = np.flatnonzero(x - s[chain] == e[chain] - 1 - x)
    c, r = x[tie], radius[tie]
    radius[tie] += _extension(keys, c + r + 1, 2 * m - c + r, np.minimum(c, m - 1 - c) - r)
    in_chain = np.append(small, False) | np.insert(small, 0, False)
    return int(radius.max()), alive[~in_chain]


def longest_antipalindrome(w: Word) -> int:
    """Length of the longest antipalindromic factor of ``w`` (0 if none).

    An even factor ``w[c-r .. c+r+1]`` is an antipalindrome exactly when
    ``w[c-t] != w[c+1+t]`` for every t in ``0..r``; equivalently the
    difference word ``d`` (``d[i] = w[i] xor w[i+1]``) has an odd palindrome
    of radius r centred on a letter ``d[c] == 1``.  The answer is
    ``2 * (R + 1)`` for the largest such radius R over the centres c of d.
    The room of centre c, ``min(c, m - 1 - c)``, is the largest radius that
    fits in d.  Every radius is read exactly: there is no hash and nothing
    to confirm.  Two stages find R, with W = ``_EXACT`` = 16:

    * **A shrinking mask over the letters.**  At t = 0 the mask marks the
      1-centres, ``w[c] != w[c+1]`` (a word of one letter has none and
      answers 0).  Step t keeps the centres with room for
      t whose letters ``w[c-t]`` and ``w[c+1+t]`` differ:
      ``run = run[1:-1] & (w[:m-2t] != w[2t+1:])``, so the mask covers the
      centres ``[t, m - t)`` and its index i stands for centre i + t.  The
      first t <= W with no survivor gives R = t - 1.  So every word whose
      longest antipalindrome has at most 2W letters is settled by at most
      W steps of two slice comparisons each, with no difference word, key or
      edge loop.
    * **A doubling search beyond W.**  The centres that survive step W
      reach W, and ``best = W``.  Only these words build d and the packed
      16-letter keys of ``S = d + reverse(d)``.  The radius-r window right
      of centre c is ``S[c+1 .. c+r]`` and its mirror image left of c is
      ``S[2m-c .. 2m-c+r-1]``, so the keys at those two starts compare 16
      letters of both sides of c at once.  The second half of S reads d
      leftwards, so a run of d is extended to the left like to the right.
      The survivor with the most room is the one nearest the middle
      centre; it is found in windows of the mask about the middle that
      widen 4x, and gets its exact radius once, from the keys
      up to its room (on a periodic prefix that radius is the whole room,
      which ends the search).  Only the survivors whose room is above
      ``best`` are then listed.  From ``lo = W``, each pass drops the
      survivors whose room is at most ``best``, gives every other one its
      radius capped at ``r = max(2 lo, 16)`` from the keys of the new
      letters ``[lo, r)`` alone (``_agree``), records the largest in
      ``best``, keeps the survivors that reach r and sets ``lo = r``, until
      no survivor is left.

    A pass over k survivors compares ``k * lo`` letters, which is quadratic
    on near-periodic words where most centres reach far.  So before a pass
    with ``k * lo > _DENSITY * m`` (``_DENSITY = 1``) the periodic runs are
    settled first (``_settle_runs``).
    A chain is a maximal sequence of consecutive survivors with the same gap
    ``g <= lo``; every survivor has radius at least lo.

    * **Lemma 1.**  If the 1-centres c and c + g both have radius at least
      ``lo >= g``, then d has period 2g on ``[c - lo, c + g + lo]``: the
      reflection about c followed by that about c + g is the shift by 2g.
      Consecutive pairs of a chain overlap by ``2 lo + 1 >= 2g`` letters,
      so the whole chain lies in one maximal 2g-periodic run ``[s, e)`` of
      d, and two exact extensions of the period, one leftwards from
      ``x_0 - lo`` and one rightwards from ``x_k + lo``, find s and e.
    * **Lemma 2.**  A member x has radius exactly ``min(x - s, e - 1 - x)``
      unless ``x - s == e - 1 - x``.  Its palindrome of radius ``lo >= g``
      covers a full period, so the run is symmetric about x.  If, say,
      ``x - s < e - 1 - x``, the left arm ends at the room (``s = 0``) or
      at ``d[s-1] != d[s-1+2g]``, and ``d[s-1+2g]`` equals, by symmetry and
      period, the letter after the right arm.  The one member with equal
      arms gets one exact extension.

    The largest member radius goes to ``best`` and every chain is dropped.
    The survivors left are then more than lo apart, so every pass reads at
    most ``m + lo`` letters, over at most ``log2 m`` passes; the extensions
    read keys in proportion to the runs and arms they measure.

    With ``_EXACT = 0`` the mask takes no step and every 1-centre goes to
    the search.

    The centre indices are int32 and the window starts in S reach ``2|w|``,
    which fits below ``2**30`` letters; that is checked.
    """
    import numpy as np

    n = len(w)
    if n < 2:
        return 0
    if n >= _MAX_LEN:
        raise PreconditionViolated(f"longest_antipalindrome takes fewer than 2**30 letters, got {n}")
    if "0" not in w or "1" not in w:  # no letter differs from its neighbour
        return 0
    m = n - 1
    letters = np.frombuffer(w.encode("ascii"), dtype=np.uint8)
    run = letters[:-1] != letters[1:]
    width = _EXACT
    for t in range(1, width + 1):
        if m <= 2 * t:
            return 2 * t
        run = run[1 : m - 2 * t + 1]
        run &= letters[: m - 2 * t] != letters[2 * t + 1 :]
        if not run.any():
            return 2 * t

    # run[i] marks centre i + width; the survivor nearest the middle has the most room
    size, half = run.size, 1
    while True:
        a = max(0, (size - 1) // 2 - half)
        near = np.flatnonzero(run[a : size - a]) + a
        if near.size:
            break
        half *= 4
    top = int(near[np.minimum(near, size - 1 - near).argmax()]) + width
    room = min(top, m - 1 - top)
    d = letters[1:] ^ letters[:-1]
    keys = _packed_keys(np.concatenate((d, d[::-1])))
    lo = best = width
    if room > lo:
        c = np.array([top])
        best = int(_agree(keys, c + 1, 2 * m - c, lo, room)[0])
    # list only the survivors with room above best, the centres [best + 1, m - 1 - best)
    alive = (np.flatnonzero(run[best + 1 - width : m - 1 - best - width]) + best + 1).astype(np.int32)
    while True:
        alive = alive[np.minimum(alive, m - 1 - alive) > best]
        if len(alive) * lo > _DENSITY * m:
            settled, alive = _settle_runs(keys, m, alive, lo)
            best = max(best, settled)
        if not len(alive):
            return 2 * (best + 1)
        r = max(2 * lo, 16)
        radius = np.minimum(_agree(keys, alive + 1, 2 * m - alive, lo, r), np.minimum(alive, m - 1 - alive))
        best = max(best, int(radius.max()))
        alive, lo = alive[radius == r], r
