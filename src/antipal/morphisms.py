"""Binary morphisms: application, conjugation, fixed points, frequencies.

A morphism is the ordered pair of images of the letters 0 and 1.  At
least one image must be nonempty.  Values are immutable; every operation
returns new objects, so morphisms can be shared across worker processes
without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt, sqrt

from .errors import (
    NotPrimitive,
    NotProlongable,
    ParseError,
    PreconditionViolated,
)
from .words import Word, check_word, parse_word, primitive_root

IncidenceMatrix = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class Morphism:
    image0: Word
    image1: Word

    def __post_init__(self):
        check_word(self.image0)
        check_word(self.image1)
        if not self.image0 and not self.image1:
            raise ParseError("at least one image must be nonempty")

    def image(self, letter: str) -> Word:
        return self.image0 if letter == "0" else self.image1

    @cached_property
    def _images(self) -> dict[str, Word]:
        return {"0": self.image0, "1": self.image1}

    def __str__(self) -> str:
        return format_morphism(self)


def format_morphism(m: Morphism) -> str:
    return f"0->{m.image0},1->{m.image1}"


def parse_morphism(text: str) -> Morphism:
    """Parse '0->IMAGE0,1->IMAGE1'; whitespace is ignored, 'eps' or '' mean the empty image."""
    squeezed = "".join(text.split())
    if not squeezed.startswith("0->"):
        raise ParseError("expected '0->'", position=0)
    comma = squeezed.find(",", 3)
    if comma < 0:
        raise ParseError("expected ',' separating the two images", position=len(squeezed))
    if not squeezed.startswith("1->", comma + 1):
        raise ParseError("expected '1->'", position=comma + 1)
    image0 = parse_word(squeezed[3:comma])
    image1 = parse_word(squeezed[comma + 4 :])
    return Morphism(image0, image1)


def apply(m: Morphism, w: Word) -> Word:
    """Image of w: the concatenation of the letter images, built by one join."""
    return _image(m._images, w)


def compose(m1: Morphism, m2: Morphism) -> Morphism:
    """The morphism sending a to m1(m2(a))."""
    return Morphism(apply(m1, m2.image0), apply(m1, m2.image1))


def square(m: Morphism) -> Morphism:
    return compose(m, m)


def incidence(m: Morphism) -> IncidenceMatrix:
    """Row a, column b: occurrences of letter a in the image of b."""
    return (
        (m.image0.count("0"), m.image1.count("0")),
        (m.image0.count("1"), m.image1.count("1")),
    )


def is_uniform(m: Morphism) -> bool:
    return len(m.image0) == len(m.image1)


def is_primitive(m: Morphism) -> bool:
    """Entrywise positivity of the squared incidence matrix (binary Wielandt exponent)."""
    counts = incidence(m)
    return all(entry > 0 for row in counts for entry in _times(row, counts))


def prolongable_letters(m: Morphism) -> frozenset[str]:
    """Letters a with image a·w, w nonempty, whose iterates grow without bound.

    A letter whose image contains itself never dies out, so a's iterates
    grow unless every letter of w is the other letter b and b dies out;
    b, whose image holds only a and b, dies out exactly when its image is
    empty.  So a is prolongable unless w is a power of b and b -> eps.
    """
    u, v = m.image0, m.image1
    zero = len(u) > 1 and u[0] == "0" and (v != "" or u.count("0") > 1)
    one = len(v) > 1 and v[0] == "1" and (u != "" or v.count("1") > 1)
    return frozenset("0" * zero + "1" * one)


def _image(images: dict[str, Word], w: Word) -> Word:
    """Image of w under the morphism with these letter images, by one join."""
    return "".join(map(images.__getitem__, w))


def _times(row: tuple[int, int], counts: IncidenceMatrix) -> tuple[int, int]:
    """The row vector ``row`` times the matrix ``counts``.  With counts the
    ``incidence`` of M, it maps the lengths of M^j(0) and M^j(1) to those of
    M^(j+1)(0) and M^(j+1)(1), as M^(j+1)(a) = M^j(M(a)), and a row of the
    incidence of M to that row of the incidence of M^2."""
    (a, b), (c, d) = counts
    return row[0] * a + row[1] * c, row[0] * b + row[1] * d


def _head_for(lengths: tuple[int, int], w: Word, need: int) -> Word:
    """The shortest head of w whose image has at least ``need`` > 0 letters
    under letter images of ``lengths`` letters, or w.

    The heads tried double from one letter, then halve the last gap, and
    each try counts only the letters past a shorter head already counted:
    about three times the head's letters are read, not all of w, which
    matters as ``str.count`` reads an aperiodic word at several ns a
    letter.
    """
    l0, l1 = lengths
    lo = got = 0  # the image of w[:lo] has got < need letters
    hi = 1
    while True:
        hi = min(hi, len(w))
        more = l0 * (hi - lo) + (l1 - l0) * w.count("1", lo, hi)
        if got + more >= need:
            break
        if hi == len(w):
            return w
        lo, got, hi = hi, got + more, 2 * hi
    while hi - lo > 1:  # the image of w[:hi] has at least need letters
        mid = (lo + hi) // 2
        more = l0 * (mid - lo) + (l1 - l0) * w.count("1", lo, mid)
        if got + more >= need:
            hi = mid
        else:
            lo, got = mid, got + more
    return w[:hi]


def fixed_point_prefix(m: Morphism, letter: str, n: int) -> Word:
    """Length-n prefix of the fixed point x starting with a prolongable letter.

    x = M(x) for every power M of m, so M maps each prefix of x onto a
    prefix of x.  Two cases have a closed form, both a tail t =
    m(letter)[1:] of one letter.  A tail without the other letter b gives
    letter^inf.  A tail t = b^k with m(b) = b gives letter + b^inf; these
    are the only tails that m fixes, as m(t) holds all of m(letter) =
    letter + t when the letter occurs in t.  Otherwise both letters occur
    in x and grow, and:

    * **Squaring.**  The images of M = m^(2^k) are kept as plain strings,
      with their letter counts, and squared, M^2(a) = M(M(a)), while
      M^2(letter) has fewer than n letters and the two squared images,
      whose lengths the counts give before they are built, hold at most
      n / 2 letters.  Each squaring at least about doubles the images, so
      all the powers built hold at most about n letters.
    * **Heads.**  The counts give the lengths of M^j(0) and M^j(1), and so
      the least J with |M^(J+1)(letter)| >= n.  From w = M(letter), for
      j = J down to 1, w becomes M(h) for the shortest head h of w with
      |M^j(h)| >= n; so |M^(j-1)(w)| >= n, and at j = 0 w has at least n
      letters.  Each step makes progress, as j falls by one, and maps only
      the head that reaches n: the last step builds fewer than n letters
      plus one image of M, and step j a word whose image under M^(j-1),
      less one image, is shorter than n.

    So the work is linear in n, and a long M leaves few letters to map: at
    100000 letters most hosts end with one join of a few dozen images.
    """
    if letter not in prolongable_letters(m):
        raise NotProlongable(f"{format_morphism(m)} is not prolongable on {letter}")
    if n <= 0:
        return ""
    tail, other = m.image(letter)[1:], "1" if letter == "0" else "0"
    if tail == other * len(tail) and m.image(other) == other:
        return letter + other * (n - 1)
    if tail == letter * len(tail):
        return letter * n
    seed = letter == "1"
    images, counts = {"0": m.image0, "1": m.image1}, incidence(m)  # of M = m^(2^k)
    while True:
        squared = _times(counts[0], counts), _times(counts[1], counts)
        lengths = _times((1, 1), squared)
        if lengths[seed] >= n or sum(lengths) > n // 2:
            break
        images = {a: _image(images, x) for a, x in images.items()}
        counts = squared
    powers, lengths = [], _times((1, 1), counts)  # the image lengths of M^j, j = 1 .. J
    while lengths[seed] < n:  # |M^(j-1)(w)| < n for w = M(letter), so J >= j
        powers.append(lengths)
        lengths = _times(lengths, counts)
    w = images[letter]
    for lengths in reversed(powers):
        w = _image(images, _head_for(lengths, w, n))
    return w[:n]


# The widest block count r that proven_prefix_len reads: L_r grows with r,
# and r = 16 already lets one level j serve n up to 15 * min_c |h^j(c)| + 1.
_BLOCKS = 16


def _pairs(m: Morphism, letter: str) -> set[Word]:
    """L_2 of the fixed point read from ``letter``: the 2-factors of m(letter),
    closed under taking the 2-factors of m(xy) for each xy met.  Every
    2-factor of m^(k+1)(letter) lies in m(xy) for a 2-factor xy of
    m^k(letter), when no image is empty, so the closure is all of L_2."""
    found, blocks = set(), [m.image(letter)]
    while blocks:
        met = {w[i : i + 2] for w in blocks for i in range(len(w) - 1)} - found
        found |= met
        blocks = [apply(m, xy) for xy in met]
    return found


def _factors(m: Morphism, letter: str, r: int) -> set[Word]:
    """L_r: the r-factors of the blocks m^k(x)m^k(y), xy in L_2 (``_pairs``),
    with min_c |m^k(c)| >= r - 1, as an r-window of the fixed point m^k(u)
    covers at most two of its blocks m^k(u_i).  They are the windows inside
    each m^k(x) and those across each seam."""
    pairs = _pairs(m, letter)
    if r <= 2:
        return {w[:r] for w in pairs}
    images = {"0": "0", "1": "1"}
    while min(map(len, images.values())) < r - 1:
        images = {c: apply(m, w) for c, w in images.items()}
    words = set()
    for w in {images[x] for x, _ in pairs}:
        words.update(w[i : i + r] for i in range(len(w) - r + 1))
    for x, y in pairs:
        seam = images[x][1 - r :] + images[y][: r - 1]
        words.update(seam[i : i + r] for i in range(r - 1))
    return words


def proven_prefix_len(m: Morphism, letter: str, n: int, text: Word) -> int | None:
    """A length N(n) whose prefix of the fixed point u = m(u) read from the
    prolongable ``letter`` holds every n-factor of u, from ``text``, a prefix
    of u; None when m has a letter that never grows (m(b) is b or empty).

    Cut u = m^j(u) into the blocks m^j(u_i), each of at least l_j =
    min_c |m^j(c)| letters.  An n-factor that starts in block i ends within
    r - 1 more blocks, r = ceil((n - 1) / l_j) + 1, so it lies in m^j(v),
    starting in its first block, for v = u[i : i + r] in L_r.  At the first
    start f_v of v it occurs again, before |m^j(u[:f_v + 1])|.  So

        N_j(n) = max over v in L_r of |m^j(u[:f_v + 1])| + n - 1

    holds all of L_n, and N(n) is the least N_j(n) over the j whose r is at
    most 16 and whose every v occurs in ``text``.  L_r is exact, by closure
    from the 2-factors of m(letter) (``_factors``).  The block lengths never
    shrink as j grows, so r only falls, and past the first j with r <= 2
    the bound only grows: the levels stop there.  The first r met is the
    widest, and every word of a shorter L_r heads one of its words, as each
    factor of u extends to the right.  Each N_j is nondecreasing in n, and a
    larger n leaves no more levels with r <= 16, so N is nondecreasing too.
    j = 0 reads L_n itself, which makes N(n) exact for n <= 16.  The
    argument needs only that both letters grow, not primitivity; for a
    primitive m, u is linearly recurrent and N(n) = O(n) (Durand, Discrete
    Math. 179, 1998; Durand, Host & Skau, ETDS 19, 1999).
    """
    other = "1" if letter == "0" else "0"
    if m.image(other) in ("", other):
        return None
    counts, widest = incidence(m), None
    lengths, best, lasts = (1, 1), None, {}  # lengths: |m^j(0)|, |m^j(1)|
    while True:
        r = -(-(n - 1) // min(lengths)) + 1
        if r <= _BLOCKS:
            widest = widest or _factors(m, letter, r)
            if r not in lasts:
                firsts = [text.find(w) for w in {w[:r] for w in widest}]
                lasts[r] = max(firsts) if min(firsts) >= 0 else None
            if (f := lasts[r]) is not None:
                ones = text.count("1", 0, f + 1)
                bound = lengths[0] * (f + 1 - ones) + lengths[1] * ones + n - 1
                best = bound if best is None else min(best, bound)
        if r <= 2:
            return best
        lengths = _times(lengths, counts)


def fixed_point_source(
    m: Morphism, letter: str | None = None, m2: Morphism | None = None
) -> tuple[str, Morphism, str] | None:
    """The fixed point read for m, as (source, host, letter): the host is m ("self"), or its
    square m2 ("square") when m has no prolongable letter; the letter is ``letter``, or else
    the least prolongable letter of the host.  None when neither host has one."""
    for source, host in (("self", m), ("square", m2 or square(m))):
        if letters := prolongable_letters(host):
            break
    if letter is not None and letter not in letters:
        raise PreconditionViolated(f"seed letter {letter!r} is not prolongable on {format_morphism(host)}")
    return (source, host, letter or min(letters)) if letters else None


@dataclass(frozen=True)
class ConjugacyChain:
    """The finite chain of conjugates, leftmost first, rightmost last.

    ``q_full`` links the two extremes, and the conjugacy word of element i
    against the leftmost element is its last i letters,
    ``q = q_full[len(q_full) - i:]``: q + leftmost(w) == chain[i](w) + q
    for every w.  For a cyclic morphism the chain is the full rotation
    cycle starting at the queried morphism, the extremes are meaningless,
    and ``q_full`` is the primitive common root of the images (the period
    of the unique fixed point).

    The elements are not stored.  ``_words`` holds two words whose windows
    of the image lengths are the elements' images: s+u+p and s+v+p (see
    ``conjugacy_chain``), where element i starts at ``len(q_full) - i``,
    or u and v followed by their first ``len(q_full)`` letters on a cyclic
    chain, where element i starts at i.  ``_own`` is the queried
    morphism's index.  ``_pair(i)`` cuts one element's images, ``_ends``
    those of the two extremes once, and ``chain``, ``leftmost`` and
    ``rightmost`` build Morphisms when read.  The class deciders of
    ``membership`` read a non-cyclic chain at its two extremes, at the
    queried morphism and at the first element with a witness.  A cyclic
    chain they search element by element, as the A2 decider does any chain
    whose image lengths are even.
    """

    q_full: Word
    cyclic: bool
    _words: tuple[Word, Word]
    _own: int = field(compare=False)

    def _pair(self, i: int) -> tuple[Word, Word]:
        """The images of element i."""
        su, sv = self._words
        top = len(self.q_full)
        start = i if self.cyclic else top - i
        return su[start : start + len(su) - top], sv[start : start + len(sv) - top]

    @cached_property
    def _ends(self) -> tuple[tuple[Word, Word], tuple[Word, Word]]:
        """The images of the leftmost and of the rightmost element."""
        return self._pair(0), self._pair(len(self.q_full) - self.cyclic)

    @cached_property
    def chain(self) -> tuple[Morphism, ...]:
        size = len(self.q_full) + (not self.cyclic)
        return tuple(Morphism(*self._pair(i)) for i in range(size))

    @property
    def leftmost(self) -> Morphism:
        return Morphism(*self._ends[0])

    @property
    def rightmost(self) -> Morphism:
        return Morphism(*self._ends[1])


def conjugacy_chain(m: Morphism) -> ConjugacyChain:
    """The chain of conjugates of m, in closed form.

    Rolling the shared first letter of both images to their ends gives a
    left conjugate.  With u, v the images and p the longest common prefix
    of uv and vu, the images after t forward rolls are ``(u+p)[t:][:|u|]``
    and ``(v+p)[t:][:|v|]``, whose first letters are ``(uv)[t]`` and
    ``(vu)[t]``; so exactly |p| forward rolls are possible, and by the
    mirror argument exactly |s| backward rolls, s the longest common
    suffix.  Element i of the chain, leftmost first, is the pair of
    windows of s+u+p and s+v+p that start at |s|+|p|-i, m is element |p|,
    and the conjugacy word of element i is the i letters of s+u+p just
    before the leftmost window; ``q_full`` is all |s|+|p| of them.  Images
    that commute (uv == vu) are powers of one primitive root r
    (Lyndon-Schutzenberger), so rolling only rotates them and the chain is
    the cycle of |r| rotations, the windows of u + r and v + r; an empty
    image blocks every roll.
    """
    u, v = m.image0, m.image1
    if not u or not v:
        return ConjugacyChain("", False, (u, v), 0)
    uv, vu = u + v, v + u
    if uv == vu:
        root, _ = primitive_root(u)
        return ConjugacyChain(root, True, (u + root, v + root), 0)
    # uv and vu differ and have one length: read as big-endian integers, their
    # xor's top set bit lies in the first letter they differ at, its lowest
    # set bit in the last ('0' and '1' differ in bit 0 of a byte)
    diff = int.from_bytes(uv.encode(), "big") ^ int.from_bytes(vu.encode(), "big")
    p = uv[: len(uv) - (diff.bit_length() + 7) // 8]
    s = uv[len(uv) - ((diff & -diff).bit_length() - 1) // 8 :]
    su = s + u + p
    return ConjugacyChain(su[: len(s) + len(p)], False, (su, s + v + p), len(p))


@dataclass(frozen=True)
class FrequencyVector:
    """Letter frequencies of the fixed point; exact fractions when the
    dominant eigenvalue is rational, floats (1e-12 internal tolerance)
    otherwise."""

    rho0: Fraction | float
    rho1: Fraction | float

    def as_floats(self) -> tuple[float, float]:
        return float(self.rho0), float(self.rho1)


def letter_frequencies(m: Morphism) -> FrequencyVector:
    """Normalized dominant eigenvector of the incidence matrix (2x2 closed form)."""
    if not is_primitive(m):
        raise NotPrimitive(f"{format_morphism(m)} is not primitive")
    (a, b), (c, d) = incidence(m)
    disc = (a - d) * (a - d) + 4 * b * c
    s = isqrt(disc)
    if s * s == disc:
        lam = Fraction(a + d + s, 2)
        v0: Fraction | float = Fraction(b)
        v1 = lam - a
    else:
        lam = (a + d + sqrt(disc)) / 2.0
        v0 = float(b)
        v1 = lam - a
    total = v0 + v1
    return FrequencyVector(v0 / total, v1 / total)
