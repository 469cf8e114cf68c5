"""Binary morphisms: application, conjugation, fixed points, frequencies.

A morphism is the ordered pair of images of the letters 0 and 1.  At
least one image must be nonempty.  Values are immutable; every operation
returns new objects, so morphisms can be shared across worker processes
without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, sqrt
from os.path import commonprefix

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
    return "".join(map(m._images.__getitem__, w))


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
    (a, b), (c, d) = incidence(m)
    sq = (a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d)
    return all(entry > 0 for entry in sq)


def _immortal_letters(m: Morphism) -> set[str]:
    """Letters whose iterated images never die out."""
    mortal: set[str] = set()
    changed = True
    while changed:
        changed = False
        for letter in "01":
            if letter not in mortal and all(ch in mortal for ch in m.image(letter)):
                mortal.add(letter)
                changed = True
    return set("01") - mortal


def prolongable_letters(m: Morphism) -> frozenset[str]:
    """Letters a with image a·w, w nonempty, whose iterates grow without bound."""
    immortal = _immortal_letters(m)
    out = set()
    for letter in "01":
        img = m.image(letter)
        if len(img) >= 2 and img[0] == letter and any(ch in immortal for ch in img[1:]):
            out.add(letter)
    return frozenset(out)


# fixed_point_prefix builds blocks by the least power of the morphism whose
# image of the seed letter has _POWER_SEED_LEN letters, unless an image of
# that power would pass _POWER_MAX_LEN letters (the other letter, which the
# fixed point may not even use, can grow much faster than the seed).
_POWER_SEED_LEN = 64
_POWER_MAX_LEN = 4096


def _block_power(m: Morphism, letter: str) -> tuple[int, Morphism]:
    """(j, m^j) for the power that fixed_point_prefix builds blocks by, j >= 1."""
    (a, b), (c, d) = incidence(m)
    lengths, j = (len(m.image0), len(m.image1)), 1  # the image lengths of m^j
    while lengths[letter == "1"] < _POWER_SEED_LEN:
        longer = (a * lengths[0] + c * lengths[1], b * lengths[0] + d * lengths[1])
        if max(longer) > _POWER_MAX_LEN:
            break
        lengths, j = longer, j + 1
    power = m
    for _ in range(j - 1):
        power = compose(m, power)
    return j, power


def _head_for(m: Morphism, w: Word, need: int) -> Word:
    """The shortest head of w whose image has at least ``need`` > 0 letters, or w."""
    l0, l1 = len(m.image0), len(m.image1)

    def image_len(k: int) -> int:
        return l0 * k + (l1 - l0) * w.count("1", 0, k)

    if image_len(len(w)) <= need:
        return w
    lo, hi = 0, len(w)  # image_len(lo) < need <= image_len(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if image_len(mid) >= need:
            hi = mid
        else:
            lo = mid
    return w[:hi]


def fixed_point_prefix(m: Morphism, letter: str, n: int) -> Word:
    """Length-n prefix of the fixed point starting with a prolongable letter.

    The fixed point is letter + t + m(t) + m(m(t)) + ... with t the image
    tail.  A tail that m fixes just repeats.  Otherwise block i is m^j
    applied to block i - j, so building a block by a power m^j
    reads about n / lambda^j input letters instead of about n (lambda the
    growth rate of the blocks), and total work stays linear in n.  Of the
    last block only the head that reaches n letters is mapped, so at
    most n plus the longest image of the power used is built.
    """
    if letter not in prolongable_letters(m):
        raise NotProlongable(f"{format_morphism(m)} is not prolongable on {letter}")
    if n <= 0:
        return ""
    block = m.image(letter)[1:]
    if apply(m, block) == block:
        return (letter + block * (n // len(block) + 1))[:n]
    j, power = _block_power(m, letter)
    pieces = [letter, block]  # block i is pieces[i + 1]
    total = 1 + len(block)
    while total < n:
        source = len(pieces) - j  # the piece holding block i - j, i the next block
        host, piece = (power, pieces[source]) if source >= 1 else (m, pieces[-1])
        block = apply(host, _head_for(host, piece, n - total))
        pieces.append(block)
        total += len(block)
    return "".join(pieces)[:n]


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

    ``q_full`` links the two extremes, and the conjugacy word of
    ``chain[i]`` against the leftmost element is its last i letters,
    ``q = q_full[len(q_full) - i:]``: q + leftmost(w) == chain[i](w) + q
    for every w.  For a cyclic morphism the chain is the full rotation
    cycle starting at the queried morphism, the extremes are meaningless,
    and ``q_full`` is the primitive common root of the images (the period
    of the unique fixed point).  The class deciders of ``membership`` read
    a non-cyclic chain from its two extremes and build at most two of its
    elements' witnesses; a cyclic one they search element by element.
    """

    chain: tuple[Morphism, ...]
    q_full: Word
    cyclic: bool

    @property
    def leftmost(self) -> Morphism:
        return self.chain[0]

    @property
    def rightmost(self) -> Morphism:
        return self.chain[-1]


def conjugacy_chain(m: Morphism) -> ConjugacyChain:
    """The chain of conjugates of m, built in closed form.

    Rolling the shared first letter of both images to their ends gives a
    left conjugate.  With u, v the images and p the longest common prefix
    of uv and vu, the images after t forward rolls are ``(u+p)[t:][:|u|]``
    and ``(v+p)[t:][:|v|]``, whose first letters are ``(uv)[t]`` and
    ``(vu)[t]``; so exactly |p| forward rolls are possible, and by the
    mirror argument exactly |s| backward rolls, s the longest common
    suffix.  Element i of the chain, leftmost first, is the pair of
    windows of s+u+p and s+v+p that start at |s|+|p|-i, and its
    conjugacy word is the i letters of s+u+p just before the leftmost
    window; ``q_full`` is all |s|+|p| of them.  Images that commute
    (uv == vu) are powers of one primitive root r (Lyndon-Schutzenberger),
    so rolling only rotates them and the chain is the cycle of |r|
    rotations; an empty image blocks every roll.
    """
    u, v = m.image0, m.image1
    if not u or not v:
        return ConjugacyChain((m,), "", False)
    uv, vu = u + v, v + u
    if uv == vu:
        root, _ = primitive_root(u)
        rotations = tuple(Morphism(u[t:] + u[:t], v[t:] + v[:t]) for t in range(len(root)))
        return ConjugacyChain(rotations, root, True)
    p = commonprefix([uv, vu])
    s = commonprefix([uv[::-1], vu[::-1]])[::-1]
    su, sv, top = s + u + p, s + v + p, len(s) + len(p)
    chain = tuple(Morphism(su[j : j + len(u)], sv[j : j + len(v)]) for j in range(top, -1, -1))
    return ConjugacyChain(chain, su[:top], False)


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
