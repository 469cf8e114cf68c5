"""Membership deciders for the four morphism classes, with witnesses.

The four shapes of interest, each witnessed by its defining
decomposition:

* class P:   both images are a common palindromic prefix followed by a
  palindrome.  Generating such a morphism (or a conjugate of one, or of
  its square) is exactly what makes a primitive binary fixed point
  palindromic.
* class EP:  the same shape with antipalindromes throughout.
* class A1:  uniform morphisms  0 -> head+suffix, 1 -> E(head)+suffix
  with an antipalindromic suffix; their fixed points contain unboundedly
  long antipalindromes.
* class A2:  both images are doubling-morphism codes built from one core
  word:  0 -> T(core (R(core) core)^k),  1 -> T((R(core) core)^h R(core))
  where T is 0->01,1->10.  Generally non-uniform, same conclusion.

``classify`` assembles the deciders over the conjugacy chain of a
morphism and of its square, settles the palindromic and antipalindromic
character of the fixed point where the theory is decisive, and falls
back to two-scale empirical evidence otherwise.  On a chain that is not
cyclic, P, EP and A1 are read off the chain's two ends in closed form
(``_symmetric``); only cyclic chains, and A2 on even image lengths, are
searched element by element.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from os.path import commonprefix
from typing import Callable, ClassVar, get_args

from .equations import alternations, decompose_two_antipalindromes, decompose_two_palindromes
from .errors import NotInThetaImage, PreconditionViolated
from .morphisms import (
    ConjugacyChain,
    Morphism,
    apply,
    conjugacy_chain,
    fixed_point_prefix,
    fixed_point_source,
    format_morphism,
    is_primitive,
    is_uniform,
    square,
)
from .words import (
    _MAX_LEN,
    Word,
    exchange,
    is_antipalindrome,
    is_palindrome,
    longest_antipalindrome,
    reverse,
    smallest_period,
    theta_apply,
    theta_decode,
)


class _Witness:
    """A class witness; its record is its kind followed by its fields."""

    kind: ClassVar[str]

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class _SplitWitness(_Witness):
    """image_a == prefix + tail_a with all three parts fixed by ``mirror``."""

    mirror: ClassVar[Callable[[Word], bool]]
    prefix: Word
    tail0: Word
    tail1: Word

    def build(self) -> Morphism:
        return Morphism(self.prefix + self.tail0, self.prefix + self.tail1)

    def is_valid(self) -> bool:
        return all(self.mirror(w) for w in (self.prefix, self.tail0, self.tail1))


class PWitness(_SplitWitness):
    """image_a == prefix + tail_a with all three parts palindromes."""

    kind = "p"
    mirror = staticmethod(is_palindrome)


class EPWitness(_SplitWitness):
    """image_a == prefix + tail_a with all three parts antipalindromes."""

    kind = "ep"
    mirror = staticmethod(is_antipalindrome)


@dataclass(frozen=True)
class A1Witness(_Witness):
    """image0 == head + suffix, image1 == exchange(head) + suffix."""

    kind = "a1"
    head: Word
    suffix: Word

    def build(self) -> Morphism:
        return Morphism(self.head + self.suffix, exchange(self.head) + self.suffix)

    def is_valid(self) -> bool:
        return bool(self.head) and is_antipalindrome(self.suffix)


@dataclass(frozen=True)
class A2Witness(_Witness):
    """Both images are doubling codes of core/reversed-core alternations."""

    kind = "a2"
    core: Word
    k: int
    h: int

    def build(self) -> Morphism:
        r = reverse(self.core)
        return Morphism(
            theta_apply(self.core + (r + self.core) * self.k),
            theta_apply((r + self.core) * self.h + r),
        )

    def is_valid(self) -> bool:
        return bool(self.core) and self.k >= 0 and self.h >= 0


Witness = PWitness | EPWitness | A1Witness | A2Witness


def witness_from_dict(d: dict) -> Witness:
    cls = {w.kind: w for w in get_args(Witness)}.get(d.get("kind"))
    if cls is None:
        raise ValueError(f"unknown witness kind {d.get('kind')!r}")
    return cls(*(d[f.name] for f in fields(cls)))


def _splits(x0: Word, x1: Word, mirror):
    """Every split x_a == common + rest_a with all three parts fixed by
    ``mirror``, as (common, rest0, rest1), longest common prefix first."""
    for plen in range(len(commonprefix([x0, x1])), -1, -1):
        common, rest0, rest1 = x0[:plen], x0[plen:], x1[plen:]
        if mirror(common) and mirror(rest0) and mirror(rest1):
            yield common, rest0, rest1


def p_witnesses(m: Morphism) -> tuple[PWitness, ...]:
    """All class-P witnesses, longest common prefix first."""
    return tuple(PWitness(*parts) for parts in _splits(m.image0, m.image1, PWitness.mirror))


def ep_witnesses(m: Morphism) -> tuple[EPWitness, ...]:
    """All class-EP witnesses, longest common prefix first."""
    return tuple(EPWitness(*parts) for parts in _splits(m.image0, m.image1, EPWitness.mirror))


@dataclass(frozen=True)
class EPSuffixWitness:
    """image_a == body_a + suffix with all three parts antipalindromes."""

    body0: Word
    body1: Word
    suffix: Word

    def build(self) -> Morphism:
        return Morphism(self.body0 + self.suffix, self.body1 + self.suffix)

    def is_valid(self) -> bool:
        return all(is_antipalindrome(w) for w in (self.body0, self.body1, self.suffix))


def ep_suffix_witnesses(m: Morphism) -> tuple[EPSuffixWitness, ...]:
    """The mirror-image decomposition: a common antipalindromic suffix.

    Composing a uniform head/suffix morphism with the doubling morphism
    lands in this shape (not the common-prefix one); a suffix-shape
    member is the left conjugate of a prefix-shape member by the shared
    part, so the two shapes agree up to conjugacy.

    Reversal fixes palindromes and antipalindromes alike, so the
    common-prefix splits of the reversed images are the suffix splits.
    """
    return tuple(
        EPSuffixWitness(reverse(rest0), reverse(rest1), reverse(common))
        for common, rest0, rest1 in _splits(reverse(m.image0), reverse(m.image1), is_antipalindrome)
    )


def a1_witnesses(m: Morphism) -> tuple[A1Witness, ...]:
    """All class-A1 witnesses, longest antipalindromic suffix first."""
    if not is_uniform(m) or not m.image0:
        return ()
    n = len(m.image0)
    out = []
    for slen in range(n - 1, -1, -1):
        head, suffix = m.image0[: n - slen], m.image0[n - slen :]
        if not is_antipalindrome(suffix):
            continue
        if m.image1 == exchange(head) + suffix:
            out.append(A1Witness(head, suffix))
    return tuple(out)


def a2_witnesses(m: Morphism) -> tuple[A2Witness, ...]:
    """All class-A2 witnesses, shortest core first."""
    try:
        u0 = theta_decode(m.image0)
        u1 = theta_decode(m.image1)
    except NotInThetaImage:
        return ()
    return tuple(A2Witness(*s) for s in alternations(u0, u1, reverse))


# The order-reversing map on image pairs that ``_symmetric`` tests for each
# class: sigma_R, sigma_E and sigma_S.
_SIGMA = {
    PWitness: lambda u, v: (reverse(u), reverse(v)),
    EPWitness: lambda u, v: (exchange(u), exchange(v)),
    A1Witness: lambda u, v: (exchange(v), exchange(u)),
}


def _symmetric(chain: ConjugacyChain, sigma) -> bool:
    """Whether ``sigma`` maps the rightmost element of a chain to its leftmost.

    sigma is one of three order-reversing maps on morphisms: sigma_R
    reverses both images, sigma_E applies E to both, and sigma_S maps
    (u, v) to (E(v), E(u)).  If phi' is phi rolled by one letter x
    (phi(a) = x w_a, phi'(a) = w_a x), then sigma(phi) is sigma(phi')
    rolled by one letter, so sigma maps a chain onto a chain in reverse
    order.  That chain is this one exactly when the test holds, and then
    element i goes to element k - i, the chain having k + 1 elements.

    Rolling the first letter of both images to their ends moves element i
    to element i - 1.  Write c = 2i - k.

    * P (sigma_R): a witness (p w_0, p w_1) at element i, |p| = c', rolls
      c' letters to (w_0 p, w_1 p), its sigma_R-image; so the test holds
      and c' = c.  Conversely, if the test holds and c is in
      [0, min image length], element i is (p y_0, p y_1) with |p| = c and
      element i - c = k - i is (y_0 p, y_1 p) = (R(y_0) R(p), R(y_1) R(p)),
      so p, y_0 and y_1 are palindromes: exactly one witness, at the cut c.
    * EP (sigma_E): the same with E; an antipalindrome has even length,
      so c must be even.
    * A1 (sigma_S): rolling the other way, a witness (h t, E(h) t) at
      element i with |t| = -c rolls to (t h, t E(h)), its sigma_S-image
      exactly when E(t) = t.  Conversely, if the test holds, the element is
      (y_0 t, y_1 t) with |t| = -c in [0, n - 1] and (t y_0, t y_1) =
      (E(t) E(y_1), E(t) E(y_0)) makes t an antipalindrome, |y_0| = |y_1|
      (the element is uniform) and y_1 = E(y_0).

    So when the test fails no element has a witness of the class, and when
    it holds element i has one exactly when its cut is in range.  If k is
    even, sigma fixes element k/2 (cut 0): both images are palindromes,
    both are antipalindromes, or the element is self-dual.  Under sigma_E
    and sigma_S, k is even: at an odd k the two middle elements x w_a and
    w_a x would give x = E(x).  A cyclic chain has no extremes.  The test
    compares the images cut from the chain's two end windows and builds no
    element.
    """
    left, right = chain._ends
    return sigma(*right) == left


def _witness_at_cut(kind, images: tuple[Word, Word], cut: int) -> Witness | None:
    """The witness of class ``kind`` that the element of a chain on which
    ``_symmetric`` holds with these images has at the cut 2i - k, if any
    (see there)."""
    x0, x1 = images
    n0, n1 = len(x0), len(x1)
    if kind is A1Witness:
        if n0 == n1 and 1 - n0 <= cut <= 0:
            return A1Witness(x0[: n0 + cut], x0[n0 + cut :])
    elif 0 <= cut <= min(n0, n1) and (kind is PWitness or cut % 2 == 0):
        return kind(x0[:cut], x0[cut:], x1[cut:])
    return None


@dataclass(frozen=True)
class Hit:
    """Where a class membership was found around a morphism.

    ``where`` is one of direct / conjugate / square / square-conjugate;
    for chain hits ``chain_index`` points into the conjugacy chain and
    ``q`` is that element's conjugacy word against the leftmost element
    (None on the rotation cycle of a cyclic morphism).
    """

    where: str
    witness: Witness
    chain_index: int | None = None
    q: Word | None = None


@dataclass(frozen=True)
class ClassMembership:
    direct: Witness | None
    conjugate: Hit | None
    square: Witness | None
    square_conjugate: Hit | None

    @property
    def any_hit(self) -> bool:
        return self.first_hit() is not None

    def first_hit(self) -> Hit | None:
        if self.direct is not None:
            return Hit("direct", self.direct)
        if self.conjugate is not None:
            return self.conjugate
        if self.square is not None:
            return Hit("square", self.square)
        return self.square_conjugate

    @property
    def witness(self) -> Witness | None:
        hit = self.first_hit()
        return hit.witness if hit else None

    def to_dict(self) -> dict:
        def hit_dict(hit):
            if hit is None:
                return None
            return {
                "index": hit.chain_index,
                "q": hit.q,
                "witness": hit.witness.to_dict(),
            }

        return {
            "direct": self.direct is not None,
            "conjugate": hit_dict(self.conjugate),
            "square": self.square is not None,
            "square_conjugate": hit_dict(self.square_conjugate),
            "witness": self.witness.to_dict() if self.witness else None,
        }


def _chain_walk(kind, enumerate_witnesses, m: Morphism, chain: ConjugacyChain, where: str) -> tuple:
    """The first witness of m and the ``Hit`` at the first element of m's
    chain that has a witness of class ``kind``.

    m is in its own chain, at index |p| (see ``conjugacy_chain``) when the
    chain is not cyclic and at index 0 when it is cyclic or an image is
    empty.  A cyclic chain is searched element by element.  On any other
    chain P, EP and A1 are settled by ``_symmetric`` with no search: the
    first element with a witness is the least i whose cut 2i - k is in
    range, (k + 1) // 2 for P and EP and the least i with k - 2i <= n - 1
    for A1, n the image length, and only m's images and that element's,
    cut from the chain's windows, are read.  Every element has m's image
    lengths and ``theta_decode`` takes no odd length, so A2 is searched
    only when both are even.
    """
    if kind is A2Witness and (len(m.image0) % 2 or len(m.image1) % 2):
        return None, None
    if chain.cyclic or kind is A2Witness:
        found = [enumerate_witnesses(element) for element in chain.chain]
        own = next(iter(found[chain._own]), None)
        first = next((index for index, ws in enumerate(found) if ws), None)
        witness = None if first is None else found[first][0]
    elif _symmetric(chain, _SIGMA[kind]):
        k = len(chain.q_full)
        first = max(0, (k - len(m.image0) + 2) // 2) if kind is A1Witness else (k + 1) // 2
        own = _witness_at_cut(kind, (m.image0, m.image1), 2 * chain._own - k)
        witness = _witness_at_cut(kind, chain._pair(first), 2 * first - k)
    else:
        return None, None
    if witness is None:
        return own, None
    q = None if chain.cyclic else chain.q_full[len(chain.q_full) - first :]
    return own, Hit(where, witness, chain_index=first, q=q)


def _membership(kind, enumerate_witnesses, m, chain, m2, chain2) -> ClassMembership:
    """One walk over the chain of m and one over that of its square m2."""
    direct, conjugate = _chain_walk(kind, enumerate_witnesses, m, chain, "conjugate")
    on_square, square_conjugate = _chain_walk(kind, enumerate_witnesses, m2, chain2, "square-conjugate")
    return ClassMembership(direct, conjugate, on_square, square_conjugate)


# The second evidence prefix is this many times as long as the first.
_SCALE = 4


@dataclass(frozen=True)
class EvidenceConfig:
    """Parameters for the two-scale antipalindrome evidence."""

    prefix_len: int = 25_000
    seed_letter: str | None = None

    def __post_init__(self):
        if self.prefix_len < 1:
            raise PreconditionViolated(f"prefix length must be at least 1, got {self.prefix_len}")
        if self.big_len >= _MAX_LEN:
            raise PreconditionViolated(
                f"the evidence prefix must be shorter than {_MAX_LEN} letters, got {_SCALE} * {self.prefix_len}"
            )

    @property
    def big_len(self) -> int:
        """Length of the second, longer evidence prefix."""
        return _SCALE * self.prefix_len


@dataclass(frozen=True)
class Evidence:
    """Longest antipalindromic factor length at two prefix scales."""

    prefix_len: int
    a_small: int
    big_len: int
    a_big: int
    source: str
    letter: str

    @property
    def growing(self) -> bool:
        return self.a_big > self.a_small


@dataclass(frozen=True)
class ClassificationReport:
    morphism: Morphism
    primitive: bool
    uniform: bool
    cyclic: bool
    periodicity: str
    class_p: ClassMembership
    class_ep: ClassMembership
    class_a1: ClassMembership
    class_a2: ClassMembership
    palindromic_status: str
    palindromic_basis: str
    antipal_verdict: str
    antipal_basis: str
    evidence: Evidence | None
    counterexample_candidate: bool
    chain: ConjugacyChain = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "morphism": format_morphism(self.morphism),
            "flags": {
                "primitive": self.primitive,
                "uniform": self.uniform,
                "cyclic": self.cyclic,
                "periodicity": self.periodicity,
            },
            "class_p": self.class_p.to_dict(),
            "class_ep": self.class_ep.to_dict(),
            "class_a1": self.class_a1.to_dict(),
            "class_a2": self.class_a2.to_dict(),
            "palindromic": {
                "status": self.palindromic_status,
                "basis": self.palindromic_basis,
            },
            "antipalindromic": {
                "verdict": self.antipal_verdict,
                "basis": self.antipal_basis,
                "evidence": asdict(self.evidence) if self.evidence else None,
            },
            "counterexample_candidate": self.counterexample_candidate,
        }


def _period_split(period: Word, decompose, parts: str, yes: str, no: str) -> tuple[str, str]:
    """Status and basis from whether the period word splits into two ``parts``."""
    if decompose(period):
        return yes, f"periodic: the period word splits into two {parts}"
    return no, f"periodic: the period word does not split into two {parts}"


def _empirical(evidence: Evidence) -> tuple[str, str]:
    verdict = "empirical-growing" if evidence.growing else "empirical-bounded"
    return verdict, "two-scale longest-antipalindrome evidence"


def classify(m: Morphism, cfg: EvidenceConfig = EvidenceConfig()) -> ClassificationReport:
    """Full classification with a settled or empirical antipalindromicity verdict.

    One cascade sets the palindromic status and the verdict, each with
    its basis.  Its rungs, in code order:

    1. a proven period: both by whether it splits into two palindromes
       and into two antipalindromes;
    2. no prolongable letter on the morphism or its square: status
       unknown, verdict not applicable;
    3. not primitive: status unknown, verdict empirical (the longest
       antipalindromic factor at two prefix scales, compared);
    4. primitive: status by the mirror test; only finitely many
       antipalindromic factors when uniform or palindromic with an
       (empirically) aperiodic fixed point, else empirical.
    Then a class A1 (primitive only) or A2 hit on the morphism, its
    square or a conjugate of either overrides the verdict: it proves
    unboundedly long antipalindromes.

    A record is a counterexample candidate when the evidence keeps
    growing but no class membership explains it.
    """
    chain = conjugacy_chain(m)
    m2 = square(m)
    chain2 = conjugacy_chain(m2)

    class_p = _membership(PWitness, p_witnesses, m, chain, m2, chain2)
    class_ep = _membership(EPWitness, ep_witnesses, m, chain, m2, chain2)
    class_a1 = _membership(A1Witness, a1_witnesses, m, chain, m2, chain2)
    class_a2 = _membership(A2Witness, a2_witnesses, m, chain, m2, chain2)

    primitive = is_primitive(m)
    uniform = is_uniform(m)
    source = fixed_point_source(m, cfg.seed_letter, m2)

    evidence = prefix = None
    if source is not None:
        tag, host, letter = source
        big = fixed_point_prefix(host, letter, cfg.big_len)
        prefix = big[: cfg.prefix_len]
        evidence = Evidence(
            prefix_len=cfg.prefix_len,
            a_small=longest_antipalindrome(prefix),
            big_len=cfg.big_len,
            a_big=longest_antipalindrome(big),
            source=tag,
            letter=letter,
        )

    # A prefix that is a power of r only suggests periodicity; the proof
    # is that r**inf is itself fixed by the host, i.e. r**inf ==
    # host(r)**inf, which holds exactly when r and host(r) commute
    # (Lyndon-Schutzenberger).  host(r) is nonempty because r starts with
    # a prolongable letter, and the fixed point starting with that letter
    # is unique, so the analyzed word is then exactly r**inf.
    proven_period = None
    if chain.cyclic:
        periodicity = "periodic-proven"
        proven_period = chain.q_full
    elif source is None:
        periodicity = "no-fixed-point"
    elif (p := smallest_period(prefix, len(prefix) // 4)) is None:
        periodicity = "aperiodic-likely"
    else:
        r = prefix[:p]
        image = apply(host, r)
        if r + image == image + r:
            periodicity = "periodic-proven"
            proven_period = r
        else:
            periodicity = "periodic-likely"

    if proven_period is not None:
        palindromic_status, palindromic_basis = _period_split(
            proven_period, decompose_two_palindromes, "palindromes", "proven", "proven-absent"
        )
        verdict, basis = _period_split(
            proven_period, decompose_two_antipalindromes, "antipalindromes", "proven-infinite", "proven-finite"
        )
    elif source is None:
        verdict, basis = "not-applicable", "no prolongable letter on the morphism or its square"
        palindromic_status, palindromic_basis = "unknown", basis
    elif not primitive:
        palindromic_status, palindromic_basis = "unknown", "morphism is not primitive"
        verdict, basis = _empirical(evidence)
    else:
        # m is not cyclic here, so neither is its square: an empty image
        # stays empty, and noncommuting nonempty images make m injective.
        # On a chain that is not cyclic the mirror test (sigma_R) holds
        # exactly when the class-P walk hits.
        palindromic = class_p.conjugate is not None or class_p.square_conjugate is not None
        palindromic_status = "proven" if palindromic else "proven-absent"
        palindromic_basis = "mirror test on the extreme conjugates of the morphism or its square"
        if periodicity == "aperiodic-likely" and (uniform or palindromic):
            verdict = "proven-finite"
            basis = (
                "uniform case: no uniform-class hit"
                if uniform
                else "non-uniform palindromic case: no doubling-class membership"
            ) + " on the morphism or its square (aperiodicity per prefix-period heuristic)"
        else:
            verdict, basis = _empirical(evidence)

    a1_hit = class_a1.first_hit() if primitive else None
    class_hit = a1_hit or class_a2.first_hit()

    if class_hit is not None:
        verdict = "proven-infinite"
        basis = f"class {'A1' if a1_hit else 'A2'} membership ({class_hit.where})"

    # A counterexample must sit inside the conjecture's hypothesis, which
    # speaks about primitive morphisms; non-primitive growing cases (for
    # example (0,101), whose fixed point is the periodic word (10)^inf)
    # are not counterexamples to anything.
    candidate = verdict == "empirical-growing" and primitive

    return ClassificationReport(
        morphism=m,
        primitive=primitive,
        uniform=uniform,
        cyclic=chain.cyclic,
        periodicity=periodicity,
        class_p=class_p,
        class_ep=class_ep,
        class_a1=class_a1,
        class_a2=class_a2,
        palindromic_status=palindromic_status,
        palindromic_basis=palindromic_basis,
        antipal_verdict=verdict,
        antipal_basis=basis,
        evidence=evidence,
        counterexample_candidate=candidate,
        chain=chain,
    )
