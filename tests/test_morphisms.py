import math
import random
from fractions import Fraction

import pytest

from antipal import ParseError, morphisms
from antipal.cli import scan_space
from antipal.errors import NotPrimitive, NotProlongable, PreconditionViolated
from antipal.morphisms import (
    Morphism,
    apply,
    compose,
    conjugacy_chain,
    fixed_point_prefix,
    fixed_point_source,
    format_morphism,
    incidence,
    is_primitive,
    is_uniform,
    letter_frequencies,
    parse_morphism,
    prolongable_letters,
    square,
)
from bruteforce import (
    bf_conjugacy_chain,
    bf_factor_set,
    bf_fixed_point_letters,
    bf_fixed_point_prefix,
    bf_prolongable_letters,
    words_up_to,
)

FIB = Morphism("01", "0")
THETA = Morphism("01", "10")


def test_parse_and_format():
    assert parse_morphism("0->01,1->0") == FIB
    assert parse_morphism(" 0 -> 01 , 1 -> 0 ") == FIB
    assert parse_morphism("0->eps,1->0") == Morphism("", "0")
    assert parse_morphism("0->,1->0") == Morphism("", "0")
    assert format_morphism(FIB) == "0->01,1->0"
    for bad in ("0->01", "1->0,0->1", "0->02,1->0", "0->,1->"):
        with pytest.raises(ParseError):
            parse_morphism(bad)


def test_apply_examples():
    assert apply(FIB, "0") == "01"
    assert apply(THETA, "01") == "0110"
    assert apply(FIB, "") == ""


def test_apply_respects_concatenation():
    rng = random.Random(31)
    for _ in range(100):
        m = Morphism(
            "".join(rng.choice("01") for _ in range(rng.randrange(1, 5))),
            "".join(rng.choice("01") for _ in range(rng.randrange(1, 5))),
        )
        u = "".join(rng.choice("01") for _ in range(rng.randrange(15)))
        v = "".join(rng.choice("01") for _ in range(rng.randrange(15)))
        assert apply(m, u + v) == apply(m, u) + apply(m, v)


def test_compose_square():
    assert square(THETA) == Morphism("0110", "1001")
    assert square(FIB) == Morphism("010", "01")
    ident = Morphism("0", "1")
    assert compose(ident, FIB) == FIB


def test_incidence_primitive():
    assert incidence(THETA) == ((1, 1), (1, 1))
    assert is_primitive(THETA)
    assert incidence(FIB) == ((1, 1), (1, 0))
    assert is_primitive(FIB)
    assert not is_primitive(Morphism("0", "1"))
    assert not is_primitive(Morphism("00", "11"))


def test_incidence_column_sums_are_image_lengths():
    rng = random.Random(33)
    for _ in range(50):
        m = Morphism(
            "".join(rng.choice("01") for _ in range(rng.randrange(1, 7))),
            "".join(rng.choice("01") for _ in range(rng.randrange(1, 7))),
        )
        mat = incidence(m)
        assert mat[0][0] + mat[1][0] == len(m.image0)
        assert mat[0][1] + mat[1][1] == len(m.image1)


def test_uniform():
    assert is_uniform(THETA)
    assert not is_uniform(FIB)
    assert is_uniform(Morphism("0101", "1100"))


def test_prolongable_letters():
    assert prolongable_letters(FIB) == frozenset("0")
    assert prolongable_letters(THETA) == frozenset("01")
    assert prolongable_letters(Morphism("10", "01")) == frozenset()
    # image tail that dies out is not prolongable: 0 -> 01 but 1 -> eps
    assert prolongable_letters(Morphism("01", "")) == frozenset()


def test_prolongable_letters_match_the_mortality_loop():
    """The closed form against the fixpoint of mortal letters on every image
    pair of at most 5 letters, an empty image included."""
    checked = 0
    for i0 in words_up_to(5):
        for i1 in words_up_to(5):
            if i0 or i1:
                assert prolongable_letters(Morphism(i0, i1)) == bf_prolongable_letters(i0, i1), (i0, i1)
                checked += 1
    assert checked == 3968


def test_fixed_point_prefix_known_words():
    assert fixed_point_prefix(FIB, "0", 18) == "010010100100101001"
    assert fixed_point_prefix(THETA, "0", 16) == "0110100110010110"
    assert fixed_point_prefix(THETA, "1", 8) == "10010110"
    assert fixed_point_prefix(FIB, "0", 1) == "0"
    with pytest.raises(NotProlongable):
        fixed_point_prefix(FIB, "1", 5)


def test_fixed_point_prefix_extension_consistent():
    for m in (FIB, THETA, Morphism("011", "01"), Morphism("01", "1")):
        for letter in prolongable_letters(m):
            long = fixed_point_prefix(m, letter, 500)
            for n in (1, 7, 100, 499):
                assert fixed_point_prefix(m, letter, n) == long[:n]
            assert apply(m, long)[:500] == long  # genuinely fixed


def _scan_fixed_points(max_image_len):
    """Every (host, letter) that fixed_point_source reads on the scan space, for any seed letter."""
    pairs = set()
    for text in scan_space(max_image_len):
        m = parse_morphism(text)
        for letter in (None, "0", "1"):
            try:
                source = fixed_point_source(m, letter)
            except PreconditionViolated:
                continue
            if source is not None:
                pairs.add(source[1:])
    return sorted(pairs, key=str)


def test_fixed_point_prefix_matches_bruteforce_on_the_scan_space():
    pairs = _scan_fixed_points(4)
    assert any(host != square(host) and len(host.image0) > 4 for host, _ in pairs)  # square hosts
    # a tail the morphism fixes, and an erasing morphism the space lacks
    assert (Morphism("0", "10"), "1") in pairs
    pairs += [(Morphism("01", "1"), "0"), (Morphism("0101", ""), "0")]
    for host, letter in pairs:
        long = bf_fixed_point_letters(host.image0, host.image1, letter, 100_000)
        assert long[:1000] == bf_fixed_point_prefix(host.image0, host.image1, letter, 1000), (host, letter)
        for n in (0, 1, 2, 7, 1000, 100_000):
            assert fixed_point_prefix(host, letter, n) == long[:n], (host, letter, n)


def test_fixed_point_prefix_builds_fewer_than_2n_letters_plus_one_image(monkeypatch):
    """Every letter the builder makes, power images included, comes from
    one join helper; together they are fewer than 2n plus the longest image
    it used, so no step rebuilds the whole prefix.  Only a tail of one
    letter has a closed form, so on any other the joins must have made the
    100000 letters returned: the helper is read, not bypassed."""
    made = []
    build = morphisms._image

    def counting_image(images, w):
        image = build(images, w)
        made.append((len(image), max(map(len, images.values()))))
        return image

    monkeypatch.setattr(morphisms, "_image", counting_image)
    pairs = _scan_fixed_points(4) + [(Morphism("01", "1"), "0"), (Morphism("0101", ""), "0")]
    for host, letter in pairs:
        closed_form = len(set(host.image(letter)[1:])) == 1
        for n in (1, 2, 7, 1000, 25_000, 100_000):
            made.clear()
            assert len(fixed_point_prefix(host, letter, n)) == n
            letters = sum(size for size, _ in made)
            longest = max((size for _, size in made), default=0)
            assert letters < 2 * n + longest, (host, letter, n, letters, longest)
        assert closed_form or letters >= n, (host, letter)


def test_conjugacy_chain_worked_example():
    # 0->01001,1->01 rolls out to extremes 0->01010,1->10 / 0->01010,1->01
    chain = conjugacy_chain(Morphism("01001", "01"))
    assert not chain.cyclic
    assert chain.leftmost == Morphism("01010", "10")
    assert chain.rightmost == Morphism("01010", "01")
    assert chain.q_full == "01010"
    assert len(chain.chain) == len(chain.q_full) + 1
    assert Morphism("01001", "01") in chain.chain


def test_conjugacy_chain_trivial_and_cyclic():
    chain = conjugacy_chain(THETA)
    assert chain.chain == (THETA,)
    assert chain.q_full == ""
    cyc = conjugacy_chain(Morphism("01", "01"))
    assert cyc.cyclic
    assert set(cyc.chain) == {Morphism("01", "01"), Morphism("10", "10")}
    assert cyc.q_full == "01"


def test_chain_satisfies_conjugacy_relation():
    rng = random.Random(32)
    samples = [Morphism("01001", "01"), FIB, Morphism("0010", "0100"), Morphism("001", "0")]
    for _ in range(40):
        samples.append(
            Morphism(
                "".join(rng.choice("01") for _ in range(rng.randrange(1, 6))),
                "".join(rng.choice("01") for _ in range(rng.randrange(1, 6))),
            )
        )
    for m in samples:
        chain = conjugacy_chain(m)
        if chain.cyclic:
            continue
        assert m in chain.chain
        left = chain.leftmost
        # extremes start/end with distinct letters (marked morphism shape)
        if left.image0 and left.image1:
            assert left.image0[0] != left.image1[0]
            assert chain.rightmost.image0[-1] != chain.rightmost.image1[-1]
        for elem, q in zip(chain.chain, _conjugacy_words(chain)):
            for a in "01":
                assert q + apply(left, a) == apply(elem, a) + q
        if is_primitive(m):
            assert all(is_primitive(e) for e in chain.chain)


def test_chain_elements_share_factors():
    # conjugates with fixed points generate the same language
    chain = conjugacy_chain(Morphism("01001", "01"))
    seen = None
    for elem in chain.chain:
        letters = prolongable_letters(elem)
        if not letters:
            continue
        prefix = fixed_point_prefix(elem, sorted(letters)[0], 4000)
        factors = frozenset(
            frozenset(bf_factor_set(prefix, n)) for n in range(1, 13)
        )
        if seen is None:
            seen = factors
        else:
            assert factors == seen


def test_chain_conjugacy_words_link_every_element_to_the_leftmost():
    # q + leftmost(a) == chain[i](a) + q for both letters, q the last i
    # letters of q_full, on every non-cyclic morphism with images of at
    # most 4 letters (empty ones too)
    checked = 0
    for i0 in words_up_to(4):
        for i1 in words_up_to(4):
            if not i0 and not i1:
                continue
            chain = conjugacy_chain(Morphism(i0, i1))
            if chain.cyclic:
                continue
            checked += 1
            assert len(chain.q_full) == len(chain.chain) - 1
            for elem, q in zip(chain.chain, _conjugacy_words(chain), strict=True):
                for a in "01":
                    assert q + chain.leftmost.image(a) == elem.image(a) + q, (i0, i1, q)
    assert checked == 902


def test_letter_frequencies():
    assert letter_frequencies(THETA) == type(letter_frequencies(THETA))(
        Fraction(1, 2), Fraction(1, 2)
    )
    rho0, rho1 = letter_frequencies(FIB).as_floats()
    tau = (1 + math.sqrt(5)) / 2
    assert abs(rho0 - 1 / tau) < 1e-9
    assert abs(rho0 + rho1 - 1) < 1e-12
    with pytest.raises(NotPrimitive):
        letter_frequencies(Morphism("00", "11"))


def test_letter_frequencies_match_counts():
    for m in (FIB, THETA, Morphism("001", "01"), Morphism("0110", "1001")):
        letter = sorted(prolongable_letters(m))[0]
        prefix = fixed_point_prefix(m, letter, 100000)
        rho0 = letter_frequencies(m).as_floats()[0]
        assert abs(prefix.count("0") / len(prefix) - rho0) < 2e-3


def test_exhaustive_small_chains_terminate():
    for i0 in words_up_to(4, include_empty=False):
        for i1 in words_up_to(4, include_empty=False):
            chain = conjugacy_chain(Morphism(i0, i1))
            if not chain.cyclic:
                assert len(chain.chain) == len(chain.q_full) + 1


def _conjugacy_words(chain):
    """Element i's conjugacy word: the last i letters of ``q_full``, none on a cyclic chain."""
    if chain.cyclic:
        return ()
    return tuple(chain.q_full[len(chain.q_full) - i :] for i in range(len(chain.chain)))


def _as_walk(chain):
    pairs = tuple((e.image0, e.image1) for e in chain.chain)
    return pairs, _conjugacy_words(chain), chain.q_full, chain.cyclic


def _long_image_sample(rng):
    def word(lo, hi):
        return "".join(rng.choice("01") for _ in range(rng.randint(lo, hi)))

    for _ in range(1500):
        yield word(1, 40), word(1, 40)
    for _ in range(1500):  # forced shared borders: long common prefixes and suffixes
        pre, post = word(0, 10), word(0, 10)
        yield pre + word(0, 20) + post, pre + word(0, 20) + post
    for _ in range(500):  # commuting images, and the same with one letter flipped
        root = word(1, 6)
        u, v = root * rng.randint(1, 7), root * rng.randint(1, 7)
        yield u, v
        i = rng.randrange(len(v))
        yield u, v[:i] + ("1" if v[i] == "0" else "0") + v[i + 1 :]
    for k in range(1, 31):
        yield "0" + "110" * k, "1"


def test_conjugacy_chain_matches_walk():
    """The closed-form chain equals the letter-by-letter walk: every image
    pair of at most 5 letters (one may be empty), the square of each that
    has a nonempty image, and a seeded sample of long images with the
    squares of the short ones and of the 0->0(110)^k family.  The extremes
    and the queried morphism's index, read without building the chain,
    agree with the built chain."""
    morphisms = [Morphism(i0, i1) for i0 in words_up_to(5) for i1 in words_up_to(5) if i0 or i1]
    squares = [square(m) for m in morphisms if apply(m, m.image0) or apply(m, m.image1)]
    long_images = [Morphism(u, v) for u, v in _long_image_sample(random.Random(2024))]
    long_images += [square(m) for m in long_images if len(m.image0) + len(m.image1) <= 12 or m.image1 == "1"]
    assert len(morphisms) == 3968 and len(squares) == 3958 and len(long_images) > 4030
    cyclic = 0
    for m in morphisms + squares + long_images:
        chain = conjugacy_chain(m)
        assert _as_walk(chain) == bf_conjugacy_chain(m.image0, m.image1), str(m)
        assert (chain.leftmost, chain.rightmost) == (chain.chain[0], chain.chain[-1]), str(m)
        assert chain.chain[chain._own] == m, str(m)
        cyclic += chain.cyclic
    assert cyclic > 500
