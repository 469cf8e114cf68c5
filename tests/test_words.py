import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antipal.words
from antipal import (
    EmptyWordError,
    NotInThetaImage,
    ParseError,
    PreconditionViolated,
    check_word,
    exchange,
    is_antipalindrome,
    is_palindrome,
    longest_antipalindrome,
    parse_word,
    primitive_root,
    reverse,
    smallest_period,
    theta_apply,
    theta_decode,
)
from antipal.cli import scan_space
from antipal.language import _window_keys
from antipal.membership import EvidenceConfig
from antipal.morphisms import fixed_point_prefix, fixed_point_source, parse_morphism
from antipal.words import _packed_keys
from bruteforce import (
    bf_fixed_point_prefix,
    bf_longest_antipalindrome,
    bf_manacher_longest_antipalindrome,
    bf_smallest_period,
    words_up_to,
)


def test_reverse_examples():
    assert reverse("010") == "010"
    assert reverse("01") == "10"
    assert reverse("") == ""


def test_exchange_examples():
    assert exchange("01") == "01"  # the shortest nonempty antipalindrome
    assert exchange("0") == "1"
    assert exchange("0110") == "1001"


def test_palindrome_antipalindrome_examples():
    assert is_antipalindrome("0101")
    assert not is_antipalindrome("011")  # odd length
    assert is_palindrome("") and is_antipalindrome("")


def test_only_empty_word_is_both():
    for w in words_up_to(10, include_empty=False):
        assert not (is_palindrome(w) and is_antipalindrome(w))


def test_involutions():
    rng = random.Random(11)
    for _ in range(200):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(40)))
        assert exchange(exchange(w)) == w
        assert reverse(reverse(w)) == w


def test_theta_apply():
    assert theta_apply("0") == "01"
    assert theta_apply("01") == "0110"
    assert theta_apply("") == ""


def test_theta_apply_is_a_morphism():
    rng = random.Random(12)
    for _ in range(100):
        u = "".join(rng.choice("01") for _ in range(rng.randrange(20)))
        v = "".join(rng.choice("01") for _ in range(rng.randrange(20)))
        assert theta_apply(u + v) == theta_apply(u) + theta_apply(v)
        assert len(theta_apply(u)) == 2 * len(u)


def test_theta_decode():
    assert theta_decode("0110") == "01"
    with pytest.raises(NotInThetaImage):
        theta_decode("00")
    with pytest.raises(NotInThetaImage):
        theta_decode("011")


def test_theta_round_trip():
    for w in words_up_to(8):
        assert theta_decode(theta_apply(w)) == w


def test_primitive_root():
    assert primitive_root("0101") == ("01", 2)
    assert primitive_root("011") == ("011", 1)
    assert primitive_root("101") == ("101", 1)
    with pytest.raises(EmptyWordError):
        primitive_root("")


def test_primitive_root_is_primitive():
    for w in words_up_to(10, include_empty=False):
        root, exp = primitive_root(w)
        assert root * exp == w
        n = len(root)
        for d in range(1, n):
            if n % d == 0:
                assert root[:d] * (n // d) != root


def test_smallest_period():
    assert smallest_period("01010") == 2
    assert smallest_period("0110") == 3
    assert smallest_period("0") == 1
    with pytest.raises(EmptyWordError):
        smallest_period("")


def test_bounded_period_on_all_short_words():
    for w in words_up_to(12, include_empty=False):
        p = bf_smallest_period(w)
        for bound in range(len(w) // 2 + 1):
            assert smallest_period(w, bound) == (p if p <= bound else None), (w, bound)


def test_bounded_period_on_the_evidence_prefixes():
    cfg = EvidenceConfig()
    sources = {fixed_point_source(parse_morphism(text)) for text in scan_space(4)} - {None}
    prefixes = {fixed_point_prefix(host, letter, cfg.prefix_len) for _, host, letter in sources}
    for prefix in prefixes:
        p = bf_smallest_period(prefix)
        for bound in {len(prefix) // 4, p - 1, p} & set(range(len(prefix) // 2 + 1)):
            assert smallest_period(prefix, bound) == (p if p <= bound else None), (prefix[:40], bound)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 1001, 100_000])
def test_bounded_period_worst_case(n):
    """0^(n-1) 1 has period n: every shift of the searched prefix nearly matches.

    The quadratic oracle checks the period up to 1001 letters; beyond, the
    border loop (itself checked against the oracle elsewhere) does.
    """
    w = "0" * (n - 1) + "1"
    assert (bf_smallest_period(w) if n <= 1001 else smallest_period(w)) == n
    for bound in range(n // 2 + 1) if n <= 1001 else (0, n // 4, n // 2):
        assert smallest_period(w, bound) is None


def test_bounded_period_rejects_bad_bounds():
    for w in ("0", "01", "01101", "0" * 100):
        for bound in (-1, len(w) // 2 + 1, len(w)):
            with pytest.raises(PreconditionViolated):
                smallest_period(w, bound)
    with pytest.raises(EmptyWordError):
        smallest_period("", 0)


@pytest.mark.parametrize(
    "dtype, build", [(np.uint16, _packed_keys), (np.uint64, _window_keys)], ids=["uint16", "uint64"]
)
def test_packed_keys_read_every_window(dtype, build):
    """The kernel's 16-letter keys and the factor index's 64-letter keys."""
    rng = random.Random(4096)
    text = "".join(rng.choice("01") for _ in range(4096))
    width = 8 * np.dtype(dtype).itemsize
    bits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
    keys = build(bits)
    expected = [int(text[i : i + width].ljust(width, "0"), 2) for i in range(len(text))]
    assert keys.dtype == dtype
    assert np.array_equal(keys, np.array(expected, dtype=dtype))


def test_longest_antipalindrome_matches_bruteforce():
    rng = random.Random(13)
    for w in words_up_to(9):
        assert longest_antipalindrome(w) == bf_longest_antipalindrome(w)
    for _ in range(150):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(60)))
        assert longest_antipalindrome(w) == bf_longest_antipalindrome(w), w


@st.composite
def periodic_words(draw, max_len=2000):
    """A prefix of root**inf, sometimes with one letter flipped."""
    root = draw(st.text(alphabet="01", min_size=1, max_size=12))
    n = draw(st.integers(0, max_len))
    w = (root * (n // len(root) + 1))[:n]
    if w and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        w = w[:i] + "10"[int(w[i])] + w[i + 1 :]
    return w


@st.composite
def morphic_prefixes(draw, max_len=2000):
    """A prefix of the fixed point from 0 of 0 -> 0u, 1 -> v with u, v nonempty."""
    image0 = "0" + draw(st.text(alphabet="01", min_size=1, max_size=4))
    image1 = draw(st.text(alphabet="01", min_size=1, max_size=5))
    return bf_fixed_point_prefix(image0, image1, "0", draw(st.integers(0, max_len)))


kernel_inputs = st.one_of(
    st.text(alphabet="01", max_size=3),
    st.text(alphabet="01", max_size=2000),
    periodic_words(),
    morphic_prefixes(),
    st.builds(lambda letter, n: letter * n, st.sampled_from("01"), st.integers(0, 2000)),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(kernel_inputs)
def test_longest_antipalindrome_matches_manacher(w):
    assert longest_antipalindrome(w) == bf_manacher_longest_antipalindrome(w)


EXACT_WIDTHS = [0, 1, 5, 16]


@pytest.mark.parametrize("width", EXACT_WIDTHS)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(w=kernel_inputs)
def test_longest_antipalindrome_exact_pass_at_every_width(width, w):
    """The first stage settles radii below the exact width W and hands the
    centres that reach W to the search, at every W up to 16; W = 0
    sends every 1-centre to the search."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(antipal.words, "_EXACT", width)
        assert longest_antipalindrome(w) == bf_manacher_longest_antipalindrome(w)


@pytest.mark.parametrize("width", EXACT_WIDTHS)
def test_longest_antipalindrome_exact_pass_on_short_words(monkeypatch, width):
    """All words of up to 10 letters, E(u) + u of radius up to W + 1 flush
    against either end of a few random letters, and random words of up to
    2W + 5 letters: this reaches words shorter than 2W + 2, where every
    centre is an edge centre and the minimum over the inner centres is
    empty."""
    monkeypatch.setattr(antipal.words, "_EXACT", width)
    rng = random.Random(width)

    def random_word(n):
        return "".join(rng.choice("01") for _ in range(n))

    words = list(words_up_to(10))
    for radius in range(width + 2):
        for _ in range(5):
            u = random_word(radius + 1)
            context = random_word(rng.randrange(4))
            words += [exchange(u) + u + context, context + exchange(u) + u]
    words += [random_word(n) for n in range(2 * width + 6) for _ in range(5)]
    for w in words:
        assert longest_antipalindrome(w) == bf_manacher_longest_antipalindrome(w), w


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(periodic_words(400), morphic_prefixes(400)).filter(bool), st.data())
def test_bounded_period_matches_bruteforce(w, data):
    p = bf_smallest_period(w)
    drawn = data.draw(st.integers(0, len(w) // 2))
    for bound in {0, p - 1, p, len(w) // 4, len(w) // 2, drawn} & set(range(len(w) // 2 + 1)):
        assert smallest_period(w, bound) == (p if p <= bound else None), bound


PERIODIC_PREFIXES = {
    "(01)^50000": "01" * 50_000,
    "(0011)^25000": "0011" * 25_000,
    "(0011)^25000 shifted": ("0011" * 25_001)[1:100_001],
    "(001011)^inf": ("001011" * 16_667)[:100_000],
}


def count_agree(monkeypatch):
    """Wrap the kernel's key comparison; the returned list gets, per call,
    the number of letters its keys cover."""
    agree = antipal.words._agree
    letters = []

    def counting_agree(keys, a, b, lo, hi):
        letters.append(len(a) * 16 * -(-(hi - lo) // 16))
        return agree(keys, a, b, lo, hi)

    monkeypatch.setattr(antipal.words, "_agree", counting_agree)
    return letters


@pytest.mark.parametrize("name", PERIODIC_PREFIXES)
def test_longest_antipalindrome_probe_settles_periodic_prefixes(monkeypatch, name):
    """Past one period every survivor reaches its full room, so the exact
    radius of the survivor with the most room ends the search before any
    doubling pass."""
    letters = count_agree(monkeypatch)
    w = PERIODIC_PREFIXES[name]
    assert longest_antipalindrome(w) == bf_manacher_longest_antipalindrome(w)
    assert len(letters) == 1, letters


def _flipped(w, positions):
    w = list(w)
    for i in positions:
        w[i] = "10"[int(w[i])]
    return "".join(w)


def _near_periodic_words():
    rng = random.Random(17)
    k = 25_000
    words = {
        "(01)^k 0 (01)^k": "01" * k + "0" + "01" * k,
        "(0011)^k 0 (0011)^k": "0011" * (k // 2) + "0" + "0011" * (k // 2),
        "(01)^50000 with two defects": _flipped("01" * 50_000, [30_000, 70_001]),
    }
    for i in range(6):
        # (E(u) u E(v) v)^inf is E-symmetric about the middle of every copy
        # of E(u) u and E(v) v, so its prefix has antipalindromes almost as
        # long as itself until the flips cut them.
        u, v = ("".join(rng.choice("01") for _ in range(rng.randrange(1, 6))) for _ in "uv")
        root = exchange(u) + u + exchange(v) + v
        w = (root * (100_000 // len(root) + 1))[:100_000]
        words[f"{root} with flips {i}"] = _flipped(w, rng.sample(range(len(w)), 1 + i % 3))
    return words


NEAR_PERIODIC = _near_periodic_words()


@pytest.mark.parametrize("name", NEAR_PERIODIC)
def test_longest_antipalindrome_settles_near_periodic_words(monkeypatch, name):
    """On 100k-letter words with a few defects in a periodic word most
    centres reach far; the run step settles them in closed form, so the
    keys compared cover at most 4 m log2(m) letters.  Without it they
    cover 4 to 280 times that bound on these words."""
    letters = count_agree(monkeypatch)
    w = NEAR_PERIODIC[name]
    assert longest_antipalindrome(w) == bf_manacher_longest_antipalindrome(w)
    m = len(w) - 1
    assert sum(letters) <= 4 * m * math.log2(m), (len(letters), sum(letters))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(w=kernel_inputs, width=st.sampled_from(EXACT_WIDTHS))
def test_longest_antipalindrome_with_the_run_step_before_every_pass(w, width):
    """Lemmas 1 and 2 of the kernel hold on every pass, not only on the
    dense ones that take the run step by default, and from every exact
    width (a small one starts the search at short radii)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(antipal.words, "_DENSITY", 0)
        patch.setattr(antipal.words, "_EXACT", width)
        assert longest_antipalindrome(w) == bf_manacher_longest_antipalindrome(w)


@pytest.mark.parametrize("width", [0, 3])
@pytest.mark.parametrize("density", [0, 1])
def test_longest_antipalindrome_matches_manacher_on_short_and_periodic_words(monkeypatch, width, density):
    """Every word of up to 12 letters, random words of 13-200 letters, and
    periodic words, clean or with 1-3 flipped letters, from exact widths
    that leave every radius (W = 0) or all but the shortest (W = 3) to the
    search, with and without the run step before every pass.  At W = 3 the
    search passes start at lo = 3 and chains with a gap between lo and 2lo
    occur; Lemma 2 needs gap <= lo."""
    monkeypatch.setattr(antipal.words, "_EXACT", width)
    monkeypatch.setattr(antipal.words, "_DENSITY", density)
    words = list(words_up_to(12))
    for seed in (3, 7):
        rng = random.Random(seed)
        words += ["".join(rng.choice("01") for _ in range(rng.randrange(13, 200))) for _ in range(200)]
    words += PERIODIC_PREFIXES.values()
    words += [(root * 101)[shift : shift + n] for root in ("001", "0010", "00101", "0001011", "011")
              for shift in (0, 1) for n in (60, 301)]
    rng = random.Random(11)
    for _ in range(400):
        root = "".join(rng.choice("01") for _ in range(rng.randrange(1, 11)))
        n = rng.randrange(10, 400)
        words.append(_flipped((root * n)[:n], rng.sample(range(n), rng.randrange(1, 4))))
    for w in words:
        assert longest_antipalindrome(w) == bf_manacher_longest_antipalindrome(w), w


@pytest.mark.parametrize("seed", [3, 7])
def test_longest_antipalindrome_exact_around_the_exact_width(seed):
    """E(u) + u inside random context, at radius W - 1, W, W + 1 and 2W for
    the exact width W: the short radii are settled by the exact pass, the
    long ones by the search."""
    width = antipal.words._EXACT
    rng = random.Random(seed)

    def random_word(n):
        return "".join(rng.choice("01") for _ in range(n))

    for radius in (width - 1, width, width + 1, 2 * width):
        for _ in range(10):
            u = random_word(radius + 1)
            border = rng.choice("01")  # the same letter on both sides stops E(u) + u from growing
            core = border + exchange(u) + u + border
            w = random_word(rng.randrange(20)) + core + random_word(rng.randrange(20))
            assert bf_longest_antipalindrome(w) == 2 * (radius + 1), w
            assert longest_antipalindrome(w) == 2 * (radius + 1), w


def test_bounded_evidence_builds_no_hash(monkeypatch):
    """A word whose longest antipalindrome has at most 2W letters (radius
    below the exact width W) is settled by the exact pass: the kernel makes
    no search pass and compares no keys beyond it; a longer one does."""
    letters = count_agree(monkeypatch)
    cfg = EvidenceConfig()
    sources = {fixed_point_source(parse_morphism(text)) for text in scan_space(3)} - {None}
    bounded = 0
    for _, host, letter in sources:
        big = fixed_point_prefix(host, letter, cfg.big_len)
        for w in (big[: cfg.prefix_len], big):
            letters.clear()
            longest = longest_antipalindrome(w)
            assert bool(letters) == (longest > 2 * antipal.words._EXACT), (host, letter, len(w), longest)
            bounded += not letters
    assert bounded > 0


SCALE_WORDS = {
    "thue-morse": bf_fixed_point_prefix("01", "10", "0", 100_000),
    "fibonacci": bf_fixed_point_prefix("01", "0", "0", 100_000),
    "period-doubling": bf_fixed_point_prefix("01", "00", "0", 100_000),
    "0->0101,1->1100": bf_fixed_point_prefix("0101", "1100", "0", 100_000),
    "(01)^50000": "01" * 50_000,
    "0^100000": "0" * 100_000,
}


@pytest.mark.parametrize("name", SCALE_WORDS)
@pytest.mark.parametrize("n", [25_000, 100_000])
def test_longest_antipalindrome_at_evidence_scales(name, n):
    w = SCALE_WORDS[name][:n]
    assert longest_antipalindrome(w) == bf_manacher_longest_antipalindrome(w)


def test_longest_antipalindrome_length_guard(monkeypatch):
    monkeypatch.setattr(antipal.words, "_MAX_LEN", 8)
    assert longest_antipalindrome("0110100") == 6
    with pytest.raises(PreconditionViolated):
        longest_antipalindrome("01101001")


def test_word_parsing():
    assert parse_word("eps") == ""
    assert parse_word("") == ""
    assert parse_word(" 0 1 1") == "011"
    assert check_word("0101") == "0101"
    with pytest.raises(ParseError):
        parse_word("012")
