"""Acceptance suite: one test per top-level guarantee, with a PASS line each.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import hashlib
import json
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from antipal.cli import main as cli_main
from antipal.equations import (
    solve_commutation,
    solve_pal_antipal,
    solve_transfer,
)
from antipal.errors import EquationFails, NotAntipalindrome, NotCommuting
from antipal.language import build_index
from antipal.membership import (
    A1Witness,
    A2Witness,
    a1_palindromicity,
    a2_rebalance,
    classify,
    conjugate_to_a1,
)
from antipal.morphisms import (
    FrequencyVector,
    Morphism,
    apply,
    fixed_point_prefix,
    incidence,
    is_primitive,
    letter_frequencies,
    prolongable_letters,
    square,
)
from antipal.words import (
    exchange,
    is_antipalindrome,
    is_palindrome,
    reverse,
    s_map,
    theta_apply,
)
from bruteforce import (
    bf_commutation,
    bf_pal_antipal_solutions,
    bf_transfer_solutions,
    words_up_to,
)


def _passed(label):
    print(f"[PASS] {label}")


def _random_words(rng, count, max_len):
    return [
        "".join(rng.choice("01") for _ in range(rng.randrange(max_len + 1)))
        for _ in range(count)
    ]


def _random_a1_morphism(rng, max_image_len=10):
    while True:
        total = rng.randrange(2, max_image_len + 1)
        head_len = rng.randrange(1, total + 1)
        if (total - head_len) % 2:
            continue
        half = "".join(rng.choice("01") for _ in range((total - head_len) // 2))
        head = "".join(rng.choice("01") for _ in range(head_len))
        witness = A1Witness(head, exchange(half) + half)
        m = witness.build()
        if is_primitive(m) and prolongable_letters(m):
            return m, witness


def _random_a2_morphism(rng, max_image_len=10):
    shapes = [
        (ell, k, h)
        for ell in range(1, max_image_len // 2 + 1)
        for k in range(3)
        for h in range(3)
        if 2 * ell * (2 * k + 1) <= max_image_len and 2 * ell * (2 * h + 1) <= max_image_len
    ]
    while True:
        ell, k, h = rng.choice(shapes)
        core = "".join(rng.choice("01") for _ in range(ell))
        witness = A2Witness(core, k, h)
        m = witness.build()
        if is_primitive(m) and prolongable_letters(m):
            return m, witness


@pytest.fixture(scope="module")
def uniform_corpus():
    """Classification of every uniform primitive morphism with image length <= 4."""
    reports = {}
    for length in (1, 2, 3, 4):
        for bits0 in product("01", repeat=length):
            for bits1 in product("01", repeat=length):
                m = Morphism("".join(bits0), "".join(bits1))
                if is_primitive(m):
                    reports[str(m)] = classify(m)
    return reports


def test_exchange_reverse_doubling_properties():
    # the five identities tying the mirror map, the exchange map, and the
    # doubling morphism, exhaustively to length 12 plus random long words
    start = time.monotonic()

    def check(w):
        ew = exchange(w)
        assert is_palindrome(w) == is_palindrome(ew)
        assert is_antipalindrome(w) == is_antipalindrome(ew)
        tw = theta_apply(w)
        assert theta_apply(reverse(w)) == exchange(tw)
        assert is_palindrome(tw) == is_antipalindrome(w)
        assert is_antipalindrome(tw) == is_palindrome(w)

    count = 0
    for w in words_up_to(12):
        check(w)
        count += 1
    rng = random.Random(101)
    for w in _random_words(rng, 10_000, 200):
        check(w)
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passed(
        f"mirror/exchange/doubling identity suite ({count} words, {elapsed:.1f}s)"
    )


def test_equation_solvers_match_bruteforce():
    start = time.monotonic()
    all_words = list(words_up_to(8))
    nonempty = [w for w in all_words if w]

    for x in all_words:
        for y in all_words:
            expected = bf_commutation(x, y)
            if expected is None:
                with pytest.raises(NotCommuting):
                    solve_commutation(x, y)
            else:
                s = solve_commutation(x, y)
                assert (s.u, s.i, s.j) == expected

    # xy = yz determines z; enumerating (x, y) exhausts the success set
    for x in nonempty:
        for y in all_words:
            z = (x + y)[len(y):]
            if x + y != y + z:
                with pytest.raises(EquationFails):
                    solve_transfer(x, y, z)
                continue
            s = solve_transfer(x, y, z)
            assert (s.u, s.v, s.i) in bf_transfer_solutions(x, y, z)

    pals = [w for w in nonempty if is_palindrome(w)]
    for x in pals:
        for y in pals:
            expected = bf_pal_antipal_solutions(x, y)
            if not is_antipalindrome(x + y):
                assert expected == []
                with pytest.raises(NotAntipalindrome):
                    solve_pal_antipal(x, y)
            else:
                s = solve_pal_antipal(x, y)
                assert (s.u, s.i, s.j) in expected
                assert len(s.u) == min(len(u) for u, _, _ in expected)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _passed(f"word-equation solvers match brute force up to length 8 ({elapsed:.1f}s)")


def test_shape_identities_on_random_witnesses():
    rng = random.Random(102)
    for _ in range(1000):
        m, witness = _random_a1_morphism(rng, max_image_len=8)
        w = "".join(rng.choice("01") for _ in range(rng.randrange(10)))
        s = witness.suffix
        assert exchange(s + apply(m, w)) == s + apply(m, exchange(w))
    for _ in range(1000):
        m, _ = _random_a2_morphism(rng, max_image_len=10)
        v = "".join(rng.choice("01") for _ in range(rng.randrange(10)))
        assert apply(m, theta_apply(reverse(v))) == exchange(apply(m, theta_apply(v)))
    _passed("suffix-exchange and doubling-reverse identities (1000 random pairs each)")


def test_constructive_antipalindrome_towers():
    rng = random.Random(7)
    for kind in ("a1", "a2"):
        for _ in range(20):
            if kind == "a1":
                m, witness = _random_a1_morphism(rng)
                step = lambda w: witness.suffix + apply(m, w)
            else:
                m, _ = _random_a2_morphism(rng)
                step = lambda w: apply(m, w)
            letter = sorted(prolongable_letters(m))[0]
            u = fixed_point_prefix(m, letter, 100_000)
            p01, p10 = u.find("01"), u.find("10")
            w = "01" if p10 < 0 or (0 <= p01 <= p10) else "10"
            lengths = []
            for _ in range(5):
                assert is_antipalindrome(w), str(m)
                assert w in u, (str(m), len(w))
                lengths.append(len(w))
                w = step(w)
            assert lengths == sorted(set(lengths)), str(m)
    _passed("iterated constructions give 5 increasing antipalindromic factor lengths (20+20 morphisms)")


def test_uniform_growing_evidence_implies_class_hit(uniform_corpus):
    start = time.monotonic()
    growing = violations = 0
    for text, rep in uniform_corpus.items():
        if rep.evidence is None:
            continue
        if rep.evidence.growing:
            growing += 1
            if not rep.class_a1.any_hit:
                violations += 1
    elapsed = time.monotonic() - start
    assert violations == 0
    assert growing > 0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _passed(
        f"uniform corpus (image length <= 4): {len(uniform_corpus)} primitive morphisms, "
        f"{growing} growing, 0 without a head/suffix-class hit"
    )


def test_bounded_antipalindromes_example():
    m = Morphism("0101", "1100")
    rep = classify(m)
    assert rep.class_ep.direct is not None
    assert rep.evidence.a_small == rep.evidence.a_big  # exact equality
    assert conjugate_to_a1(m) is None  # covers m, its square, both chains
    assert rep.antipal_verdict == "proven-finite"
    _passed(
        f"morphism 0->0101,1->1100: A(25000) = A(100000) = {rep.evidence.a_small}, no uniform-class hit"
    )


def test_rebalanced_morphisms_share_fixed_points():
    rng = random.Random(103)
    done = 0
    while done < 10:
        k_total = rng.choice((1, 2, 3))
        k = rng.randrange(k_total + 1)
        core = "".join(rng.choice("01") for _ in range(rng.randrange(1, 4)))
        witness = A2Witness(core, k, k_total - k)
        m = witness.build()
        letters = prolongable_letters(m) & prolongable_letters(a2_rebalance(witness).build())
        if not letters:
            continue
        letter = sorted(letters)[0]
        m_re = a2_rebalance(witness).build()
        assert fixed_point_prefix(m, letter, 100_000) == fixed_point_prefix(m_re, letter, 100_000)
        done += 1
    _passed("rebalanced doubling-class morphisms share 100k fixed-point prefixes (10 witnesses)")


def test_palindromic_and_antipalindromic_family():
    grid = list(range(1, 65)) + [96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144]
    for k in (1, 2):
        m = Morphism("0" + "110" * k, "1" + "001" * k)
        rep = classify(m)
        assert rep.class_p.direct is not None
        assert rep.class_a1.direct is not None
        assert a1_palindromicity(rep.class_a1.direct)
        assert rep.palindromic_status == "proven"
        assert rep.antipal_verdict == "proven-infinite"
        totals = {}
        for n in (25_000, 100_000):
            idx = build_index(m, "0", n, 6250)
            rows = [r for r in idx.census(grid) if r.certified]
            totals[n] = (
                sum(r.palindrome_count for r in rows),
                sum(r.antipalindrome_count for r in rows),
            )
        assert totals[100_000][0] > totals[25_000][0], f"palindrome census stalled for k={k}"
        assert totals[100_000][1] > totals[25_000][1], f"antipalindrome census stalled for k={k}"
    _passed("0->0(110)^k family: both classes, both characters proven, censuses grow (k=1,2)")


def _balance_violations(host, letter, n):
    """Letter-balance checks that fail on the n-letter prefix of host's fixed point.

    host is primitive and uniform with image length L, so its incidence
    eigenvalues are L and theta2 = trace - L.  Write D(w) = #0(w) - #1(w).
    The letter-0 frequency is exactly 1/2 when and only when (1, -1) is a
    left eigenvector for theta2, that is D(host(w)) = theta2 * D(w) for
    every word w.  Then D(host^k(letter)) = +-theta2^k (plus for letter 0),
    and the Dumont-Thomas prefix decomposition (TCS 65, 1989) writes each
    prefix shorter than L^(K+1) as host^K(p_K) ... host(p_1) p_0, every p_i
    a proper prefix of an image, so |D(prefix)| <= B * sum_{i<=K} |theta2|^i
    with B the largest |D| over those proper prefixes.

    Returns (check, detail) pairs; the check is "limit", "boundary" or
    "prefix bound".
    """
    length = len(host.image0)
    (a, _), (_, d) = incidence(host)
    theta2 = a + d - length
    sign = 1 if letter == "0" else -1
    prefix = fixed_point_prefix(host, letter, n)

    def discrepancy(w):
        return w.count("0") - w.count("1")

    violations = []
    rho = letter_frequencies(host)
    if rho != FrequencyVector(Fraction(1, 2), Fraction(1, 2)):
        violations.append(("limit", f"letter-0 frequency {rho.rho0}, not 1/2"))
    top = 0  # K = floor(log_L n)
    while length ** (top + 1) <= n:
        top += 1
    for k in range(top + 1):
        got, want = discrepancy(prefix[: length**k]), sign * theta2**k
        if got != want:
            violations.append(("boundary", f"D(prefix[:{length}^{k}]) = {got}, not {want}"))
    largest_step = max(
        abs(discrepancy(image[:i])) for image in (host.image0, host.image1) for i in range(length)
    )
    bound = largest_step * sum(abs(theta2) ** i for i in range(top + 1))
    got = discrepancy(prefix)
    if abs(got) > bound:
        violations.append(("prefix bound", f"|D(prefix[:{n}])| = {abs(got)} > {bound}"))
    return violations


def test_proven_antipalindromic_have_balanced_letters(uniform_corpus):
    # An antipalindrome w = E(w) has as many 0s as 1s.  Letter frequencies
    # of a primitive fixed point are uniform (every long factor has about
    # rho0 of its letters equal to 0), so a fixed point with antipalindromic
    # factors of unbounded length has letter-0 frequency exactly 1/2.  The
    # prefix ratio converges only like N^(log|theta2|/log L - 1), N^-1/2 for
    # 0->0001,1->0111, so a fixed band around 1/2 is not a property of the
    # morphism.  Each member is checked instead against the exact frequency,
    # the exact discrepancy at every host^k(letter) boundary and the host's
    # own discrepancy bound on the whole prefix (_balance_violations).
    n = 100_000
    checked = 0
    violations = {}
    for text, rep in uniform_corpus.items():
        if rep.antipal_verdict != "proven-infinite":
            continue
        if rep.evidence is None:
            continue
        tag, letter = rep.evidence.source, rep.evidence.letter
        host = rep.morphism if tag == "self" else square(rep.morphism)
        checked += 1
        found = _balance_violations(host, letter, n)
        if found:
            violations[text] = found
    assert checked > 0
    if violations:
        print(
            f"[FAIL] exact letter balance on proven-antipalindromic fixed points: "
            f"{len(violations)} of {checked} violate it: {violations}"
        )
    else:
        _passed(
            f"exact letter balance on proven-antipalindromic fixed points ({checked} morphisms, "
            f"frequency 1/2, boundary discrepancies and the {n}-prefix bound)"
        )
    assert not violations, (
        "letter-0 frequency not 1/2, or the discrepancy D = #0 - #1 breaks "
        f"D(host^k(letter)) = +-theta2^k or its prefix bound: {violations}"
    )


def test_balance_check_rejects_unbalanced_morphism():
    # negative control: primitive, uniform, prolongable on 0, rho0 = 2/3
    m = Morphism("0001", "0011")
    assert letter_frequencies(m).rho0 == Fraction(2, 3)
    found = _balance_violations(m, "0", 100_000)
    assert {check for check, _ in found} == {"limit", "boundary", "prefix bound"}, found
    _passed("letter-balance check rejects 0->0001,1->0011 (letter-0 frequency 2/3)")


SCAN_4_SHA256 = "7744fd3b69b4a74dfa86edd4267dcc110cbc85509db139a1c1cd25157a766d90"


def test_conjecture_scan_small_images(tmp_path):
    start = time.monotonic()
    out1 = tmp_path / "scan_p1.jsonl"
    out8 = tmp_path / "scan_p8.jsonl"
    code1 = cli_main(["scan", "--max-image-len", "4", "--out", str(out1), "--overwrite"])
    code8 = cli_main(
        ["scan", "--max-image-len", "4", "--out", str(out8), "--parallelism", "8", "--overwrite"]
    )
    elapsed = time.monotonic() - start
    assert code1 == 0 and code8 == 0  # exit 2 would mean candidates
    assert out1.read_bytes() == out8.read_bytes()
    # a change that alters the records on purpose updates this digest and says why
    assert hashlib.sha256(out1.read_bytes()).hexdigest() == SCAN_4_SHA256
    records = [json.loads(line) for line in out1.read_text().splitlines()]
    assert len(records) == 465
    assert sum(r["counterexample_candidate"] for r in records) == 0
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    _passed(
        f"conjecture scan at image length <= 4: {len(records)} records, zero candidates, "
        f"byte-identical at parallelism 1 and 8 ({elapsed:.0f}s)"
    )


def test_difference_map_sends_doubling_word_to_period_doubling():
    theta = Morphism("01", "10")
    period_doubling = Morphism("11", "10")
    t = fixed_point_prefix(theta, "0", 10_000)
    d = fixed_point_prefix(period_doubling, "1", 9_999)
    assert s_map(t) == d
    _passed("letterwise difference of the 10k doubling-word prefix is the period-doubling word")
