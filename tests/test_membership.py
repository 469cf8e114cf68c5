import random
from dataclasses import fields

import pytest

from antipal import membership
from antipal.cli import scan_space
from antipal.errors import PreconditionViolated
from antipal.membership import (
    A1Witness,
    A2Witness,
    EvidenceConfig,
    a1_witnesses,
    a2_witnesses,
    classify,
    ep_suffix_witnesses,
    ep_witnesses,
    p_witnesses,
    witness_from_dict,
)
from antipal.morphisms import (
    Morphism,
    apply,
    compose,
    conjugacy_chain,
    fixed_point_prefix,
    is_primitive,
    is_uniform,
    parse_morphism,
    prolongable_letters,
    square,
)
from antipal.words import exchange, is_antipalindrome, is_palindrome, reverse, theta_apply
from bruteforce import (
    bf_a2_witnesses,
    bf_fixed_point_prefix,
    bf_is_antipalindrome,
    bf_is_palindrome,
    bf_proven_period,
    bf_split_witnesses,
    bf_theta,
    words_up_to,
)

FIB = Morphism("01", "0")
THETA = Morphism("01", "10")


def random_morphism(rng, max_len=5, min_len=1):
    def img():
        return "".join(rng.choice("01") for _ in range(rng.randrange(min_len, max_len + 1)))

    return Morphism(img(), img())


def random_a1(rng, max_image_len=10):
    """A random uniform head/suffix morphism with both letters in image0."""
    while True:
        head_len = rng.randrange(1, max_image_len + 1)
        free = (max_image_len - head_len) // 2
        half = "".join(rng.choice("01") for _ in range(rng.randrange(0, free + 1)))
        suffix = exchange(half) + half
        head = "".join(rng.choice("01") for _ in range(head_len))
        m = A1Witness(head, suffix).build()
        if is_primitive(m):
            return m


def random_a2(rng, max_image_len=10, k_h_choices=((0, 0), (1, 0), (0, 1), (1, 1))):
    while True:
        k, h = rng.choice(k_h_choices)
        max_core = max_image_len // (2 * (2 * max(k, h) + 1))
        if max_core < 1:
            continue
        core = "".join(rng.choice("01") for _ in range(rng.randrange(1, max_core + 1)))
        return A2Witness(core, k, h).build()


def test_class_p_examples():
    w = p_witnesses(Morphism("0110", "1001"))[0]
    assert (w.prefix, w.tail0, w.tail1) == ("", "0110", "1001")
    # the common prefix 0 is a palindrome and both tails are palindromes
    w = p_witnesses(FIB)[0]
    assert (w.prefix, w.tail0, w.tail1) == ("0", "1", "")
    assert p_witnesses(THETA) == ()


def test_class_ep_examples():
    w = ep_witnesses(Morphism("0101", "1100"))[0]
    assert (w.prefix, w.tail0, w.tail1) == ("", "0101", "1100")
    w = ep_witnesses(THETA)[0]
    assert (w.prefix, w.tail0, w.tail1) == ("", "01", "10")
    assert ep_witnesses(FIB) == ()  # odd image length


def test_class_a1_examples():
    # the doubling morphism itself is not of the head/suffix shape ...
    assert a1_witnesses(THETA) == ()
    # ... but its square is
    w = a1_witnesses(Morphism("0110", "1001"))[0]
    assert (w.head, w.suffix) == ("0110", "")
    assert a1_witnesses(FIB) == ()


def test_conjugate_to_a1():
    hit = classify(THETA).class_a1.first_hit()
    assert hit is not None and hit.where == "square"
    assert (hit.witness.head, hit.witness.suffix) == ("0110", "")
    assert classify(Morphism("0101", "1100")).class_a1.first_hit() is None
    # cyclic morphisms search the full rotation cycle
    hit = classify(Morphism("01", "01")).class_a1.first_hit()
    assert hit is not None and hit.where == "direct"


def test_class_a2_examples():
    ws = a2_witnesses(square(THETA))
    assert [(w.core, w.k, w.h) for w in ws] == [("01", 0, 0)]
    ws = a2_witnesses(Morphism("010101", "01"))
    assert [(w.core, w.k, w.h) for w in ws] == [("0", 1, 0)]
    assert a2_witnesses(FIB) == ()


def test_a2_witnesses_match_forward_oracle():
    # every witness built forwards is found, shortest core first, and no other
    n = 12
    oracle = bf_a2_witnesses(n)
    images = [bf_theta(u) for u in words_up_to(n // 2, include_empty=False)]
    for i0 in images:
        for i1 in images:
            expected = tuple(A2Witness(*t) for t in oracle.get((i0, i1), ()))
            assert a2_witnesses(Morphism(i0, i1)) == expected, (i0, i1)


def test_witness_build_round_trip():
    w = A2Witness("01", 2, 1)
    m = w.build()
    assert w in a2_witnesses(m)
    a1 = A1Witness("010", exchange("11") + "11")
    assert a1 in a1_witnesses(a1.build())


def test_witness_soundness_exhaustive_small():
    # every witness any enumerator returns must rebuild the morphism
    for i0 in words_up_to(5, include_empty=False):
        for i1 in words_up_to(5, include_empty=False):
            m = Morphism(i0, i1)
            for w in p_witnesses(m) + ep_witnesses(m) + a1_witnesses(m) + a2_witnesses(m):
                assert w.build() == m
                assert w.is_valid()


def test_split_enumerators_are_complete():
    # every P, EP and EP-suffix split of every image pair up to 6 letters,
    # in the brute-force oracle's order
    for i0 in words_up_to(6, include_empty=False):
        for i1 in words_up_to(6, include_empty=False):
            m = Morphism(i0, i1)
            assert tuple((w.prefix, w.tail0, w.tail1) for w in p_witnesses(m)) == bf_split_witnesses(
                i0, i1, bf_is_palindrome
            ), str(m)
            assert tuple((w.prefix, w.tail0, w.tail1) for w in ep_witnesses(m)) == bf_split_witnesses(
                i0, i1, bf_is_antipalindrome
            ), str(m)
            suffix = ep_suffix_witnesses(m)
            assert tuple((w.body0, w.body1, w.suffix) for w in suffix) == tuple(
                (rest0[::-1], rest1[::-1], common[::-1])
                for common, rest0, rest1 in bf_split_witnesses(i0[::-1], i1[::-1], bf_is_antipalindrome)
            ), str(m)
            for w in suffix:
                assert w.build() == m
                assert w.is_valid()


def test_classify_searches_each_conjugate_once(monkeypatch):
    # one enumeration per element of the chains of m and of its square,
    # for each class, hit or no hit
    names = ("p_witnesses", "ep_witnesses", "a1_witnesses", "a2_witnesses")
    calls = {}
    for name in names:

        def counting(m, name=name, enumerate_witnesses=getattr(membership, name)):
            calls[name] += 1
            return enumerate_witnesses(m)

        monkeypatch.setattr(membership, name, counting)
    for text in scan_space(3):
        m = parse_morphism(text)
        calls.update(dict.fromkeys(names, 0))
        classify(m)
        expected = len(conjugacy_chain(m).chain) + len(conjugacy_chain(square(m)).chain)
        assert calls == dict.fromkeys(names, expected), text


def test_mirror_test_agrees_with_chain_search():
    # the mirror test on the extremes equals exhaustive search of the chain
    for i0 in words_up_to(4, include_empty=False):
        for i1 in words_up_to(4, include_empty=False):
            m = Morphism(i0, i1)
            chain = conjugacy_chain(m)
            if chain.cyclic or not is_primitive(m):
                continue
            by_search = any(p_witnesses(e) for e in chain.chain)
            assert membership._mirror_test(chain) == by_search, str(m)


def test_palindromic_status_agrees_with_the_paper_lemmas():
    # On primitive non-cyclic records the status is "proven" exactly when a
    # conjugate of m or of m^2 is in class P (the mirror test), and the
    # palindromicity lemmas on the first A1 and A2 witnesses give the same
    # answer.  The lemmas assume an aperiodic fixed point, so cyclic records
    # are left out.
    a1_lemma = []
    a2_lemma = []
    for text in scan_space(4):
        rep = classify(parse_morphism(text))
        if not rep.primitive or rep.cyclic:
            continue
        proven = rep.palindromic_status == "proven"
        assert proven == (rep.class_p.conjugate is not None or rep.class_p.square_conjugate is not None), text
        if (hit := rep.class_a1.first_hit()) is not None:
            a1_lemma.append(hit.witness.suffix == "" and is_palindrome(hit.witness.head))
            assert a1_lemma[-1] == proven, text
        if (hit := rep.class_a2.first_hit()) is not None:
            a2_lemma.append(is_antipalindrome(hit.witness.core))
            assert a2_lemma[-1] == proven, text
    assert sorted(set(a1_lemma)) == [False, True]
    assert a2_lemma


def test_uniform_a1_iff_composed_with_doubling_in_ep():
    # Composing a uniform morphism with the doubling morphism lands in the
    # suffix-shape EP class exactly when the morphism has the head/suffix
    # shape.  (The common-prefix shape is NOT equivalent here: m=(001,101)
    # is a member but compose(m, THETA)=(001101,101001) has no common
    # antipalindromic prefix.  The two EP shapes agree up to conjugacy.)
    for i0 in words_up_to(5, include_empty=False):
        for i1 in words_up_to(5, include_empty=False):
            m = Morphism(i0, i1)
            if not is_uniform(m):
                continue
            m_theta = compose(m, THETA)
            assert bool(a1_witnesses(m)) == bool(ep_suffix_witnesses(m_theta)), str(m)
    assert a1_witnesses(Morphism("001", "101"))
    assert not ep_witnesses(compose(Morphism("001", "101"), THETA))


def test_a2_composed_with_doubling_in_ep():
    rng = random.Random(41)
    for _ in range(40):
        m = random_a2(rng, max_image_len=12, k_h_choices=((0, 0), (1, 0), (0, 1), (2, 0)))
        assert ep_witnesses(compose(m, THETA)), str(m)


def test_a2_balanced_is_also_a1():
    rng = random.Random(42)
    for _ in range(40):
        k = rng.randrange(0, 3)
        core = "".join(rng.choice("01") for _ in range(rng.randrange(1, 4)))
        m = A2Witness(core, k, k).build()
        ws = a1_witnesses(m)
        assert any(w.suffix == "" for w in ws), str(m)


def test_suffix_exchange_identity():
    # E(suffix + phi(w)) == suffix + phi(E(w)) for the head/suffix shape
    rng = random.Random(43)
    for _ in range(100):
        m = random_a1(rng)
        suffix = a1_witnesses(m)[-1].suffix if a1_witnesses(m) else None
        w = "".join(rng.choice("01") for _ in range(rng.randrange(12)))
        for wit in a1_witnesses(m):
            assert exchange(wit.suffix + apply(m, w)) == wit.suffix + apply(m, exchange(w))


def test_doubling_reverse_identity():
    # psi(T(R(v))) == E(psi(T(v))) for the doubling-code shape
    rng = random.Random(44)
    for _ in range(100):
        m = random_a2(rng)
        v = "".join(rng.choice("01") for _ in range(rng.randrange(12)))
        assert apply(m, theta_apply(reverse(v))) == exchange(apply(m, theta_apply(v)))


def test_constructive_antipalindromes_a1():
    rng = random.Random(45)
    for _ in range(5):
        m = random_a1(rng, max_image_len=6)
        letters = prolongable_letters(m)
        if not letters:
            continue
        prefix = fixed_point_prefix(m, sorted(letters)[0], 60000)
        suffix = a1_witnesses(m)[0].suffix
        w = "01" if "01" in prefix else "10"
        lengths = []
        for _ in range(4):
            assert is_antipalindrome(w)
            assert w in prefix
            lengths.append(len(w))
            w = suffix + apply(m, w)
        assert lengths == sorted(set(lengths))


def test_evidence_config_rejects_lengths_the_kernel_cannot_take():
    # the longer evidence prefix is prefix_len * factor letters; the kernel takes fewer than 2**30
    with pytest.raises(PreconditionViolated):
        EvidenceConfig(2**28, 4)
    assert EvidenceConfig(2**28 - 1, 4).big_len == 2**30 - 4


def test_a2_rebalance_preserves_fixed_point():
    w = A2Witness("01", 1, 1)
    m, m_re = w.build(), A2Witness(w.core, 0, w.k + w.h).build()
    assert fixed_point_prefix(m, "0", 5000) == fixed_point_prefix(m_re, "0", 5000)


def test_classify_doubling_morphism():
    rep = classify(THETA)
    assert rep.class_a1.any_hit and rep.class_a1.direct is None
    assert rep.antipal_verdict == "proven-infinite"
    assert rep.palindromic_status == "proven"
    assert not rep.counterexample_candidate


def test_classify_bounded_example():
    rep = classify(Morphism("0101", "1100"))
    assert rep.class_ep.direct is not None
    assert not rep.class_a1.any_hit
    assert rep.antipal_verdict == "proven-finite"
    assert rep.evidence.a_small == rep.evidence.a_big


def test_classify_fibonacci():
    rep = classify(FIB)
    assert rep.palindromic_status == "proven"
    assert not rep.class_a2.any_hit
    assert rep.antipal_verdict == "proven-finite"
    assert "palindromic" in rep.antipal_basis


def test_classify_cyclic():
    rep = classify(Morphism("01", "0101"))
    assert rep.cyclic and rep.periodicity == "periodic-proven"
    assert rep.antipal_verdict == "proven-infinite"
    assert "periodic" in rep.antipal_basis
    assert not rep.counterexample_candidate
    rep = classify(Morphism("00", "00"))
    assert rep.antipal_verdict == "proven-finite"


def test_classify_family_with_both_characters():
    for k in (1, 2):
        m = Morphism("0" + "110" * k, "1" + "001" * k)
        rep = classify(m)
        assert rep.class_p.direct is not None
        assert rep.class_a1.direct is not None
        w = rep.class_a1.direct
        assert w.suffix == "" and is_palindrome(w.head)
        assert rep.palindromic_status == "proven"
        assert rep.antipal_verdict == "proven-infinite"


def test_classify_no_fixed_point():
    rep = classify(Morphism("1", "0"))
    assert rep.periodicity == "no-fixed-point"
    assert rep.antipal_verdict == "not-applicable"


def test_proven_period_agrees_with_lcm_window():
    # The commutation test r + host(r) == host(r) + r accepts exactly the
    # prefixes the window check over lcm(|r|, |host(r)|) letters accepts.
    # The image-length <= 3 space has no periodic-likely record, so the
    # image-length 4 ones that are periodic-likely at these lengths join it.
    periodic_likely = ["0->11,1->0001", "0->111,1->0001", "0->1010,1->0000", "0->1100,1->000"]
    for prefix_len in (16, 1000):
        cfg = EvidenceConfig(prefix_len=prefix_len)
        for text in scan_space(3) + periodic_likely:
            m = parse_morphism(text)
            rep = classify(m, cfg)
            if rep.evidence is None:
                continue
            host = m if rep.evidence.source == "self" else square(m)
            prefix = bf_fixed_point_prefix(host.image0, host.image1, rep.evidence.letter, prefix_len)
            expected = bf_proven_period(host.image0, host.image1, prefix) is not None
            assert (rep.periodicity == "periodic-proven") == expected, (text, prefix_len)


def test_proven_period_check_on_long_images():
    # the window check needs an 886 MB string here; the commutation test does not
    rep = classify(Morphism("111110001101010101100001", "0111110111000100"))
    assert rep.periodicity == "periodic-likely"


def test_report_serialization_round_trip():
    rep = classify(THETA, EvidenceConfig(prefix_len=2000))
    d = rep.to_dict()
    assert d["morphism"] == "0->01,1->10"
    assert d["class_a1"]["square"] is True
    w = witness_from_dict(d["class_a1"]["witness"])
    assert w.build() == square(THETA)
    for key in ("class_p", "class_ep", "class_a1", "class_a2"):
        if d[key]["witness"] is not None:
            assert witness_from_dict(d[key]["witness"]).is_valid()
    # every witness of every kind survives its record, keyed kind first
    kinds = set()
    for i0 in words_up_to(5, include_empty=False):
        for i1 in words_up_to(5, include_empty=False):
            m = Morphism(i0, i1)
            for w in p_witnesses(m) + ep_witnesses(m) + a1_witnesses(m) + a2_witnesses(m):
                d = w.to_dict()
                assert list(d) == ["kind", *(f.name for f in fields(w))]
                assert witness_from_dict(d) == w
                kinds.add(d["kind"])
    assert kinds == {"p", "ep", "a1", "a2"}
    with pytest.raises(ValueError):
        witness_from_dict({"kind": "b", "core": "0", "k": 0, "h": 0})
    with pytest.raises(KeyError):
        witness_from_dict({"kind": "a2", "core": "0", "k": 0})


def test_relabeled_mirror_gets_identical_flags():
    rng = random.Random(46)
    cfg = EvidenceConfig(prefix_len=1500)
    for _ in range(25):
        m = random_morphism(rng, max_len=4)
        mirror = Morphism(
            m.image1.translate(str.maketrans("01", "10")),
            m.image0.translate(str.maketrans("01", "10")),
        )
        a, b = classify(m, cfg), classify(mirror, cfg)
        assert (a.primitive, a.uniform, a.cyclic) == (b.primitive, b.uniform, b.cyclic)
        for mem_a, mem_b in (
            (a.class_p, b.class_p),
            (a.class_ep, b.class_ep),
            (a.class_a1, b.class_a1),
            (a.class_a2, b.class_a2),
        ):
            assert mem_a.any_hit == mem_b.any_hit
        assert a.antipal_verdict == b.antipal_verdict
        assert a.palindromic_status == b.palindromic_status
