import random
from dataclasses import fields

import pytest

from antipal import membership
from antipal.cli import scan_space
from antipal.errors import PreconditionViolated
from antipal.membership import (
    A1Witness,
    A2Witness,
    EPWitness,
    EvidenceConfig,
    PWitness,
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
    format_morphism,
    is_primitive,
    is_uniform,
    parse_morphism,
    prolongable_letters,
    square,
)
from antipal.words import exchange, is_antipalindrome, is_palindrome, reverse, theta_apply
from bruteforce import (
    bf_a2_witnesses,
    bf_chain_walk,
    bf_fixed_point_prefix,
    bf_is_antipalindrome,
    bf_is_palindrome,
    bf_letter_swap,
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


def test_classify_searches_only_chains_the_closed_form_leaves_open(monkeypatch):
    # P, EP and A1 enumerate each element of a cyclic chain once and never
    # run on any other chain; A2 enumerates each element once when both
    # image lengths of the host are even and never otherwise
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
        expected = dict.fromkeys(names, 0)
        for host in (m, square(m)):
            chain = conjugacy_chain(host)
            size = len(chain.chain)
            if chain.cyclic:
                for name in names[:3]:
                    expected[name] += size
            if len(host.image0) % 2 == 0 and len(host.image1) % 2 == 0:
                expected["a2_witnesses"] += size
        assert calls == expected, text


def test_chain_walk_agrees_with_the_full_search():
    # over every chain of m and of m^2 up to image length 6, for all four
    # classes, the closed form gives what enumerating every element gives;
    # on an even-k chain whose sigma test holds, sigma fixes element k/2
    classes = (
        (PWitness, p_witnesses),
        (EPWitness, ep_witnesses),
        (A1Witness, a1_witnesses),
        (A2Witness, a2_witnesses),
    )
    chains = 0
    for text in scan_space(6):
        m = parse_morphism(text)
        for host in (m, square(m)):
            chain = conjugacy_chain(host)
            chains += 1
            for kind, enumerate_witnesses in classes:
                own, hit = bf_chain_walk(enumerate_witnesses, host, chain, "conjugate")
                expected = (own, membership.Hit(*hit) if hit else None)
                assert membership._chain_walk(kind, enumerate_witnesses, host, chain, "conjugate") == expected, (
                    text,
                    kind.kind,
                    str(host),
                )
            k = len(chain.chain) - 1
            if chain.cyclic or k % 2:
                continue
            middle = chain.chain[k // 2]
            for sigma in membership._SIGMA.values():
                if membership._symmetric(chain, sigma):
                    assert sigma(middle.image0, middle.image1) == (middle.image0, middle.image1), str(host)
    assert chains == 16002


def test_mirror_test_agrees_with_chain_search():
    # Each order-reversing map sigma on morphisms (sigma_R reverses both
    # images, sigma_E exchanges both, sigma_S exchanges both and swaps the
    # letters) maps a chain of k + 1 elements onto a chain in reverse order.
    # When sigma(rightmost) == leftmost, element i has exactly one witness
    # of the matching class, with a cut in closed form, and otherwise none:
    # P with prefix length 2i - k in [0, min image length], EP the same with
    # the prefix length even, A1 on a uniform element with suffix length
    # k - 2i in [0, n - 1].  When sigma(rightmost) != leftmost no element
    # has a witness.  sigma_R's test is the mirror test.  ``_symmetric`` makes
    # all three tests.
    sigmas = {
        "p": lambda u, v: Morphism(reverse(u), reverse(v)),
        "ep": lambda u, v: Morphism(exchange(u), exchange(v)),
        "a1": lambda u, v: Morphism(exchange(v), exchange(u)),
    }
    chains, held = 0, dict.fromkeys(sigmas, 0)
    for i0 in words_up_to(4, include_empty=False):
        for i1 in words_up_to(4, include_empty=False):
            for host in (Morphism(i0, i1), square(Morphism(i0, i1))):
                chain = conjugacy_chain(host)
                if chain.cyclic:
                    continue
                chains += 1
                k, right = len(chain.chain) - 1, chain.rightmost
                holds = {cls: sigma(right.image0, right.image1) == chain.leftmost for cls, sigma in sigmas.items()}
                for kind in (PWitness, EPWitness, A1Witness):
                    assert membership._symmetric(chain, membership._SIGMA[kind]) == holds[kind.kind], str(host)
                    held[kind.kind] += holds[kind.kind]
                for i, e in enumerate(chain.chain):
                    cut, short, n = 2 * i - k, min(len(e.image0), len(e.image1)), len(e.image0)
                    p_cut = [cut] if holds["p"] and 0 <= cut <= short else []
                    ep_cut = [cut] if holds["ep"] and 0 <= cut <= short and cut % 2 == 0 else []
                    a1_cut = [-cut] if holds["a1"] and is_uniform(e) and 0 <= -cut <= n - 1 else []
                    assert [len(w.prefix) for w in p_witnesses(e)] == p_cut, (str(host), i)
                    assert [len(w.prefix) for w in ep_witnesses(e)] == ep_cut, (str(host), i)
                    assert [len(w.suffix) for w in a1_witnesses(e)] == a1_cut, (str(host), i)
    assert chains == 1684 and held == {"p": 1006, "ep": 42, "a1": 98}


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
    # the longer evidence prefix is 4 * prefix_len letters; the kernel takes fewer than 2**30
    with pytest.raises(PreconditionViolated, match=r"got 4 \* 268435456"):
        EvidenceConfig(2**28)
    assert EvidenceConfig(2**28 - 1).big_len == 2**30 - 4
    assert [f.name for f in fields(EvidenceConfig)] == ["prefix_len", "seed_letter"]


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
    """A morphism and its letter swap, read from the swap of the letter the
    first one's evidence read, agree on every record of the <= 4 space.  The
    swap maps that fixed point to its letter swap, which keeps every
    antipalindrome, palindrome and period, so the flags, the class hits,
    the verdict, the palindromic status and the periodicity all agree."""
    swap = str.maketrans("01", "10")
    for text in scan_space(4):
        m = parse_morphism(text)
        a = classify(m, EvidenceConfig(prefix_len=1500))
        letter = a.evidence.letter.translate(swap) if a.evidence else None
        b = classify(_letter_swap(m), EvidenceConfig(prefix_len=1500, seed_letter=letter))
        assert (a.primitive, a.uniform, a.cyclic) == (b.primitive, b.uniform, b.cyclic), text
        for mem_a, mem_b in (
            (a.class_p, b.class_p),
            (a.class_ep, b.class_ep),
            (a.class_a1, b.class_a1),
            (a.class_a2, b.class_a2),
        ):
            assert mem_a.any_hit == mem_b.any_hit, text
        assert a.antipal_verdict == b.antipal_verdict, text
        assert a.palindromic_status == b.palindromic_status, text
        assert a.periodicity == b.periodicity, text


def _letter_swap(m):
    return Morphism(bf_letter_swap(m.image1), bf_letter_swap(m.image0))


def _invariants(report):
    """The fields of a record that reversing both images and swapping the
    letters keep: the primitive, uniform and cyclic flags, a hit in each
    class, a proof of unbounded antipalindromes, and the palindromic status
    of a primitive morphism."""
    classes = (report.class_p, report.class_ep, report.class_a1, report.class_a2)
    return (
        report.primitive,
        report.uniform,
        report.cyclic,
        *(c.any_hit for c in classes),
        report.antipal_verdict == "proven-infinite",
        report.palindromic_status if report.primitive else None,
    )


def test_classify_commutes_with_reversal_and_the_letter_swap():
    # Each record of the <= 6 scan space agrees on its invariant fields with
    # its reversal twin, read from the same run under the swap, and with its
    # letter swap, classified here.  The verdict is not compared, nor the
    # palindromic status of a non-primitive morphism: the swap can change the
    # fixed point read (0->00,1->10 reads 0^w, a proven period; its swap
    # 0->01,1->11 reads 01^w), which moves both on 285 records, and it moves
    # 88 primitive verdicts between proven-finite and empirical-bounded
    # through the two "likely" periodicity labels.
    records = {text: _invariants(classify(parse_morphism(text))) for text in scan_space(6)}
    for text, fields in records.items():
        m = parse_morphism(text)
        twin = Morphism(reverse(m.image0), reverse(m.image1))
        assert records[min(format_morphism(twin), format_morphism(_letter_swap(twin)))] == fields, text
        assert _invariants(classify(_letter_swap(m))) == fields, text
