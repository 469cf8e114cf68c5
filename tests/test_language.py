import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from antipal import language
from antipal.errors import BadBounds, CyclicMorphism, NotProlongable
from antipal.language import (
    BispecialOrbit,
    bispecial_orbit,
    bispecial_successor,
    build_index,
)
from antipal.morphisms import Morphism, prolongable_letters
from antipal.words import exchange, is_antipalindrome, is_palindrome
from bruteforce import (
    bf_antipal_center,
    bf_bispecials,
    bf_e_closed,
    bf_factor_set,
    bf_stable_up_to,
    words_up_to,
)

FIB = Morphism("01", "0")
THETA = Morphism("01", "10")


def test_build_index_basics():
    idx = build_index(THETA, "0", 64, 2)
    assert idx.factors(2) == {"00", "01", "10", "11"}
    idx = build_index(FIB, "0", 64, 2)
    assert idx.factors(2) == {"00", "01", "10"}
    assert idx.factors(1) == {"0", "1"}
    assert idx.factors(0) == {""}
    with pytest.raises(BadBounds):
        build_index(THETA, "0", 64, 32)
    with pytest.raises(NotProlongable):
        build_index(FIB, "1", 64, 2)


# Thue-Morse 256/64 certifies fewer than n_max lengths, so factors() also
# takes its direct-slice path there; 0->000001 at 8 letters certifies none,
# and Fibonacci at n_max 2 stops just where E-closure first fails.
EXACT_SET_INDEXES = (
    (THETA, 512, 16),
    (THETA, 256, 64),
    (THETA, 4000, 64),
    (FIB, 4000, 64),
    (FIB, 2000, 2),
    (Morphism("01", "01"), 4000, 64),
    (Morphism("000001", "1"), 8, 2),
)


def test_factor_sets_match_bruteforce():
    for m, prefix_len, n_max in EXACT_SET_INDEXES:
        idx = build_index(m, "0", prefix_len, n_max)
        for n in range(n_max + 1):
            assert idx.factors(n) == bf_factor_set(idx.prefix, n), (str(m), prefix_len, n)


def test_exact_set_indexes_reach_each_case():
    assert 0 < build_index(THETA, "0", 256, 64).stable_up_to < 64
    assert build_index(FIB, "0", 2000, 2).stable_up_to == 2
    assert build_index(Morphism("000001", "1"), "0", 8, 2).stable_up_to == 0


def test_bispecials_and_e_closure_match_bruteforce():
    for m, prefix_len, n_max in EXACT_SET_INDEXES:
        idx = build_index(m, "0", prefix_len, n_max)
        top = bf_stable_up_to(idx.prefix, n_max)
        assert idx.bispecials() == tuple(bf_bispecials(idx.prefix, top)), (str(m), prefix_len)
        assert idx.e_closure_check() is bf_e_closed(idx.prefix, top), (str(m), prefix_len)


def _prolongable_indexes(max_image_len):
    images = list(words_up_to(max_image_len, include_empty=False))
    for i0 in images:
        for i1 in images:
            m = Morphism(i0, i1)
            for letter in prolongable_letters(m):
                yield m, letter


@pytest.mark.parametrize("prefix_len, n_max", [(64, 16), (300, 64), (2000, 64)])
def test_certification_matches_sequential_scan(prefix_len, n_max):
    checked = 0
    for m, letter in _prolongable_indexes(3):
        idx = build_index(m, letter, prefix_len, n_max)
        assert idx.stable_up_to == bf_stable_up_to(idx.prefix, n_max), (str(m), letter)
        # the stable lengths are downward closed: none above stable_up_to
        half = idx.prefix[: prefix_len // 2]
        for n in range(idx.stable_up_to + 1, n_max + 1):
            assert bf_factor_set(half, n) != bf_factor_set(idx.prefix, n), (str(m), letter, n)
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("prefix_len, n_max", [(64, 16), (300, 64), (2000, 64)])
def test_antipal_center_matches_search(prefix_len, n_max):
    reached = 0
    for m, letter in _prolongable_indexes(3):
        idx = build_index(m, letter, prefix_len, n_max)
        for limit in (0, 1, 3, 16, 40):
            center = idx.antipal_center(limit)
            assert center == bf_antipal_center(idx, limit), (str(m), letter, limit)
            reached += len(center) == limit > 0
        if prefix_len <= 300:  # the quadratic oracles would add ~10 s at 2000 letters
            top = idx.stable_up_to
            assert idx.e_closure_check() is bf_e_closed(idx.prefix, top), (str(m), letter)
            assert idx.bispecials() == tuple(bf_bispecials(idx.prefix, top)), (str(m), letter)
    assert reached > 0


def test_index_is_freed_without_the_cycle_collector():
    """No query leaves a reference cycle through the index, so dropping the
    last reference frees the prefix, the ids and rank levels."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        idx = build_index(THETA, "0", 4000, 64)
        idx.census()
        idx.bispecials()
        idx.e_closure_check()
        idx.antipal_center(16)
        # certified past 64 letters: the rank levels and _extensions
        long = build_index(THETA, "0", 1200, 300)
        long.bispecials()
        long.e_closure_check()
        long.antipal_center(100)
        refs = weakref.ref(idx), weakref.ref(long)
        del idx, long
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def _query_peak(*queries):
    tracemalloc.start()
    try:
        for query in queries:
            query()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_closure_and_bispecials_keep_no_per_length_sets():
    """Each factor set is cut when it is asked for and dropped after, so
    checking every certified length holds one set at a time; up to 64
    letters the queries read the distinct windows only, never the ids of
    every window of the prefix."""
    idx = build_index(THETA, "0", 8000, 400)
    peak = _query_peak(idx.e_closure_check, idx.bispecials)
    assert peak < 10 * 2**20, peak
    idx = build_index(THETA, "0", 100000, 64)
    idx.census()
    peak = _query_peak(idx.bispecials, idx.e_closure_check, lambda: idx.antipal_center(32))
    assert peak < 2**20, peak


def test_each_rank_level_is_built_once(monkeypatch):
    """Certification probes n_max first and, finding it stable, stops after
    that one probe, which climbs to the 1024-letter level; the census then
    reads the levels from 64 up again and must find them kept."""
    built, probes = [], []
    dense_rank, stable_at = language._dense_rank, language.FactorIndex._stable_at
    monkeypatch.setattr(language, "_dense_rank", lambda keys: built.append(1) or dense_rank(keys))
    monkeypatch.setattr(
        language.FactorIndex, "_stable_at", lambda self, n: probes.append(n) or stable_at(self, n)
    )
    idx = build_index(Morphism("0110", "1001"), "0", 20000, 1250)
    assert probes == [1250] and idx.stable_up_to == 1250
    idx.census([*range(1, 65), 96, 128, 192, 256, 384, 512, 768, 1024])
    assert len(built) == 5  # the levels of 64, 128, 256, 512 and 1024 letters


def test_dense_rank_by_packed_sort_and_by_argsort():
    """Keys that leave room for a start in an int64 (the pairs of every
    rank level) are ranked by one packed sort, others by a sorted copy and
    a binary search, which leaves them as they are; both must give the
    ranks of the sorted distinct keys."""

    def check(keys):
        expected = np.unique(keys, return_inverse=True)[1]
        assert language._dense_rank(keys.copy()).tolist() == expected.tolist()

    idx = build_index(Morphism("0110", "1001"), "0", 20000, 1250)
    keys = idx._keys[: idx._keys.size - 63]
    assert keys.dtype == np.uint64 and int(keys.max()) >= 2**63
    check(keys)
    before = keys.copy()
    language._dense_rank(keys)  # level 0 ranks a view of the index's keys, which must stay as they are
    assert np.array_equal(keys, before)
    for level, rank in enumerate(idx._levels[:-1]):
        b = 64 << level
        pairs = rank[: idx._keys.size - 2 * b + 1].astype(np.int64) * (int(rank.max()) + 1) + rank[b:]
        assert int(pairs.max()) < 2 ** (63 - pairs.size.bit_length())  # these pack
        check(pairs)
        assert language._dense_rank(pairs).tolist() == idx._levels[level + 1].tolist()
    rng = np.random.default_rng(5)
    small = rng.integers(0, 50, 1000)
    big = 2 ** (63 - 2000 .bit_length()) + rng.integers(0, 50, 1000)
    check(rng.permutation(np.concatenate((small, big))))  # too large to pack
    check(np.full(100, 7, dtype=np.int64))
    check(np.array([5], dtype=np.int64))


def _bf_row(prefix, n):
    fs = bf_factor_set(prefix, n)
    return len(fs), sum(map(is_palindrome, fs)), sum(map(is_antipalindrome, fs))


def test_census_matches_bruteforce():
    """Every row, certified or not, of every prolongable index with images
    of up to 3 letters: rows up to 64 letters come from the sorted windows,
    whose short tail windows must be masked at the prefix end, placed
    before the windows they head, and cut short in the common heads."""
    cases = [(m, "0", 512, 16) for m in (THETA, FIB, Morphism("01", "01"))]
    for prefix_len, n_max in ((64, 16), (257, 64), (300, 64)):
        cases += [(m, letter, prefix_len, n_max) for m, letter in _prolongable_indexes(3)]
    expected = {}  # by (prefix, n): many hosts share a prefix such as 0^300
    unique_ends = 0
    for m, letter, prefix_len, n_max in cases:
        idx = build_index(m, letter, prefix_len, n_max)
        p = idx.prefix
        rows = [(r.factor_count, r.palindrome_count, r.antipalindrome_count) for r in idx.census()]
        for n in range(1, n_max + 1):
            if (p, n) not in expected:
                expected[p, n] = _bf_row(p, n)
        assert rows == [expected[p, n] for n in range(1, n_max + 1)], (str(m), letter, prefix_len)
        # one start per distinct factor: no window is read twice
        starts = [idx._starts(n).size for n in range(1, n_max + 1)]
        assert starts == [expected[p, n][0] for n in range(1, n_max + 1)], (str(m), letter, prefix_len)
        unique_ends += p[-8:] not in p[:-1]  # the last letters hold a word found nowhere else
    assert unique_ends > 0


# Lengths on both sides of each change of key width: the packed keys end at
# 64 letters, and from there the two covering windows double at 128, 256, 512.
ID_LENGTHS = (*range(1, 71), 96, 127, 128, 129, 255, 256, 257, 511, 512)
ID_INDEXES = (
    (THETA, 4096),
    (FIB, 4096),
    (Morphism("01", "00"), 2048),  # period doubling
    (Morphism("01", "01"), 2048),
    # the 0 -> 0(110)^k, 1 -> 1(001)^k family, k = 1, 2, 3
    (Morphism("0110", "1001"), 4096),
    (Morphism("0110110", "1001001"), 2048),
    (Morphism("0110110110", "1001001001"), 4096),
)


@pytest.mark.parametrize("m, prefix_len", ID_INDEXES, ids=[f"{m}@{n}" for m, n in ID_INDEXES])
def test_exact_ids_match_bruteforce_across_key_widths(m, prefix_len):
    idx = build_index(m, "0", prefix_len, 512)
    for row in idx.census(ID_LENGTHS):
        n = row.length
        fs = bf_factor_set(idx.prefix, n)
        assert row.factor_count == len(fs), n
        assert row.palindrome_count == sum(1 for w in fs if is_palindrome(w)), n
        assert row.antipalindrome_count == sum(1 for w in fs if is_antipalindrome(w)), n
        assert idx.factors(n) == fs, n


def test_certification_matches_sequential_scan_past_the_packed_keys():
    tops = set()
    expected = {}  # by (prefix, stable_up_to): many hosts share a prefix such as 0^1200
    for m, letter in _prolongable_indexes(2):
        idx = build_index(m, letter, 1200, 300)
        assert idx.stable_up_to == bf_stable_up_to(idx.prefix, 300), (str(m), letter)
        if idx.stable_up_to > 64:  # the queries past 64 letters compare rank pairs
            key = (idx.prefix, idx.stable_up_to)
            if key not in expected:
                expected[key] = tuple(bf_bispecials(*key)), bf_e_closed(*key)
            bispecials, closed = expected[key]
            assert idx.bispecials() == bispecials, (str(m), letter)
            assert idx.e_closure_check() is closed, (str(m), letter)
        tops.add(idx.stable_up_to)
    assert {129, 217, 232, 300} <= tops
    assert sorted(closed for _, closed in expected.values()) == [False] * 8 + [True] * 4


def test_census_monotone_under_longer_prefix():
    small = build_index(THETA, "0", 4096, 64).census()
    big = build_index(THETA, "0", 8192, 64).census()
    for s, b in zip(small, big):
        assert b.factor_count >= s.factor_count
        assert b.palindrome_count >= s.palindrome_count
        assert b.antipalindrome_count >= s.antipalindrome_count


def test_stability_certification():
    idx = build_index(THETA, "0", 4000, 64)
    assert idx.stable_up_to == 64
    # a short prefix cannot certify long factors
    idx = build_index(THETA, "0", 256, 64)
    assert 0 < idx.stable_up_to < 64
    # downward consistency of the certified sets
    idx = build_index(FIB, "0", 2000, 32)
    for n in range(1, idx.stable_up_to + 1):
        shorter = idx.factors(n - 1)
        assert {w[:-1] for w in idx.factors(n)} <= shorter
        assert {w[1:] for w in idx.factors(n)} <= shorter


def test_special_factors():
    bispecials = build_index(FIB, "0", 4000, 32).bispecials()
    assert "" in bispecials and "0" in bispecials
    assert "1" not in bispecials  # 1 is always followed by 0
    idx_t = build_index(THETA, "0", 4000, 32)
    bispecials = idx_t.bispecials()
    assert "" in bispecials
    for w in bispecials:
        assert {w + "0", w + "1", "0" + w, "1" + w} <= idx_t.factors(len(w) + 1), w


def test_e_closure():
    assert build_index(THETA, "0", 4000, 32).e_closure_check() is True
    assert build_index(FIB, "0", 4000, 32).e_closure_check() is False
    assert build_index(Morphism("01", "01"), "0", 4000, 32).e_closure_check() is True


def test_antipal_center():
    idx = build_index(THETA, "0", 4000, 64)
    assert idx.antipal_center(0) == ""
    w = idx.antipal_center(2)
    assert len(w) == 2 and exchange(w) + w in idx.factors(4)
    long = idx.antipal_center(30)
    assert len(long) == 30  # keeps growing on an antipalindromic word
    idx_f = build_index(FIB, "0", 4000, 64)
    assert len(idx_f.antipal_center(30)) <= 2  # growth stalls


def test_bispecial_successor():
    assert bispecial_successor(FIB, "") == "0"
    assert bispecial_successor(THETA, "0") == "01"
    chain_q = bispecial_successor(FIB, "")  # q itself for the empty seed
    assert chain_q == "0"
    with pytest.raises(CyclicMorphism):
        bispecial_successor(Morphism("01", "01"), "")


def test_bispecial_orbit_stays_bispecial():
    for m in (FIB, THETA):
        idx = build_index(m, "0", 60000, 512)
        bispecials = idx.bispecials()
        for seed in [w for w in bispecials if len(w) <= 2]:
            orbit = bispecial_orbit(m, seed, 4)
            assert isinstance(orbit, BispecialOrbit)
            for w in orbit.steps:
                if len(w) + 1 <= idx.stable_up_to:
                    assert w in bispecials


def test_antipalindromic_bispecials_at_several_lengths():
    # an antipalindromic fixed point has antipalindromic bispecial factors
    # at three or more distinct lengths inside the certified range
    for m in (THETA, Morphism("0110", "1001")):
        idx = build_index(m, "0", 60000, 256)
        lengths = {len(w) for w in idx.bispecials() if w and is_antipalindrome(w)}
        assert len(lengths) >= 3, (str(m), sorted(lengths))


def test_short_census_reads_no_ids_and_no_search(monkeypatch):
    """Certification and every row up to 64 letters come from the sorted
    windows: no window ids and no binary search on ``_stable_at``."""
    calls = {"_ids": 0, "_stable_at": 0}
    for name in calls:
        method = getattr(language.FactorIndex, name)

        def counted(self, n, name=name, method=method):
            calls[name] += 1
            return method(self, n)

        monkeypatch.setattr(language.FactorIndex, name, counted)
    idx = build_index(THETA, "0", 100000, 64)
    idx.census()
    assert idx.stable_up_to == 64
    assert calls == {"_ids": 0, "_stable_at": 0}


def test_window_keys_match_bruteforce_windows():
    """The byte-packed keys at every size up to 130 letters and at 1001:
    byte and 64-letter boundaries, and the zeros past the end."""
    rng = np.random.default_rng(21)
    for size in (*range(1, 131), 1001):
        text = "".join(rng.choice(["0", "1"], size))
        keys = language._window_keys(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))
        expected = [int(text[i : i + 64].ljust(64, "0"), 2) for i in range(size)]
        assert keys.dtype == np.uint64 and keys.tolist() == expected, size


# stable_up_to 64 (the census indexes' shape), 33, 129 and 257 (past the
# packed keys, so rank-pair ids, and for 257 centres longer than 64), 1 and 0
BATCHED_INDEXES = (
    (THETA, 4000, 64),
    (FIB, 4000, 64),
    (Morphism("0110", "1001"), 4000, 64),
    (THETA, 256, 64),
    (THETA, 1200, 300),
    (THETA, 2400, 600),
    (THETA, 8, 2),
    (Morphism("000001", "1"), 8, 2),
)


@pytest.mark.parametrize(
    "m, prefix_len, n_max", BATCHED_INDEXES, ids=[f"{m}@{p}/{n}" for m, p, n in BATCHED_INDEXES]
)
def test_batched_queries_match_bruteforce_sets(m, prefix_len, n_max):
    idx = build_index(m, "0", prefix_len, n_max)
    p, top = idx.prefix, idx.stable_up_to
    assert top == bf_stable_up_to(p, n_max)
    lengths = range(1, min(n_max, 130) + 1)
    rows = [(r.factor_count, r.palindrome_count, r.antipalindrome_count) for r in idx.census(lengths)]
    assert rows == [_bf_row(p, n) for n in lengths]
    assert idx.bispecials() == tuple(bf_bispecials(p, top))
    for limit in (0, 1, 5, 32, 33, 64, 100, 300):
        assert idx.antipal_center(limit) == bf_antipal_center(idx, limit), limit


def test_batched_indexes_reach_each_case():
    tops = [build_index(m, "0", prefix_len, n_max).stable_up_to for m, prefix_len, n_max in BATCHED_INDEXES]
    assert tops == [64, 64, 64, 33, 129, 257, 1, 0]
    assert build_index(THETA, "0", 8, 2).bispecials() == ("",)
    assert len(build_index(THETA, "0", 2400, 600).antipal_center(100)) == 100


def test_census_sparse_grid():
    idx = build_index(THETA, "0", 4096, 512)
    rows = idx.census([2, 4, 64, 256])
    assert [r.length for r in rows] == [2, 4, 64, 256]
    with pytest.raises(BadBounds):
        idx.census([0])
    with pytest.raises(BadBounds):
        idx.census([513])
