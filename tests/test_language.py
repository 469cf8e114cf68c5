import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from antipal import language
from antipal.errors import BadBounds, CyclicMorphism, NotProlongable
from antipal.language import (
    bispecial_orbit,
    bispecial_successor,
    build_index,
)
from antipal.morphisms import (
    Morphism,
    fixed_point_prefix,
    fixed_point_source,
    is_primitive,
    parse_morphism,
    prolongable_letters,
    proven_prefix_len,
)
from antipal.words import exchange, is_antipalindrome, is_palindrome
from bruteforce import (
    bf_antipal_center,
    bf_bispecials,
    bf_e_closed,
    bf_factor_set,
    bf_language,
    bf_scan_space,
    words_up_to,
)

FIB = Morphism("01", "0")
THETA = Morphism("01", "10")

_LANGUAGES = {}


def _language(m, letter, n):
    """``bf_language``, kept: several tests read the same languages."""
    if (m, letter, n) not in _LANGUAGES:
        _LANGUAGES[m, letter, n] = frozenset(bf_language(m, letter, n))
    return _LANGUAGES[m, letter, n]


def _primitive_records(max_image_len):
    """(host, letter) of the fixed point read for each primitive morphism
    of the scan space with images of up to ``max_image_len`` letters."""
    for text in bf_scan_space(max_image_len):
        m = parse_morphism(text)
        if is_primitive(m) and (source := fixed_point_source(m)):
            yield source[1:]


def _proven_scan(m, letter, prefix, n_max):
    """The lengths n <= n_max whose proven prefix length fits in ``prefix``, one by one."""
    bounds = [proven_prefix_len(m, letter, n, prefix) for n in range(1, n_max + 1)]
    return [n for n, bound in enumerate(bounds, 1) if bound is not None and bound <= len(prefix)]


def test_build_index_basics():
    idx = build_index(THETA, "0", 64, 2)
    assert idx.factors(2) == {"00", "01", "10", "11"}
    idx = build_index(FIB, "0", 64, 2)
    assert idx.factors(2) == {"00", "01", "10"}
    assert idx.factors(1) == {"0", "1"}
    assert idx.factors(0) == {""}
    with pytest.raises(BadBounds):
        build_index(THETA, "0", 64, 65)
    idx = build_index(THETA, "0", 64, 32)  # n_max past prefix_len // 4
    rows = [(r.factor_count, r.palindrome_count, r.antipalindrome_count) for r in idx.census()]
    assert rows == [_bf_row(idx.prefix, n) for n in range(1, 33)]
    with pytest.raises(NotProlongable):
        build_index(FIB, "1", 64, 2)


# Thue-Morse at 256 letters certifies 64, as N(64) = 255; 0->0101,1->1100
# there certifies fewer than n_max lengths, as N(64) = 479, so factors() also
# reads uncertified rows; 0->000001 at 8 letters certifies none, and
# Fibonacci at n_max 2 stops just where E-closure first fails.  Thue-Morse
# and Fibonacci at (1200, 300) certify past 64 letters, and have bispecial
# factors longer than the packed keys.
EXACT_SET_INDEXES = (
    (THETA, 512, 16),
    (THETA, 256, 64),
    (Morphism("0101", "1100"), 256, 64),
    (THETA, 4000, 64),
    (FIB, 4000, 64),
    (FIB, 2000, 2),
    (Morphism("01", "01"), 4000, 64),
    (Morphism("000001", "1"), 8, 2),
    (THETA, 1200, 300),
    (FIB, 1200, 300),
)


def _language_row(m, letter, n):
    """(factors, palindromes, antipalindromes) of L_n."""
    words = _language(m, letter, n)
    return len(words), sum(map(is_palindrome, words)), sum(map(is_antipalindrome, words))


@pytest.mark.parametrize("prefix_len", [200, 1000, 25000])
def test_certified_rows_are_the_block_closure(prefix_len):
    """Every certified row of every primitive record with images of up to 4
    letters counts L_n, by the block closure of the fixed point, and the
    top certified length's factors are L_n itself.  Certifying by the half
    prefix instead leaves wrong certified rows at 200 and 1000 letters."""
    n_max = min(64, prefix_len // 4)
    tops = []
    for host, letter in _primitive_records(4):
        idx = build_index(host, letter, prefix_len, n_max)
        top = idx.stable_up_to
        for row in idx.census()[:top]:
            counts = row.factor_count, row.palindrome_count, row.antipalindrome_count
            assert counts == _language_row(host, letter, row.length), (str(host), letter, row.length)
        assert top == 0 or idx.factors(top) == _language(host, letter, top), (str(host), letter)
        tops.append(top)
    assert len(tops) == 341 and 0 < min(tops)
    assert (max(tops) == n_max) and (prefix_len == 25000 or min(tops) < n_max)


def test_a_short_prefix_does_not_certify_a_missing_word():
    """The 200-letter prefix of 0->0001,1->0011 has 33 of the 34 words of
    L_17 (the last first occurs at letter 234), so 17 is not certified."""
    m = Morphism("0001", "0011")
    idx = build_index(m, "0", 200, 50)
    assert len(_language(m, "0", 17)) == 34 and len(idx.factors(17)) == 33
    assert idx.stable_up_to < 17


# Records whose half and full 25000-letter prefixes share every n-factor up
# to 64 letters, while both miss words of L_n from the length given.
HALF_PREFIX_MISSES = (
    ("0->11110,1->0000000", 41),
    ("0->111110,1->000000", 45),
    ("0->111110,1->0000000", 50),
    ("0->1111110,1->0000000", 59),
)


@pytest.mark.parametrize("text, wrong", HALF_PREFIX_MISSES, ids=[t for t, _ in HALF_PREFIX_MISSES])
def test_no_wrong_certified_row_where_the_half_prefix_misses_words(text, wrong):
    _, host, letter = fixed_point_source(parse_morphism(text))
    idx = build_index(host, letter, 25000, 64)
    assert len(idx.factors(wrong)) < len(_language(host, letter, wrong))
    assert idx.stable_up_to < wrong
    for row in idx.census()[: idx.stable_up_to]:
        counts = row.factor_count, row.palindrome_count, row.antipalindrome_count
        assert counts == _language_row(host, letter, row.length), row.length


def _first_occurrence_ends(text, size):
    """For n = 1..64, the end of the last first occurrence of an n-letter
    word at the first ``size`` starts of ``text`` (which runs 63 letters
    past them): the 64-letter windows there (``_window_keys``, checked
    against string windows below) are matched against the distinct ones of
    a head that grows until it holds them all, and the first start of a
    word is the least of those of the distinct windows it heads."""
    keys = language._window_keys(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))[:size]
    head = 4096
    while True:
        distinct, first = np.unique(keys[:head], return_index=True)
        at = np.searchsorted(distinct, keys).clip(max=distinct.size - 1)
        if (distinct[at] == keys).all():
            break
        head *= 4
    ends = []
    for n in range(1, 65):
        heads = distinct >> np.uint64(64 - n)
        groups = np.flatnonzero(np.concatenate(([True], heads[1:] != heads[:-1])))
        ends.append(int(np.minimum.reduceat(first, groups).max()) + n)
    return ends


def test_proven_prefix_len_holds_every_first_occurrence():
    """On every primitive record with images of up to 5 letters, N(n) for
    n <= 64 is at least the end of the last first occurrence of an n-letter
    word in a 10**5-letter prefix: the bound read against the fixed point,
    not against the block closure it is built from."""
    size, records = 10**5, 0
    for host, letter in _primitive_records(5):
        text = fixed_point_prefix(host, letter, size + 63)
        ends = _first_occurrence_ends(text, size)
        for n, end in enumerate(ends, 1):
            bound = proven_prefix_len(host, letter, n, text[:size])
            assert bound is not None and bound >= end, (str(host), letter, n, bound, end)
        records += 1
    assert records == 1638


def test_factor_sets_match_bruteforce():
    for m, prefix_len, n_max in EXACT_SET_INDEXES:
        idx = build_index(m, "0", prefix_len, n_max)
        for n in range(n_max + 1):
            assert idx.factors(n) == bf_factor_set(idx.prefix, n), (str(m), prefix_len, n)


def test_exact_set_indexes_reach_each_case():
    assert build_index(THETA, "0", 256, 64).stable_up_to == 64
    assert 0 < build_index(Morphism("0101", "1100"), "0", 256, 64).stable_up_to < 64
    assert build_index(FIB, "0", 2000, 2).stable_up_to == 2
    assert build_index(Morphism("000001", "1"), "0", 8, 2).stable_up_to == 0
    for m in (THETA, FIB):
        long = build_index(m, "0", 1200, 300)
        assert long.stable_up_to > 64
        assert any(len(w) >= 64 for w in long.bispecials())


def test_bispecials_and_e_closure_match_bruteforce():
    for m, prefix_len, n_max in EXACT_SET_INDEXES:
        idx = build_index(m, "0", prefix_len, n_max)
        top = idx.stable_up_to
        assert top == 0 or idx.factors(top) == _language(m, "0", top), (str(m), prefix_len)
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
    """``stable_up_to`` is the largest n whose proven prefix length fits, and
    the lengths that fit are downward closed (N is nondecreasing), by a
    scan of every length; each certified length holds all of L_n, by the
    block closure of the fixed point."""
    checked = 0
    for m, letter in _prolongable_indexes(3):
        idx = build_index(m, letter, prefix_len, n_max)
        top = idx.stable_up_to
        assert _proven_scan(m, letter, idx.prefix, n_max) == list(range(1, top + 1)), (str(m), letter)
        for n in range(1, top + 1):
            assert idx.factors(n) == _language(m, letter, n), (str(m), letter, n)
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
        # certified past 64 letters: the rank levels and the long bispecials
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
    """Certification reads the proven prefix length alone and builds no
    rank level; the census climbs to the 1024-letter level, and the
    queries after it read the levels from 64 up again and must find them
    kept."""
    built = []
    level_ranks = language._level_ranks
    monkeypatch.setattr(language, "_level_ranks", lambda *args: built.append(1) or level_ranks(*args))
    idx = build_index(Morphism("0110", "1001"), "0", 20000, 1250)
    assert idx.stable_up_to == 1250 and built == []
    lengths = [*range(1, 65), 96, 128, 192, 256, 384, 512, 768, 1024]
    idx.census(lengths)
    assert len(built) == 5  # the levels of 64, 128, 256, 512 and 1024 letters
    idx.census(lengths)
    idx.e_closure_check()
    assert len(built) == 5


def test_rank_levels_by_table_and_by_sort(monkeypatch):
    """A level whose pair ids number at most ``_TABLE`` is ranked through a
    table, a wider one by a sort; both give the same dense ranks, so every
    level and every answer must be the same whichever path each level takes.
    At (20000, 1250) the default tables the 128- to 512-letter levels and
    sorts the 1024-letter one."""
    counts = {"0->0110,1->1001": [190, 382, 766, 1534], "0->0101,1->1100": [222, 476, 894, 1916]}
    for m in (Morphism("0110", "1001"), Morphism("0101", "1100")):

        def answers():
            idx = build_index(m, "0", 20000, 1250)
            queries = (idx.census(), idx.stable_up_to, idx.bispecials(), idx.antipal_center(64))
            return [level.tolist() for level in idx._levels], queries

        tabled = []
        level_ranks = language._level_ranks
        with monkeypatch.context() as patch:
            patch.setattr(
                language,
                "_level_ranks",
                lambda keys, count=None: tabled.append(count is not None and count**2 <= language._TABLE)
                or level_ranks(keys, count),
            )
            expected = answers()
        levels = expected[0]
        assert [max(level) + 1 for level in levels[:4]] == counts[str(m)], str(m)
        assert tabled == [False, True, True, True, False], str(m)
        for table in (0, 2**24):
            with monkeypatch.context() as patch:
                patch.setattr(language, "_TABLE", table)
                assert answers() == expected, (str(m), table)


def test_dense_rank_by_packed_sort_and_by_argsort():
    """Keys that leave room for a start in an int64 (the pairs of every
    rank level, which a level too wide for a table sorts) are ranked by one
    packed sort, others by a sorted copy and a binary search, which leaves
    them as they are; both must give the ranks of the sorted distinct
    keys."""

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
    of up to 3 letters: rows up to 64 letters come from the indexed starts
    in the order of their windows, whose first starts must leave room for
    the length in the prefix and whose common heads must end where the
    windows first differ."""
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
        top = idx.stable_up_to
        assert _proven_scan(m, letter, idx.prefix, 300) == list(range(1, top + 1)), (str(m), letter)
        assert top == 0 or idx.factors(top) == _language(m, letter, top), (str(m), letter)
        if idx.stable_up_to > 64:  # the queries past 64 letters compare rank pairs
            key = (idx.prefix, idx.stable_up_to)
            if key not in expected:
                expected[key] = tuple(bf_bispecials(*key)), bf_e_closed(*key)
            bispecials, closed = expected[key]
            assert idx.bispecials() == bispecials, (str(m), letter)
            assert idx.e_closure_check() is closed, (str(m), letter)
        tops.add(idx.stable_up_to)
    assert {0, 257, 300} == tops
    assert sorted(closed for _, closed in expected.values()) == [False] * 8 + [True] * 4


def test_bispecials_where_start_0_has_no_letter_before_it():
    """Start 0 of ``0->1,1->101`` from letter 1 lies inside the runs of
    windows of bispecial factors past 64 letters, and has no letter before
    it: it takes the letter before its neighbour of longer common head.
    The hosts with images of up to 2 letters never reach this past 64."""
    idx = build_index(Morphism("1", "101"), "1", 1200, 300)
    bispecials = idx.bispecials()
    assert idx.stable_up_to == 300 and max(map(len, bispecials)) == 237
    assert int(idx._places[0]) == 557
    assert bispecials == tuple(bf_bispecials(idx.prefix, 300))


def test_since_matches_bruteforce():
    def since(values, marks):
        out = []
        for i in range(len(values)):
            marked = [m for m in range(i + 1) if marks[m]]
            out.append(min(values[marked[-1] : i + 1]) if marked else -1)
        return out

    rng = np.random.default_rng(50)
    cases = [(np.zeros(0, dtype=np.int32), np.zeros(0, dtype=bool))]
    for size in (1, 2, 7, 40):
        values = rng.integers(0, 9, size).astype(np.int32)
        cases += [(values, np.zeros(size, dtype=bool)), (values, np.arange(size) == 0)]
        cases += [(values, rng.random(size) < p) for p in (0.1, 0.5, 0.9)]
    for values, marks in cases:
        assert language._since(values, marks).tolist() == since(values.tolist(), marks.tolist())


def test_bispecials_read_no_length_alone(monkeypatch):
    """The bispecial factors of every length come from one pass over the
    order of the indexed starts: none is read from the first starts of one
    length."""
    idx = build_index(Morphism("0110", "1001"), "0", 20000, 1250)
    idx.census()

    def per_length(*args):
        raise AssertionError("a pass per length")

    monkeypatch.setattr(language.FactorIndex, "_starts", per_length)
    assert max(map(len, idx.bispecials())) == 1024


def test_exchange_ids_past_the_packed_keys():
    """Past 64 letters the exchange ids come from the maps of a rank level:
    each must be the id of the exchanged factor when that word is a factor
    of the prefix, and -1 when it is not."""
    found = [0, 0]  # [images that are factors, images that are not]
    for m, letter in _prolongable_indexes(2):
        idx = build_index(m, letter, 1200, 300)
        for n in range(65, idx.stable_up_to + 1):
            starts = idx._starts(n)
            ids, image = idx._images(n, starts)
            words = [idx.prefix[i : i + n] for i in starts.tolist()]
            id_of = dict(zip(words, ids.tolist()))
            assert set(id_of) == idx.factors(n), (str(m), letter, n)
            expected = [id_of.get(exchange(w), -1) for w in words]
            assert image.tolist() == expected, (str(m), letter, n)
            found[0] += sum(e >= 0 for e in expected)
            found[1] += expected.count(-1)
    assert all(found), found


def test_aligned_masks_match_bruteforce_at_every_start():
    """Past 64 letters a window is compared with its mirror image and its
    exchange where it stands, 64 letters of its first half at a time: at
    every start of the indexed letters, not only first starts, and at every
    length 65..300, odd or even, the masks must be those of the strings.
    The lengths whose half is no multiple of 64 check the last, partial
    block, and the halves past 64 letters the blocks after the first.
    ``0->001,1->011`` has odd windows x a E(x), whose first half matches
    their exchange although no odd word is an antipalindrome."""
    size, n_max = 1200, 300
    expected = {}  # by indexed text: many hosts share a prefix such as 0^1200
    hits = {"palindrome": set(), "antipalindrome": set()}
    odd_halves = 0
    for m, letter in [*_prolongable_indexes(2), (Morphism("001", "1"), "0"), (Morphism("001", "011"), "0")]:
        idx = build_index(m, letter, size, n_max)
        text = idx.prefix[: idx._size]
        if text not in expected:
            expected[text] = {}
            for n in range(65, n_max + 1):
                words = [text[i : i + n] for i in range(len(text) - n + 1)]
                expected[text][n] = [w == w[::-1] for w in words], [w == exchange(w) for w in words]
                odd_halves += n % 2 and sum(w[: n // 2] == exchange(w)[: n // 2] for w in words)
        for n, (palindromes, antipalindromes) in expected[text].items():
            starts = np.arange(idx._size - n + 1)
            got = idx._aligned(n, starts, np.uint64(0)), idx._aligned(n, starts, language._ALL)
            assert got[0].tolist() == palindromes, (str(m), letter, n)
            assert got[1].tolist() == antipalindromes, (str(m), letter, n)
            for name, mask in zip(hits, got):
                if mask.any() and not mask.all():
                    hits[name].add((n % 2, n // 2 > 64, n // 2 % 64 > 0))
    # each mask is seen both set and clear at even and odd lengths (even
    # only for antipalindromes), with one block and with several, and with
    # a partial last block
    assert {(0, True, True), (0, False, True), (1, True, True), (1, False, True)} <= hits["palindrome"]
    assert {(0, True, True), (0, False, True)} <= hits["antipalindrome"]
    assert all(parity == 0 for parity, _, _ in hits["antipalindrome"])
    assert odd_halves > 0


def test_long_rows_and_first_starts_match_bruteforce():
    """Every row of 1..300 letters, certified or not, of the indexes with
    images of up to 2 letters at (1200, 300), and one start per distinct
    factor, the first, in the order of the words, at every length.  The growing runs of
    0 -> 001, 1 -> 1 put first occurrences of long factors within the last
    C = 512 letters, where their windows run past the prefix."""
    size, n_max, reach = 1200, 300, 512
    lengths = range(1, n_max + 1)
    expected = {}  # by prefix: many hosts share a prefix such as 0^1200
    late = 0
    for m, letter in [*_prolongable_indexes(2), (Morphism("001", "1"), "0")]:
        idx = build_index(m, letter, size, n_max)
        p = idx.prefix
        if p not in expected:
            firsts = []
            for n in lengths:
                first = {}
                for i in range(size - n + 1):
                    first.setdefault(p[i : i + n], i)
                firsts.append([first[w] for w in sorted(first)])
            expected[p] = [_bf_row(p, n) for n in lengths], firsts
        rows, firsts = expected[p]
        got = [(r.factor_count, r.palindrome_count, r.antipalindrome_count) for r in idx.census(lengths)]
        assert got == rows, (str(m), letter)
        assert [idx._starts(n).tolist() for n in lengths] == firsts, (str(m), letter)
        late += str(m) == "0->001,1->1" and max(map(max, firsts)) > size - reach
    assert late == 1


def test_factors_past_the_census_lengths_match_bruteforce():
    """``factors`` is not bounded by n_max: past 64 letters on an index
    that never reads past 64, and past C on one that does, it must still
    give the exact sets."""
    for m, n_max in ((THETA, 64), (FIB, 100)):
        idx = build_index(m, "0", 1000, n_max)
        for n in (65, 100, 128, 129, 300, 999, 1000):
            assert idx.factors(n) == bf_factor_set(idx.prefix, n), (str(m), n)


def test_first_starts_of_an_uncertified_index_match_bruteforce():
    """``0->0,1->1111110`` has no proven prefix length, so its index keys
    all 100000 letters, and the runs of 1s grow: distinct windows first
    occur far into the text, the last of them at 55981, and every first
    start must still be the least start of its window."""
    m, size = Morphism("0", "1111110"), 100000
    idx = language.FactorIndex(m, "1", size, 64)
    assert idx.stable_up_to == 0 and idx._size == size
    p = idx.prefix
    for n in (6, 7, 16, 64):
        first = {}
        for i in range(size - n + 1):
            first.setdefault(p[i : i + n], i)
        assert idx._starts(n).tolist() == [first[w] for w in sorted(first)], n
        assert max(first.values()) == 55981, n


def test_rank_levels_cover_the_prefix_only():
    """Level k ranks the (64 * 2**k)-letter windows of the indexed letters,
    the first N = N(n_max) of the prefix, and of the C = 2048 letters after
    them (the least 64 * 2**k >= n_max), so that every start of the indexed
    letters has a window at every level: N + C - 64 * 2**k + 1 of them, with
    an exchange map on its distinct ranks."""
    m = Morphism("0110", "1001")
    idx = build_index(m, "0", 20000, 1250)
    idx._level_maps(4)
    reach, size = 2048, proven_prefix_len(m, "0", 1250, idx.prefix)
    assert size < idx.prefix_len and idx._keys.size == size + reach
    for k, rank in enumerate(idx._levels):
        assert rank.size == size + reach - (64 << k) + 1, k
        assert [idx._maps[k].size] == [int(rank.max()) + 1], k
    assert len(idx._levels) == len(idx._maps) == 5


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
    # the 255-letter prefix holds every word of L_64, and no shorter one does
    assert build_index(THETA, "0", 256, 64).stable_up_to == 64
    assert _language(THETA, "0", 64) - bf_factor_set(idx.prefix[:254], 64)
    # a short prefix cannot certify long factors
    idx = build_index(THETA, "0", 1000, 250)
    assert 0 < idx.stable_up_to < 250
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
            assert isinstance(orbit, tuple) and len(orbit) == 4
            for w in orbit:
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
    """Certification reads the proven prefix length once, at n_max, and
    every row up to 64 letters comes from the order of the 64-letter keys
    at the N(64) = 255 letters that hold all of L_64: no rank level is
    built, and no search for a shorter certified length is made."""
    calls = {"_ranks": [], "proven_prefix_len": []}
    ranks, proven = language.FactorIndex._ranks, language.proven_prefix_len
    monkeypatch.setattr(language.FactorIndex, "_ranks", lambda self, k: calls["_ranks"].append(k) or ranks(self, k))
    monkeypatch.setattr(
        language, "proven_prefix_len", lambda *args: calls["proven_prefix_len"].append(args[2]) or proven(*args)
    )
    idx = build_index(THETA, "0", 100000, 64)
    idx.census()
    assert idx.stable_up_to == 64 and idx._keys.size == 255 + 64
    assert calls == {"_ranks": [], "proven_prefix_len": [64]}


def test_only_the_exchange_closure_builds_exchange_maps():
    """The census, antipal_center and bispecials read the keys, ``_back``
    and the rank levels only: past 64 letters they test each window where
    it stands and build no exchange map.  e_closure_check looks up the
    exchanges of the top windows, which need not occur in the text, so it
    builds one exchange map on each rank level up to the top one."""
    idx = build_index(Morphism("0110", "1001"), "0", 20000, 1250)
    idx.census([*range(1, 65), 96, 128, 192, 256, 384, 512, 768, 1024, 1250])
    assert len(idx.antipal_center(625)) > 64
    idx.bispecials()
    assert idx._maps == []
    assert idx.e_closure_check() is True
    assert len(idx._maps) == len(idx._levels) == 5  # the top windows' level, 1024 letters, and those below
    for psi, rank in zip(idx._maps, idx._levels):
        assert psi.dtype == np.int32 and psi.size == int(rank.max()) + 1


def test_window_keys_match_bruteforce_windows():
    """The byte-packed keys at every size up to 130 letters and at 1001:
    byte and 64-letter boundaries, and the zeros past the end."""
    rng = np.random.default_rng(21)
    for size in (*range(1, 131), 1001):
        text = "".join(rng.choice(["0", "1"], size))
        keys = language._window_keys(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))
        expected = [int(text[i : i + 64].ljust(64, "0"), 2) for i in range(size)]
        assert keys.dtype == np.uint64 and keys.tolist() == expected, size


def test_back_keys_match_bruteforce_windows():
    """``_back[e]`` packs the 64 letters before every end e = 0..L of the
    keyed text, last letter first and letters before 0 read as 0, at every
    size up to 130 letters and at 1001."""
    rng = np.random.default_rng(22)
    for size in (*range(1, 131), 1001):
        text = "".join(rng.choice(["0", "1"], size))
        idx = object.__new__(language.FactorIndex)  # _back reads the keyed text alone
        idx._bits = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
        expected = [int(text[max(0, e - 64) : e][::-1].ljust(64, "0"), 2) for e in range(size + 1)]
        assert idx._back.dtype == np.uint64 and idx._back.tolist() == expected, size


# stable_up_to 64 (the census indexes' shape, and Thue-Morse at N(64) =
# 255 letters), 33, 129, 257 and 513 (past the packed keys, so rank-pair
# ids, and from 257 on centres longer than 64), 2, 1 (N(2) = 10 > 8
# letters) and 0 (a letter that never grows)
BATCHED_INDEXES = (
    (THETA, 4000, 64),
    (FIB, 4000, 64),
    (Morphism("0110", "1001"), 4000, 64),
    (THETA, 256, 64),
    (Morphism("0101", "1100"), 256, 64),
    (THETA, 600, 150),
    (THETA, 1200, 300),
    (THETA, 2400, 600),
    (THETA, 8, 2),
    (Morphism("011", "10"), 8, 2),
    (Morphism("000001", "1"), 8, 2),
)


@pytest.mark.parametrize(
    "m, prefix_len, n_max", BATCHED_INDEXES, ids=[f"{m}@{p}/{n}" for m, p, n in BATCHED_INDEXES]
)
def test_batched_queries_match_bruteforce_sets(m, prefix_len, n_max):
    idx = build_index(m, "0", prefix_len, n_max)
    p, top = idx.prefix, idx.stable_up_to
    assert top == 0 or idx.factors(top) == _language(m, "0", top)
    lengths = range(1, min(n_max, 130) + 1)
    rows = [(r.factor_count, r.palindrome_count, r.antipalindrome_count) for r in idx.census(lengths)]
    assert rows == [_bf_row(p, n) for n in lengths]
    assert idx.bispecials() == tuple(bf_bispecials(p, top))
    for limit in (0, 1, 5, 32, 33, 64, 100, 300):
        assert idx.antipal_center(limit) == bf_antipal_center(idx, limit), limit


def test_batched_indexes_reach_each_case():
    tops = [build_index(m, "0", prefix_len, n_max).stable_up_to for m, prefix_len, n_max in BATCHED_INDEXES]
    assert tops == [64, 64, 64, 64, 33, 129, 257, 513, 2, 1, 0]
    assert build_index(Morphism("011", "10"), "0", 8, 2).bispecials() == ("",)
    assert len(build_index(THETA, "0", 2400, 600).antipal_center(100)) == 100


def test_census_sparse_grid():
    idx = build_index(THETA, "0", 4096, 512)
    rows = idx.census([2, 4, 64, 256])
    assert [r.length for r in rows] == [2, 4, 64, 256]
    with pytest.raises(BadBounds):
        idx.census([0])
    with pytest.raises(BadBounds):
        idx.census([513])
