import itertools

import pytest

from cubefree import oracle, thue_morse, words
from cubefree.thue_morse import (
    complement,
    find_occurrence_after,
    is_tm_factor,
    splice_pattern,
    tm_prefix,
    tm_range,
)

DISPLAYED_32 = "abbabaabbaababbabaababbaabbabaab"


def test_tm_prefix_examples():
    assert tm_prefix(8) == "abbabaab"
    assert tm_prefix(0) == ""
    assert tm_prefix(16) == "abbabaabbaababba"
    assert tm_prefix(32) == DISPLAYED_32
    with pytest.raises(ValueError):
        tm_prefix(-1)


def test_tm_prefix_matches_parity_formula():
    # independent route: letter i is 'a' iff popcount(i-1) is even
    assert tm_prefix(4096) == oracle.tm_prefix_by_parity(4096)


def test_morphism_fixed_point():
    for k in range(1, 11):
        prev = tm_prefix(2 ** (k - 1))
        image = "".join("ab" if ch == "a" else "ba" for ch in prev)
        assert tm_prefix(2**k) == image


def test_tm_range_examples():
    assert tm_range(6, 16) == "aabbaababba"
    assert tm_range(20, 30) == "babbaabbaba"
    assert tm_range(1, 1) == "a"
    with pytest.raises(ValueError):
        tm_range(5, 4)
    with pytest.raises(ValueError):
        tm_range(0, 3)


def test_is_tm_factor():
    assert is_tm_factor("abba")
    assert not is_tm_factor("aaa")
    assert not is_tm_factor("aabaa")
    assert is_tm_factor("")
    with pytest.raises(ValueError):
        is_tm_factor("abc")


def test_find_occurrence_after():
    assert find_occurrence_after("ab", 1) == 1
    # derived against the independent parity prefix
    window = oracle.tm_prefix_by_parity(64)
    assert find_occurrence_after("ab", 2) == window.index("ab", 1) + 1 == 4
    assert find_occurrence_after("", 7) == 7
    with pytest.raises(ValueError):
        find_occurrence_after("aabaa", 1)


def test_find_occurrence_all_restarts():
    # every reported occurrence really matches, for a spread of patterns/starts
    for pattern in ("a", "b", "ab", "abba", "baab", "abbabaab"):
        for start in (1, 5, 17, 50):
            i = find_occurrence_after(pattern, start)
            assert i >= start
            assert tm_range(i, i + len(pattern) - 1) == pattern


def test_splice_pattern_examples():
    w = splice_pattern("ab", "ba")
    assert w == "abbaba"
    assert w.startswith("ab") and w.endswith("ba") and len(w) >= 5
    assert is_tm_factor(w)

    w = splice_pattern("a", "a")
    assert w == "abba"
    assert len(w) >= 3 and w[0] == "a" and w[-1] == "a"

    with pytest.raises(ValueError):
        splice_pattern("aaa", "a")


def test_splice_pattern_long_inputs():
    u1 = tm_range(5, 24)
    v1r = words.reverse(tm_range(9, 30))
    w = splice_pattern(u1, v1r)
    assert w.startswith(u1) and w.endswith(v1r)
    assert is_tm_factor(w)


def _factors_upto(text: str, max_len: int) -> set[str]:
    out = set()
    for length in range(1, max_len + 1):
        for i in range(len(text) - length + 1):
            out.add(text[i : i + length])
    return out


def test_factor_set_closed_under_reversal_and_complement():
    window = tm_prefix(4096)
    factors = _factors_upto(window, 12)
    for f in factors:
        assert is_tm_factor(words.reverse(f))
        assert is_tm_factor(complement(f))


def test_tm_factors_are_uniform():
    window = tm_prefix(4096)
    for bad in ("aabaa", "aababaa", "bbabb", "bbababb"):
        assert bad not in window


def test_prefix_is_overlap_free():
    assert oracle.is_overlap_free(tm_prefix(4096))
    assert words.is_cube_free(tm_prefix(4096))


def test_factor_search_window_is_sufficient():
    # the 7 * _block_length(|w|) search window must already contain every
    # factor of each length the pipeline queries: compare against a much
    # larger window
    big = tm_prefix(1 << 14)
    for length in range(1, 17):
        window = tm_prefix(7 * thue_morse._block_length(length))
        in_window = {window[i : i + length] for i in range(len(window) - length + 1)}
        in_big = {big[i : i + length] for i in range(len(big) - length + 1)}
        assert in_window == in_big, length


def test_block_length():
    assert [thue_morse._block_length(n) for n in range(1, 18)] == [1, 2, 4, 4] + [8] * 4 + [16] * 8 + [32]


def test_every_nine_letter_factor_holds_all_four_pairs():
    # the lemma behind the occurrence cap; T[1..112] holds every 9-letter
    # factor of T, by the block argument of _block_length
    pairs = {"aa", "ab", "ba", "bb"}
    prefix = tm_prefix(112)
    for i in range(len(prefix) - 8):
        assert {prefix[i + j : i + j + 2] for j in range(8)} == pairs, i + 1
    assert {prefix[j : j + 2] for j in range(6)} == pairs  # all in T[1..7]


def test_search_bounds_hold_up_to_twelve_letters():
    # against the independent parity prefix: every binary word of <= 12
    # letters is recognized exactly, and every factor's first occurrence
    # from each start <= 2000 lies below the cap and is the one found
    text = oracle.tm_prefix_by_parity(4096)
    for n in range(1, 13):
        block = thue_morse._block_length(n)
        factors = {text[i : i + n] for i in range(len(text) - n + 1)}
        for letters in itertools.product("ab", repeat=n):
            w = "".join(letters)
            assert is_tm_factor(w) == (w in factors), w
        for w in factors:
            for start in range(1, 2001):
                i = text.find(w, start - 1) + 1
                assert start <= i < start + 9 * block, (w, start)
                assert find_occurrence_after(w, start) == i, (w, start)
