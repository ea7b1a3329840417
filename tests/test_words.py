import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubefree import oracle, thue_morse, words
from cubefree.words import (
    Alphabet,
    CubeWitness,
    append_check,
    find_cube,
    fine_wilf_period,
    is_cube_free,
    max_periodic_suffix,
    reverse,
)

binary_words = st.text(alphabet="ab", max_size=40)


def test_alphabet_bounds():
    assert Alphabet(2).letters == "ab"
    assert Alphabet(4).c_letters == "cd"
    with pytest.raises(ValueError):
        Alphabet(1)
    with pytest.raises(ValueError):
        Alphabet(27)


def test_validate_word():
    assert words.validate_word("abc") == 3
    assert words.validate_word("ab", 5) == 5
    assert words.validate_word("") == 2
    with pytest.raises(ValueError):
        words.validate_word("ab1")
    with pytest.raises(ValueError):
        words.validate_word("abc", 2)
    with pytest.raises(TypeError):
        words.validate_word(["a", "b"])  # letters, but not a string


def test_is_cube_free_examples():
    assert is_cube_free("abbabaab")  # prefix of the Thue-Morse word
    assert not is_cube_free("bbb")
    assert not is_cube_free("ababab")
    assert is_cube_free("")


def test_find_cube_examples():
    assert find_cube("aabaabaab") == CubeWitness(1, 3)
    assert find_cube("abbabaab") is None
    assert find_cube("babbb") == CubeWitness(3, 1)
    assert find_cube("aabaabaab").root("aabaabaab") == "aab"


def test_find_cube_tie_break_is_leftmost_then_smallest_period():
    # cubes at position 1 (period 3) and position 3 (period 1)
    w = "aabaabaabbb"
    assert find_cube(w) == CubeWitness(1, 3)
    # same position, two periods: period 1 wins
    assert find_cube("aaaaaa") == CubeWitness(1, 1)


def test_append_check_examples():
    assert append_check("aabaabaa", "b") == CubeWitness(1, 3)
    assert append_check("ab", "a") is None
    assert append_check("aa", "a") == CubeWitness(1, 1)


def test_append_check_precondition():
    with pytest.raises(ValueError):
        append_check("aaa", "b")
    # the fast path skips the precondition scan
    assert append_check("aaa", "a", assume_cube_free=True) is not None
    with pytest.raises(ValueError):
        append_check("ab", "xy")


@given(binary_words, st.sampled_from("ab"))
def test_append_check_matches_batch_recheck(w, x):
    if not is_cube_free(w):
        return
    assert (append_check(w, x) is None) == is_cube_free(w + x)


@given(binary_words, st.sampled_from("ab"))
def test_new_cubes_are_suffixes(w, x):
    if not is_cube_free(w):
        return
    witness = append_check(w, x)
    if witness is not None:
        assert witness.position + 3 * witness.period - 1 == len(w) + 1


def test_append_check_matches_the_oracle_loop_witness_by_witness():
    # bases with a cube included: under assume_cube_free=True the witness is
    # still the smallest-period cube suffix of w + x
    for letters, max_n in (("ab", 16), ("abc", 9), ("abcd", 7)):
        for n in range(max_n + 1):
            for t in itertools.product(letters, repeat=n):
                w = "".join(t)
                for x in letters:
                    assert append_check(w, x, assume_cube_free=True) == oracle._suffix_cube(w, x), (w, x)


def _planted_cases(base, periods):
    # base + x, and for each period p, with root the last p letters of
    # base, w + x ending in a planted cube: base + root^2, and root^3 behind
    # 0-2 letters, where p is a third of the length, rounded down
    cases = [(base, x) for x in "ab"]
    for p in periods:
        if 1 <= p <= len(base):
            cube = base[-p:] * 3
            cases += [(w[:-1], w[-1]) for w in (base + cube[p:], cube, base[:1] + cube, base[:2] + cube)]
    return cases


def test_append_check_matches_the_oracle_loop_on_long_factors_with_planted_cubes():
    t = thue_morse.tm_prefix(6000)
    for n in (10, 47, 48, 49, 50, 59, 60, 240, 961, 4000):
        for start in range(0, 2000, 101):
            base = t[start : start + n]
            for w, x in _planted_cases(base, (1, 2, 3, 5, 15, 16, 17, 18, n // 3)):
                assert append_check(w, x, assume_cube_free=True) == oracle._suffix_cube(w, x), (start, n)


def _fibonacci_prefix(n):
    w, v = "a", "ab"
    while len(v) < n:
        w, v = v, v + w
    return v[:n]


def test_append_check_matches_the_oracle_loop_on_fibonacci_factors():
    # the Fibonacci word holds cubes and each of its factors recurs often:
    # the most candidate periods a long-period search can meet; reversed, the
    # recurring factors sit at the end that the suffix check reads
    f = _fibonacci_prefix(16000)
    for n in (47, 48, 49, 50, 51, 144, 987, 4181, 15000):
        for start in (0, 1, 5, 13, 100, 377, 1000):
            for base in (f[start : start + n], f[start : start + n][::-1]):
                for w, x in _planted_cases(base, (15, 16, 17, 18, n // 3)):
                    assert append_check(w, x, assume_cube_free=True) == oracle._suffix_cube(w, x), (start, n)


def test_max_periodic_suffix_examples():
    assert max_periodic_suffix("aabaabaa", 3).length == 8
    assert max_periodic_suffix("abba", 1).length == 1
    assert max_periodic_suffix("ababa", 2).length == 5
    with pytest.raises(ValueError):
        max_periodic_suffix("abba", 0)
    with pytest.raises(ValueError):
        max_periodic_suffix("abba", 5)


def test_max_periodic_suffix_below_cube_on_cube_free_words():
    for w in oracle.iter_cube_free(2, 12):
        for p in range(1, len(w) + 1):
            assert max_periodic_suffix(w, p).length < 3 * p


def _suffix_has_period(w, length, p):
    start = len(w) - length
    return all(w[i] == w[i + p] for i in range(start, len(w) - p))


@given(binary_words, st.integers(min_value=1, max_value=40))
def test_max_periodic_suffix_is_maximal(w, p):
    if not 1 <= p <= len(w):
        return
    length = max_periodic_suffix(w, p).length
    assert _suffix_has_period(w, length, p)
    if length < len(w):
        assert not _suffix_has_period(w, length + 1, p)


def test_fine_wilf_examples():
    assert fine_wilf_period(4, 6, 8) == 2
    assert fine_wilf_period(4, 6, 7) is None
    assert fine_wilf_period(3, 3, 3) == 3
    with pytest.raises(ValueError):
        fine_wilf_period(0, 3, 5)


def test_reverse():
    assert reverse("aab") == "baa"
    assert reverse("") == ""
    assert reverse("abba") == "abba"


@given(binary_words)
def test_reverse_involution_and_cube_freeness(w):
    assert reverse(reverse(w)) == w
    assert is_cube_free(w) == is_cube_free(reverse(w))


@settings(max_examples=60)
@given(st.text(alphabet="abc", max_size=14))
def test_agrees_with_naive_oracle(w):
    assert is_cube_free(w) == oracle.naive_is_cube_free(w)


def _oracle_leftmost_cube(w):
    # independent scan: letter comparisons, same tie-break order
    n = len(w)
    for i in range(n):
        for p in range(1, (n - i) // 3 + 1):
            if all(w[i + k] == w[i + k + p] == w[i + k + 2 * p] for k in range(p)):
                return (i + 1, p)
    return None


@given(st.text(alphabet="ab", max_size=30))
def test_witness_matches_oracle_tie_break(w):
    witness = find_cube(w)
    assert is_cube_free(w) == (witness is None)
    expected = _oracle_leftmost_cube(w)
    assert (None if witness is None else tuple(witness)) == expected
    if witness is not None:
        i, p = witness.position - 1, witness.period
        assert w[i : i + 3 * p] == w[i : i + p] * 3


def test_inner_cube_does_not_break_tie_break():
    # the leftmost cube by start position may properly contain a shorter
    # cube that starts later; the tie-break is on start first
    assert find_cube("abbbabbbabbb") == CubeWitness(1, 4)


def _leftmost_cube_of_each_period(w):
    # brute force over every period p: the flags w[j] == w[j+p] for all j,
    # and a cube of period p starts at their first run of 2p ones
    found = []
    for p in range(1, len(w) // 3 + 1):
        flags = bytes(map(operator.eq, w[:-p], w[p:]))
        i = flags.find(b"\1" * (2 * p))
        if i >= 0:
            found.append((i + 1, p))
    return found


def _reference_leftmost_cube(w):
    return min(_leftmost_cube_of_each_period(w), default=None)


def _witness(w):
    found = find_cube(w)
    return None if found is None else tuple(found)


def test_find_cube_matches_reference_on_all_short_words():
    for letters, max_n in (("ab", 14), ("abc", 8)):
        for n in range(max_n + 1):
            for t in itertools.product(letters, repeat=n):
                w = "".join(t)
                assert _witness(w) == _reference_leftmost_cube(w), w


def test_find_cube_with_a_start_bound_matches_the_filtered_reference():
    # the leftmost cube among those starting at a 0-based index below the
    # bound, for every bound; a period with a cube there has its leftmost
    # cube there
    for letters, max_n in (("ab", 14), ("abc", 8)):
        for n in range(max_n + 1):
            for t in itertools.product(letters, repeat=n):
                w = "".join(t)
                found = _leftmost_cube_of_each_period(w)
                expected = [min((c for c in found if c[0] - 1 < bound), default=None) for bound in range(n + 2)]
                got = [find_cube(w, _before=bound) for bound in range(n + 2)]
                assert [None if c is None else tuple(c) for c in got] == expected, w


def _every_cube(w):
    # brute force: every (1-based start, period) of a cube in w
    found = []
    for p in range(1, len(w) // 3 + 1):
        flags = bytes(map(operator.eq, w[:-p], w[p:]))
        found += [(i + 1, p) for i in range(len(w) - 3 * p + 1) if flags[i : i + 2 * p] == b"\1" * (2 * p)]
    return found


def test_find_cube_with_an_end_bound_matches_the_filtered_reference():
    # for every start bound b and every a with w[:a] cube-free, the leftmost
    # (then smallest-period) cube among those starting below b and ending
    # past a
    for letters, max_n in (("ab", 11), ("abc", 6)):
        for n in range(max_n + 1):
            for t in itertools.product(letters, repeat=n):
                w = "".join(t)
                cubes = _every_cube(w)
                for a in range(n + 1):
                    if not is_cube_free(w[:a]):
                        break
                    for b in range(n + 2):
                        kept = (c for c in cubes if c[0] - 1 < b and c[0] - 1 + 3 * c[1] > a)
                        expected = min(kept, default=None)
                        got = find_cube(w, _before=b, _after=a)
                        assert (None if got is None else tuple(got)) == expected, (w, a, b)


def test_find_cube_on_long_thue_morse_factors_with_planted_cubes():
    t = thue_morse.tm_prefix(8192)
    for n, start, p in ((1024, 5, 1), (1024, 301, 37), (2048, 77, 256), (4096, 1000, 513), (4096, 3, 700)):
        base = t[start : start + n]
        assert find_cube(base) is None
        x = t[start + n : start + n + p]
        for w in (x * 3 + base, base[:-5] + x * 3 + base[-5:]):
            found = _witness(w)
            assert found == _reference_leftmost_cube(w)
            assert found[1] <= p


def test_find_cube_prefers_an_earlier_start_to_a_smaller_period():
    assert find_cube("babaabaabaaaa") == CubeWitness(2, 3)
    t = thue_morse.tm_prefix(4096)
    x = t[100:700]  # period 600, cube at position 2
    lead = "a" if x[-1] == "b" else "b"  # so the cube cannot shift left
    w = lead + x * 3 + t[1000:1500] + "aaa"
    assert find_cube(w) == CubeWitness(2, 600)
    assert _witness(w) == _reference_leftmost_cube(w)
