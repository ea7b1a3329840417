import itertools

import pytest

from cubefree import extend, oracle, thue_morse, transition, words
from cubefree.transition import (
    TransitionMethod,
    TransitionResult,
    _direct_right,
    construct_transition,
    splice,
    transition_dary,
    transition_exists,
)

DEAD = "aabaabaa"  # not right extendable
LEFT_DEAD = words.reverse("abbaabbaabb")  # not left extendable


def _brute_transition(u, v, d, max_len):
    alphabet = words.letters_of(d)
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=n):
            w = "".join(tup)
            if words.is_cube_free(u + w + v):
                return w
    return None


def _level_by_level_direct_right(u, v, d, cap):
    """The direct search written as an explicit loop over whole levels: test
    every context of one length for the suffix v, then build the next level.
    A tree that dies within the cap answers EXHAUSTED, one still alive at the
    cap None; cap=None runs a finite tree to its end."""
    alphabet = words.letters_of(d)
    level = [""]
    for _ in itertools.count() if cap is None else range(cap + 1):
        for ctx in level:
            if ctx.endswith(v):
                return TransitionResult(True, ctx[: len(ctx) - len(v)], TransitionMethod.DIRECT_CONTEXT)
        nxt = [
            ctx + x
            for ctx in level
            for x in alphabet
            if words.append_check(u + ctx, x, assume_cube_free=True) is None
        ]
        if not nxt:
            return TransitionResult(False, None, TransitionMethod.EXHAUSTED)
        level = nxt
    return None


def _hit(reference, v):
    """The context _direct_right returns for a level-by-level result."""
    return reference.witness + v if reference is not None and reference.exists else None


def test_direct_right_matches_the_level_by_level_search():
    short = [""] + list(oracle.iter_cube_free(2, 6))
    for u in short + [DEAD, thue_morse.complement(DEAD)]:
        for v in short:
            for cap in range(9):
                assert _direct_right(u, v, 2, cap) == _hit(_level_by_level_direct_right(u, v, 2, cap), v), (u, v, cap)


def test_direct_right_with_levels_in_memory_maps(monkeypatch):
    # levels of more than two contexts go into memory maps, two at a time
    monkeypatch.setattr(extend, "_SPILL", 2)
    short = [""] + list(oracle.iter_cube_free(2, 4))
    for u in short + [DEAD]:
        for v in short:
            for cap in (0, 3, 7):
                assert _direct_right(u, v, 2, cap) == _hit(_level_by_level_direct_right(u, v, 2, cap), v), (u, v, cap)


def test_direct_right_ignores_a_witness_just_past_the_cap():
    # the shortest context of "aaba" ending with "aab" is "baab", one past cap 3
    assert _level_by_level_direct_right("aaba", "aab", 2, 4).witness == "b"
    assert _direct_right("aaba", "aab", 2, 4) == "baab"
    assert _direct_right("aaba", "aab", 2, 3) is None
    assert _direct_right("", "a", 2, 0) is None
    assert _direct_right("", "a", 2, 1) == "a"
    assert _direct_right(DEAD, "ab", 2, 10) is None
    assert transition_exists(DEAD, "ab").method is TransitionMethod.EXHAUSTED


def _level_by_level_direct_left(u, v, d, cap):
    """The mirrored pass: left contexts of v that begin with u."""
    res = _level_by_level_direct_right(words.reverse(v), words.reverse(u), d, cap)
    if res is not None and res.exists:
        return TransitionResult(True, words.reverse(res.witness), TransitionMethod.DIRECT_CONTEXT)
    return res


def _two_pass_transition(u, v, d):
    """The decision in its earlier order: a right pass at |v| + 4, the
    mirrored left pass at |u| + 4, then the extendability decisions and the
    exhaustive scans of a finite context tree."""
    res = _level_by_level_direct_right(u, v, d, len(v) + 4)
    if res is None:
        res = _level_by_level_direct_left(u, v, d, len(u) + 4)
    if res is not None:
        return res
    if not extend.is_right_extendable(u, d).extendable:
        return _level_by_level_direct_right(u, v, d, None)
    if not extend.is_left_extendable(v, d).extendable:
        return _level_by_level_direct_left(u, v, d, None)
    return TransitionResult(True, construct_transition(u, v, d), TransitionMethod.THEOREM)


def test_transition_exists_matches_the_two_pass_decision():
    short = [""] + list(oracle.iter_cube_free(2, 6))
    dead = [DEAD, thue_morse.complement(DEAD)]
    pairs = [(u, v, 2) for u in short + dead for v in short + dead + [LEFT_DEAD]]
    ternary = [""] + list(oracle.iter_cube_free(3, 2))
    pairs += [(u, v, 3) for u in ternary for v in ternary]
    assert len(pairs) == 4459
    methods = set()
    for u, v, d in pairs:
        res = transition_exists(u, v, d)
        assert res == _two_pass_transition(u, v, d), (u, v, d)
        methods.add(res.method)
    assert methods == {TransitionMethod.DIRECT_CONTEXT, TransitionMethod.EXHAUSTED}


def test_splice_trivial():
    w = splice("", "", "", "")
    assert w == "a"
    assert words.is_cube_free(w)


def test_splice_example():
    # "bb" is a Thue-Morse factor and a right context of "a"
    w = splice("a", "bb", "a", "bb")
    assert words.is_cube_free("a" + w + "a")
    assert w.startswith("bb") and w.endswith("bb")


def test_splice_input_validation():
    with pytest.raises(ValueError):
        splice("aab", "aabaab", "a", "bb")  # context is not a TM factor
    with pytest.raises(ValueError):
        splice("a", "abba", "a", "bb")  # length must be exactly 2|u|
    with pytest.raises(ValueError):
        splice("aa", "bb", "a", "bb")  # length 2 != 4
    with pytest.raises(ValueError):
        splice("aa", "abba", "a", "bb")  # "aaabba" starts with a cube


def test_transition_exists_examples():
    r = transition_exists("aa", "bb")
    assert r.exists
    assert words.is_cube_free("aa" + r.witness + "bb")
    assert _brute_transition("aa", "bb", 2, 4) is not None

    r = transition_exists("", "")
    assert r.exists and r.witness == ""

    # a 4-letter witness, the longest the bounded search looks for
    r = transition_exists("abaabaa", "aabbaab")
    assert r == TransitionResult(True, "bbab", TransitionMethod.DIRECT_CONTEXT)


def test_transition_agrees_with_brute_force():
    pool = [""] + list(oracle.iter_cube_free(2, 5))
    for u in pool:
        for v in pool:
            res = transition_exists(u, v)
            brute = _brute_transition(u, v, 2, 12)
            assert res.exists == (brute is not None), (u, v)
            if res.exists:
                assert words.is_cube_free(u + res.witness + v)


# construct_transition's witnesses, pinned letter for letter
CONSTRUCTED = {
    ("aa", "bb", None): "baabbaababbabaababbaabbabaabbaababbaabbabaababbabaabbaababaa",
    ("abbabaab", "abbabaab", None): (
        "aabbaababbaababbabbaabbabaabbaababbaabbabaababbabaabbaababbabaababbaabbabaab"
        "abbabaabbaababbaabbabaabbaababbabaababbaabbabaabbaababbaabbabaababbabaabbaab"
        "aabbabaabbabaaba"
    ),
    ("ab", "ba", None): "aababaabbaababbabaababbaabbabaabbaababbaabbabaababbabaabbaababaa",
    ("cab", "bac", 3): (
        "aacaabaababbaabbabaabbaababbaabbabaababbabaabbaababbabaababbaabbabaababbabaab"
        "baababbaabbabaabbaababbaabbabaabaacaa"
    ),
}


def test_transition_theorem_path():
    # two extendable endpoints with no witness of at most 4 letters: the
    # decision falls through to the certified construction
    for u, v, length in (
        ("aabaababaabbaa", "abaababaababaa", 302),
        ("abbaabaabbabbaabbabb", "bababbaababaabbabaab", 327),
    ):
        res = transition_exists(u, v)
        assert res.exists and res.method is TransitionMethod.THEOREM
        assert res.witness == construct_transition(u, v) and len(res.witness) == length
        assert words.is_cube_free(u + res.witness + v)
    # the construction itself, also on endpoints a short witness joins
    for (u, v, d), w in CONSTRUCTED.items():
        assert construct_transition(u, v, d) == w, (u, v, d)
        assert words.is_cube_free(u + w + v)


def test_transition_with_both_endpoints_dead():
    res = transition_exists(DEAD, DEAD)
    assert not res.exists and res.method is TransitionMethod.EXHAUSTED


def test_transition_with_dead_endpoint():
    # DEAD has a finite (depth-0) context tree: u-side decisions are exact
    r = transition_exists(DEAD, "a")
    assert not r.exists and r.method is TransitionMethod.EXHAUSTED

    # v on the left of DEAD still works when v + DEAD is cube-free
    r = transition_exists("b", DEAD)
    assert r.exists == (_brute_transition("b", DEAD, 2, 12) is not None)


def test_a_dead_u_is_always_scanned_whole(monkeypatch):
    # no bounded search decides a dead u: its finite tree is scanned in full
    depths = []
    direct = transition._direct_right
    monkeypatch.setattr(transition, "_direct_right", lambda u, v, d, depth: depths.append(depth) or direct(u, v, d, depth))
    for v in ("a", "ab", "abba"):
        depths.clear()
        assert transition_exists(DEAD, v) == TransitionResult(False, None, TransitionMethod.EXHAUSTED)
        assert depths == [len(v) + 4, None]


def test_a_binary_pair_is_decided_over_the_alphabet_asked_for():
    # bbabbabb has no right context over {a, b}; a c-letter gives it one
    r = transition_exists("bbabbabb", "baabbaab")
    assert not r.exists and r.method is TransitionMethod.EXHAUSTED
    r = transition_exists("bbabbabb", "baabbaab", d=3)
    assert r.exists and r.witness == "c"


def test_construct_transition_examples():
    t8 = "abbabaab"
    w = construct_transition(t8, t8)
    assert words.is_cube_free(t8 + w + t8)
    # deterministic
    assert construct_transition(t8, t8) == w

    w = construct_transition("aa", "bb")
    assert words.is_cube_free("aa" + w + "bb")
    brute = _brute_transition("aa", "bb", 2, 4)
    assert brute is not None and len(brute) <= len(w)

    with pytest.raises(ValueError):
        construct_transition("aaa", "b")
    with pytest.raises(extend.NotExtendableError):
        construct_transition(DEAD, "ab")


def test_construct_transition_empty_endpoints():
    w = construct_transition("", "")
    assert words.is_cube_free(w)


def test_dary_empty_endpoints():
    w = transition_dary("", "", 3)
    assert words.is_cube_free(w)
    assert any(words.is_c_letter(ch) for ch in w)


# Every endpoint here lifts at once with a binary context, so a c-letter
# is forced in right at the endpoint itself; the witnesses pin that path.
FORCED_C_WITNESSES = {
    ("abc", "cba", 3): (
        "aacaabaababbaabbabaabbaababbaabbabaababbabaabbaababbabaababbaabbabaababbabaabbaa"
        "babbaabbabaabbaababbaabbabaabaacaa"
    ),
    ("ab", "ba", 3): "acaabaabbaababbabaababbaabbabaabbaababbaabbabaababbabaabbaabaaca",
    ("c", "c", 3): "caabaabbaababbabaababbaabbabaabbaabaac",
    ("", "", 3): "caabaabbaababbabaababbaabbabaabbaabaac",
    ("abcd", "dcba", 4): (
        "aabcaabaababbaabbabaabbaababbaabbabaababbabaabbaababbabaababbaabbabaababbabaabba"
        "ababbaabbabaabbaababbabaababbaabbabaabbaababbaabbabaabaacbaa"
    ),
}


def test_transition_dary_examples(monkeypatch):
    forced = []
    force = transition._force_c_context
    monkeypatch.setattr(transition, "_force_c_context", lambda U, d: forced.append(U) or force(U, d))
    for (u, v, d), witness in FORCED_C_WITNESSES.items():
        extend.clear_caches()
        forced.clear()
        assert transition_dary(u, v, d) == witness, (u, v, d)
        assert forced == [u, words.reverse(v)]
        assert words.is_cube_free(u + witness + v)

    with pytest.raises(ValueError):
        transition_dary("ab", "ba", 2)


def test_a_dary_witness_is_checked_once(monkeypatch):
    # anchoring is the first step of the one construction, and only the
    # whole word u + witness + v is checked, never the binary stretch's own
    checked = []
    require = transition._require_cube_free
    monkeypatch.setattr(transition, "_require_cube_free", lambda u, w, v: checked.append(w) or require(u, w, v))
    pairs = [(u, v, d) for u, v, d in FORCED_C_WITNESSES] + [(u, v, 3) for u, v in C_EXTENSION_WITNESSES]
    for u, v, d in pairs:
        extend.clear_caches()
        checked.clear()
        w = transition_dary(u, v, d)
        assert checked == [w], (u, v, d)
        checked.clear()
        assert construct_transition(u, v, d) == w
        assert checked == [w], (u, v, d)


def test_transition_exists_checks_only_a_constructed_witness(monkeypatch):
    # a direct witness grew letter by letter under exact append_checks and an
    # exhausted answer has none: only the theorem's construction is checked
    checked = []
    require = transition._require_cube_free
    monkeypatch.setattr(transition, "_require_cube_free", lambda u, w, v: checked.append(w) or require(u, w, v))
    for u, v, d, method in (
        ("ab", "ba", 2, TransitionMethod.DIRECT_CONTEXT),
        ("bbabbabb", "baabbaab", 3, TransitionMethod.DIRECT_CONTEXT),
        (DEAD, "a", 2, TransitionMethod.EXHAUSTED),
        ("bbabbabb", "baabbaab", 2, TransitionMethod.EXHAUSTED),
        ("aabaababaabbaa", "abaababaababaa", 2, TransitionMethod.THEOREM),
    ):
        checked.clear()
        res = transition_exists(u, v, d)
        assert res.method is method, (u, v, d)
        assert checked == ([res.witness] if method is TransitionMethod.THEOREM else []), (u, v, d)


def test_transition_exists_dary_direct_context():
    # "cabaccabac" is cube-free, so the direct search answers with w = ""
    r = transition_exists("cabac", "cabac", 3)
    assert r == TransitionResult(True, "", TransitionMethod.DIRECT_CONTEXT)


def test_transition_agrees_with_brute_force_ternary():
    pool = [""] + list(oracle.iter_cube_free(3, 2))
    for u in pool:
        for v in pool:
            res = transition_exists(u, v, 3)
            brute = _brute_transition(u, v, 3, 6)
            assert res.exists == (brute is not None), (u, v)
            if res.exists:
                assert words.is_cube_free(u + res.witness + v)


def test_four_letter_alphabet():
    w = transition_dary("abcd", "dcba", 4)
    assert words.is_cube_free("abcd" + w + "dcba")
    from cubefree.extend import algorithm2

    cert = algorithm2("abcdabc", 4)
    assert cert.verify("abcdabc")


def test_dary_seam_windows_are_cube_free():
    w = transition_dary("ab", "ba", 3)
    s = "ab" + w + "ba"
    c_positions = [i for i, ch in enumerate(s) if words.is_c_letter(ch)]
    assert c_positions
    for i in c_positions:
        for p in range(1, len(s) // 3 + 1):
            for start in range(max(0, i - 3 * p + 1), min(i, len(s) - 3 * p) + 1):
                x = s[start : start + p]
                assert s[start : start + 3 * p] != x * 3


# Both u end in a binary stretch with no right context over {a, b}, so the
# first round of algorithm2's stage one (extend._lift) finds no lifting
# context and takes a shortest c-extension; the witnesses pin that path.
C_EXTENSION_WITNESSES = {
    ("caabaabaa", "ab"): "caabaababaababbaabbabaabbaababbaabbabaababbabaabbaababbabaabbaabaaca",
    ("cbbabbabb", "c"): (
        "caabaababaababbaabbabaabbaababbaabbabaababbabaabbaababbabaababbaabbabaababbabaabbaabaac"
    ),
}


def test_right_anchor_takes_a_c_extension(monkeypatch):
    extended = []
    c_extension = extend._shortest_c_extension
    monkeypatch.setattr(extend, "_shortest_c_extension", lambda U, d: extended.append(U) or c_extension(U, d))
    for (u, v), witness in C_EXTENSION_WITNESSES.items():
        extend.clear_caches()
        extended.clear()
        assert transition_dary(u, v, 3) == witness
        assert extended[0] == u
        assert words.is_cube_free(u + witness + v)


def test_transition_work_counts(append_checks):
    # counts, unlike times, do not drift with the host: a walk that expands
    # one node more than it did when these bounds were recorded fails here
    for u, v, d, bound in (
        ("aabaababaabbaa", "abaababaababaa", 2, 3819),
        ("abbaabaabbabbaabbabb", "bababbaababaabbabaab", 2, 27031),
        ("bababbababbabaababaa", "aabbaabbaababbaababa", 2, 32707),
    ):
        n, _ = append_checks(lambda: transition_exists(u, v, d))
        assert n <= bound, (u, v, n)
    for (u, v), bound in zip(C_EXTENSION_WITNESSES, (64, 54)):
        n, _ = append_checks(lambda: transition_dary(u, v, 3))
        assert n <= bound, (u, v, n)
    for (u, v, d), bound in zip(FORCED_C_WITNESSES, (43, 43, 20, 24, 61)):
        n, _ = append_checks(lambda: transition_dary(u, v, d))
        assert n <= bound, (u, v, d, n)
