import itertools
import sys

import pytest

from cubefree import oracle, thue_morse, words
from cubefree.oracle import (
    classify_cube,
    context_tree,
    enumerate_cube_free,
    greedy_chain_search,
    is_overlap_free,
    naive_is_cube_free,
    theta_decompose,
)
from cubefree.words import CubeWitness


def test_naive_examples():
    assert naive_is_cube_free("abbabaab")
    assert not naive_is_cube_free("aabaabaab")
    assert naive_is_cube_free("")


def test_naive_agrees_with_fast_path():
    for n in range(13):
        for tup in itertools.product("ab", repeat=n):
            w = "".join(tup)
            assert naive_is_cube_free(w) == words.is_cube_free(w)


def test_enumerate_examples():
    assert enumerate_cube_free(2, 1).count == 2
    assert enumerate_cube_free(2, 2).count == 4
    assert enumerate_cube_free(2, 3).count == 6
    assert enumerate_cube_free(2, 0).count == 1
    listed = enumerate_cube_free(2, 3, collect=True)
    assert listed.words is not None and len(listed.words) == 6
    assert "aab" in listed.words and "aaa" not in listed.words


def test_enumerate_cap():
    with pytest.raises(ValueError):
        enumerate_cube_free(2, 18, cap=100)


def test_context_tree():
    rep = context_tree("abbabaab", 10)
    assert not rep.exhausted and rep.max_depth == 10
    rep = context_tree("aabaabaa", 10)
    assert rep.exhausted and rep.max_depth == 0 and rep.complete
    with pytest.raises(ValueError):
        context_tree("aaa", 3)


def _recursive_probe(u, depth):
    """The probe mode of context_tree written as a plain recursion."""
    counts = {0: 1}
    deepest = 0

    def probe(ctx):
        nonlocal deepest
        deepest = max(deepest, len(ctx))
        if len(ctx) == depth:
            return True
        for x in "ab":
            if naive_is_cube_free(u + ctx + x):
                counts[len(ctx) + 1] = counts.get(len(ctx) + 1, 0) + 1
                if probe(ctx + x):
                    return True
        return False

    survived = probe("")
    return not survived, depth if survived else deepest, counts


def test_context_tree_probe_matches_the_recursive_walk():
    for u in [""] + list(oracle.iter_cube_free(2, 8)):
        for depth in range(13):
            rep = context_tree(u, depth)
            assert (rep.exhausted, rep.max_depth, rep.alive_at_depth) == _recursive_probe(u, depth), (u, depth)
    with pytest.raises(ValueError):
        context_tree("ab", -1)


def test_tree_order_is_lexicographic():
    for d, max_n in ((2, 10), (3, 6)):
        brute = sorted(
            "".join(tup)
            for n in range(1, max_n + 1)
            for tup in itertools.product(words.letters_of(d), repeat=n)
            if naive_is_cube_free("".join(tup))
        )
        assert list(oracle.iter_cube_free(d, max_n)) == brute
        assert enumerate_cube_free(d, max_n, collect=True).words == [w for w in brute if len(w) == max_n]


def test_deep_walks_are_not_recursive():
    assert oracle.survives_to("a", 1500)
    deep = list(itertools.islice(oracle.iter_cube_free(2, 1500), 1500))
    assert len(deep) == 1500 and max(map(len, deep)) > 1000
    assert words.is_cube_free(max(deep, key=len))


def test_context_tree_does_not_use_the_fast_detector(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("the oracle must not call the fast cube checks")

    monkeypatch.setattr(words, "find_cube", broken)
    monkeypatch.setattr(words, "append_check", broken)
    rep = context_tree("aabaabaa", 10)
    assert rep.exhausted and rep.max_depth == 0
    assert context_tree("ab", 4, full=True).alive_at_depth[4] > 0
    with pytest.raises(ValueError):
        context_tree("aaa", 3)
    assert enumerate_cube_free(2, 10).count == 118


def test_context_tree_full_mode_counts():
    rep = context_tree("ab", 3, full=True)
    assert rep.alive_at_depth[0] == 1
    # counts match a direct recount of contexts per length
    for depth, n in rep.alive_at_depth.items():
        direct = sum(
            1
            for tup in itertools.product("ab", repeat=depth)
            if words.is_cube_free("ab" + "".join(tup))
        )
        assert n == direct


def _levels_by_product(u, depth, alphabet):
    """Levels 0..depth of u's right-context tree, ending at the first empty
    one.  Cube-freeness is factor-closed, so level k is the product of level
    k-1 with the alphabet, kept where naive_is_cube_free(u + x) holds; the
    product of two sorted lists comes out sorted."""
    levels = {0: [""]}
    for k in range(1, depth + 1):
        levels[k] = [x + y for x, y in itertools.product(levels[k - 1], alphabet) if naive_is_cube_free(u + x + y)]
        if not levels[k]:
            break
    return levels


def test_full_context_tree_matches_a_product_filter():
    # ternary levels grow as about 2.7^k, so the ternary depths stop at 6
    for d, max_u, max_depth in ((2, 8, 10), (3, 4, 6)):
        alphabet = words.letters_of(d)
        for u in [""] + list(oracle.iter_cube_free(d, max_u)):
            levels = _levels_by_product(u, max_depth, alphabet)
            for depth in range(max_depth + 1):
                expected = {k: level for k, level in levels.items() if k <= depth}
                alive = {k: len(level) for k, level in expected.items() if level}
                rep = context_tree(u, depth, d=d, full=True)
                assert rep.words_at_depth == expected, (u, depth)
                assert (rep.alive_at_depth, rep.max_depth, rep.complete) == (alive, max(alive), True), (u, depth)
                assert rep.exhausted == (depth not in alive), (u, depth)
                probe = context_tree(u, depth, d=d)
                assert (probe.exhausted, probe.max_depth) == (rep.exhausted, rep.max_depth), (u, depth)


def test_theta_decompose_examples():
    assert theta_decompose("abba") == ("", "ab", "")
    assert theta_decompose("babba") == ("b", "ab", "")
    assert theta_decompose("aabaa") is None


def test_theta_decompose_reconstructs():
    theta = {"a": "ab", "b": "ba"}
    for n in range(11):
        for tup in itertools.product("ab", repeat=n):
            w = "".join(tup)
            dec = theta_decompose(w)
            if dec is not None:
                c, u, d = dec
                assert c + "".join(theta[ch] for ch in u) + d == w


def test_is_overlap_free():
    assert is_overlap_free(thue_morse.tm_prefix(64))
    assert is_overlap_free("aabaab")
    assert not is_overlap_free("ababa")
    assert not is_overlap_free("aaa")


def test_overlap_scan_paths_agree():
    import random

    for n in range(15):
        for tup in itertools.product("ab", repeat=n):
            w = "".join(tup)
            assert is_overlap_free(w) == oracle._overlap_scan(w), w
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randint(2, 120)
        w = "".join(rng.choice("ab") for _ in range(n))
        assert is_overlap_free(w) == oracle._overlap_scan(w), w
    t = thue_morse.tm_prefix(3000)
    assert is_overlap_free(t)  # clean word, no early exit
    assert not is_overlap_free(t[:1500] + "aaa" + t[:100])


def test_overlap_check_needs_no_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy now fails
    assert is_overlap_free(thue_morse.tm_prefix(65536))


def test_classify_cube_reference_roots():
    for root, expected in (
        ("bab", oracle.CUBE_MINI),
        ("babbaabab", oracle.CUBE_MIDI),
        ("babbaababbabbaababbabbaabba", oracle.CUBE_MAXI),
    ):
        assert classify_cube(root * 3, CubeWitness(1, len(root))) == expected


def test_classify_cube_mini_roots_and_fourth_class():
    # the mini class is exactly the roots ab, ba, aba, bab
    for root in ("ab", "ba", "aba", "bab"):
        assert classify_cube(root * 3, CubeWitness(1, len(root))) == oracle.CUBE_MINI
    assert classify_cube("aabbaabbaabb", CubeWitness(1, 4)) == oracle.CUBE_UNIFORM
    with pytest.raises(ValueError):
        classify_cube("ababab", CubeWitness(1, 3))


def test_greedy_chain_search_small():
    rows = greedy_chain_search(8)
    assert rows == greedy_chain_search(8)  # deterministic
    by_word = {u: (w, k) for u, w, k in rows}
    # a word admitting no qualifying first step stays at k = 0
    assert by_word["ab"][1] >= 0
    assert any(k == 0 for _, _, k in rows)
    assert any(k > 0 for _, _, k in rows)
    for u, w, k in rows:
        assert len(w) == k
        assert words.is_cube_free(u + w)
    with pytest.raises(ValueError):
        greedy_chain_search(21)


def _greedy_chain_reference(max_n):
    """greedy_chain_search as first written: every candidate u + ctx + x is
    rescanned whole by naive_is_cube_free."""
    results = []
    for u in oracle.iter_cube_free(2, max_n):
        ctx = ""
        reachable = None
        while True:
            for x in "ab":
                cand = u + ctx + x
                if not naive_is_cube_free(cand):
                    continue
                periods = oracle.qualifying_periods(cand)
                if reachable is None:
                    nxt = periods
                else:
                    nxt = {p for p in periods if len(reachable) > 1 or p not in reachable}
                if nxt:
                    ctx += x
                    reachable = nxt
                    break
            else:
                break
        results.append((u, ctx, len(ctx)))
    return results


def test_greedy_chain_search_matches_the_whole_word_rescan():
    assert greedy_chain_search(12) == _greedy_chain_reference(12)
