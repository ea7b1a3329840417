import itertools
import math

import pytest

from cubefree import analysis, extend, oracle, thue_morse, words
from cubefree.extend import (
    NotExtendableError,
    TailCertificate,
    algorithm2,
    chain_length_audit,
    is_left_extendable,
    is_right_extendable,
    log_bound,
    t_extend_uniform,
    t_extend_with_uniform_context,
)

# discovered by exhaustive search; both one-letter extensions end with cubes
SHORTEST_DEAD = "aabaabaa"


def _has_ctx(u, k):
    if k == 0:
        return True
    return any(
        words.append_check(u, x, assume_cube_free=True) is None and _has_ctx(u + x, k - 1)
        for x in "ab"
    )


def test_log_bound_values():
    assert math.isclose(log_bound(1024), 8.13 * 10 - 15.64)
    assert log_bound(2) == 1.0
    assert math.isclose(log_bound(512), 8.13 * 9 - 15.64)
    with pytest.raises(ValueError):
        log_bound(0)


def test_t_extend_uniform_examples():
    cert = t_extend_uniform("abbabaab")
    assert (cert.Y, cert.r) == ("", 9)
    assert cert.verify("abbabaab")

    cert = t_extend_uniform("abab")
    assert (cert.Y, cert.r) == ("", 6)
    tail = thue_morse.tm_range(6, 6 + 4 * 4)
    assert oracle.naive_is_cube_free("abab" + tail)

    with pytest.raises(ValueError):
        t_extend_uniform("aabaa")


def test_t_extend_uniform_coverage():
    # every uniform cube-free word with the required short context certifies
    n_cases = 0
    for u in oracle.iter_cube_free(2, 12):
        if not analysis.is_uniform(u):
            continue
        if not (_has_ctx(u, 3) or (analysis.is_right_aligned(u) and _has_ctx(u, 2))):
            continue
        cert = t_extend_uniform(u)
        assert cert.verify(u), u
        n_cases += 1
    assert n_cases > 200


def test_uniform_tail_is_the_construction_of_t_extend_uniform():
    # the unchecked construction that stage two and the tail attachment
    # build on is the public one, and on a word the public one rejects it
    # returns, never raises
    accepted = 0
    for u in oracle.iter_cube_free(2, 18):
        if not analysis.is_uniform(u):
            continue
        try:
            cert = t_extend_uniform(u)
        except ValueError:
            extend._uniform_tail(u, 0)
            continue
        assert extend._uniform_tail(u, 0) == cert, u
        accepted += 1
    assert accepted == 1418


def test_t_extend_uniform_tiny_words():
    for u in ("", "a", "b", "aa", "bb", "ab", "ba"):
        cert = t_extend_uniform(u)
        assert cert.verify(u), u


def test_t_extend_with_uniform_context_examples():
    cert = t_extend_with_uniform_context("", "abbabaa")
    assert cert.verify("")

    cert = t_extend_with_uniform_context("b", "abbab")
    assert cert.verify("b")

    with pytest.raises(ValueError):
        t_extend_with_uniform_context("a", "ababaab")
    with pytest.raises(ValueError):
        t_extend_with_uniform_context("ab", "abba")  # too short
    with pytest.raises(ValueError):
        t_extend_with_uniform_context("b", "aabaabb")  # not uniform
    with pytest.raises(ValueError, match="^w must be a right context of u$"):
        t_extend_with_uniform_context("aa", "abbabaab")  # aaa


def _uniform_attachments():
    """(u, q, k) for every binary cube-free u of at most 12 letters whose
    first uniform context q keeps u + q[:k] uniform at the first
    right-aligned consumed length k: the tail attachment's uniform branch."""
    cases = []
    for u in ["", *oracle.iter_cube_free(2, 12)]:
        q = extend._first_uniform_context(u)
        if q is None:
            continue
        k = next(k for k in (2 * len(u), 2 * len(u) + 1) if analysis.is_right_aligned(q[:k]))
        if analysis.is_uniform(u + q[:k]):
            cases.append((u, q, k))
    return cases


def test_uniform_context_tail_uniform_branch_is_t_extend_uniform():
    cases = _uniform_attachments()
    assert len(cases) == 100
    for u, q, k in cases:
        t = t_extend_uniform(u + q[:k])
        assert t_extend_with_uniform_context(u, q) == TailCertificate(q[:k] + t.Y, t.r, t.seam, t.tm_aligned), u


def test_tail_attachment_makes_no_full_cube_scan(monkeypatch):
    # the consumed word is a prefix of the cube-free u + w, so only verify
    # looks for cubes, and it scans from inside u + Y alone (_before)
    cases = _uniform_attachments()
    extend.clear_caches()
    full_scans = []
    find_cube = words.find_cube

    def counted(w, **kw):
        if kw.get("_before") is None:
            full_scans.append(w)
        return find_cube(w, **kw)

    monkeypatch.setattr(words, "find_cube", counted)
    for u, q, _ in cases:
        extend._uniform_context_tail(u, q)
    assert full_scans == []


def test_t_extend_uniform_rejects_every_word_without_a_candidate():
    # where the alignment step is blocked the word has no qualifying short
    # context, so the precondition check answers before the construction
    blocked = [
        u
        for u in oracle.iter_cube_free(2, 16)
        if analysis.is_uniform(u) and extend._uniform_tail(u, 0) is None
    ]
    assert len(blocked) == 16
    assert {"abaabbaabbaa", "aababbaabbaabb"} <= set(blocked)
    for u in blocked:
        with pytest.raises(ValueError, match="has no qualifying short right context"):
            t_extend_uniform(u)


def test_the_tail_attachment_takes_the_first_aligned_length(monkeypatch):
    # every uniform context of a word of at most 2 letters, where both
    # lengths can be aligned, and the first 20 of each word of at most 8
    cases = [(u, q) for u in ("", "a", "b", "aa", "ab", "ba", "bb") for q in extend._uniform_contexts(u)]
    assert len(cases) == 82
    both = [(u, q) for u, q in cases if all(analysis.is_right_aligned(q[:k]) for k in (2 * len(u), 2 * len(u) + 1))]
    assert len(both) == 14
    for u in oracle.iter_cube_free(2, 8):
        cases += [(u, q) for q in itertools.islice(extend._uniform_contexts(u), 20)]
    assert len(cases) == 3072
    verify = TailCertificate.verify
    calls = []
    monkeypatch.setattr(TailCertificate, "verify", lambda cert, w, **kw: calls.append(w) or verify(cert, w, **kw))
    for u, q in cases:
        extend.clear_caches()
        calls.clear()
        cert = extend._uniform_context_tail(u, q)
        k = next(k for k in (2 * len(u), 2 * len(u) + 1) if analysis.is_right_aligned(q[:k]))
        assert calls == [u], (u, q)
        assert cert.Y.startswith(q[:k]), (u, q)
        assert verify(cert, u), (u, q)


def test_certificate_verify_rejects_tampering():
    cert = t_extend_uniform("abab")
    assert not TailCertificate(cert.Y, cert.r + 1, cert.seam).verify("abab")
    assert not TailCertificate("bb" + cert.Y, cert.r, cert.seam).verify("abab")
    assert not cert.verify("abbb")  # wrong word


def test_is_right_extendable_examples():
    assert is_right_extendable("abbabaab").extendable
    verdict = is_right_extendable("aa")
    assert verdict.extendable and verdict.certificate.verify("aa")
    assert not oracle.context_tree("aa", 20).exhausted

    dead = is_right_extendable(SHORTEST_DEAD)
    assert not dead.extendable
    assert dead.certificate is None
    assert dead.max_context_length == 0
    assert oracle.context_tree(SHORTEST_DEAD, 5).exhausted


def test_is_right_extendable_rejects_cubes():
    with pytest.raises(ValueError):
        is_right_extendable("bbb")
    with pytest.raises(ValueError):
        is_left_extendable("bbb")


def test_left_right_duality():
    for u in oracle.iter_cube_free(2, 9):
        left = is_left_extendable(u)
        mirrored = is_right_extendable(words.reverse(u))
        assert left.extendable == mirrored.extendable


def test_no_verdict_reports_tree_depth():
    # a dead word's reported depth matches the deepest level of its
    # exhausted context tree, for every dead word at desk scale
    n_dead = 0
    for u in oracle.iter_cube_free(2, 12):
        verdict = is_right_extendable(u)
        if verdict.extendable:
            continue
        rep = oracle.context_tree(u, 3 * len(u) + 30)
        assert rep.exhausted
        assert verdict.max_context_length == rep.max_depth, u
        n_dead += 1
    assert n_dead == 6


def test_heuristic_context_bound():
    # a bounded probe of a word that survives past the bound is not exhausted
    report = oracle.context_tree("ab", 5)
    assert not report.exhausted and report.max_depth == 5


def test_algorithm2_binary_examples():
    for u in ("abbabaab", "aab", "ab"):
        stats = {}
        cert = algorithm2(u, stats=stats)
        assert cert.verify(u)
        tail = thue_morse.tm_range(cert.r, cert.r + cert.verified_prefix(u))
        assert words.find_cube(u + cert.Y + tail) is None
        assert stats["stage2_iterations"] <= log_bound(max(2, len(u))) + 1


def test_algorithm2_ternary_uses_stage_one():
    for u, rounds in (("ab", 1), ("abc", 1), (SHORTEST_DEAD, 2)):
        stats = {}
        cert = algorithm2(u, 3, stats=stats)
        assert cert.verify(u)
        assert stats["stage1_iterations"] == rounds, (u, stats)

    cert = algorithm2("c", 3)
    assert cert.verify("c")


def test_algorithm2_empty_word():
    for d in (2, 3):
        cert = algorithm2("", d)
        assert cert.verify("")
    assert (algorithm2("").Y, algorithm2("").r) == ("", 1)  # the whole of T


def test_algorithm2_rejects_dead_and_cubed_inputs():
    with pytest.raises(NotExtendableError):
        algorithm2(SHORTEST_DEAD)
    with pytest.raises(ValueError):
        algorithm2("aaa")


def test_chain_length_audit_examples():
    # no qualifying first step: the 3p-2 suffix would need length >= 4
    assert chain_length_audit("ab", "a") == 0
    # agreement with the oracle's greedy growth
    for u, w, k in oracle.greedy_chain_search(9):
        assert chain_length_audit(u, w) == k, (u, w)
    with pytest.raises(ValueError):
        chain_length_audit("aaa", "b")
    with pytest.raises(ValueError):
        chain_length_audit("ab", "b" * 9)


def test_chain_bound_holds_small():
    for u, w, k in oracle.greedy_chain_search(10):
        assert k <= log_bound(len(u)), (u, w, k)


def test_certificates_compose_through_the_tree():
    # words whose own node check fails still certify through a descendant
    verdict = is_right_extendable("ababa")
    assert verdict.extendable
    assert verdict.certificate.verify("ababa")


def _random_cube_free(rng, n, d=2):
    letters = words.letters_of(d)
    while True:
        w = ""
        while len(w) < n:
            options = [
                x for x in letters if words.append_check(w, x, assume_cube_free=True) is None
            ]
            if not options:
                break
            w += rng.choice(options)
        if len(w) == n:
            return w


def test_random_longer_words_certify():
    import random

    rng = random.Random(1618)
    for _ in range(25):
        u = _random_cube_free(rng, rng.randint(15, 28))
        verdict = is_right_extendable(u)
        if verdict.extendable:
            assert verdict.certificate.verify(u), u
            assert algorithm2(u).verify(u), u
    for _ in range(15):
        u = _random_cube_free(rng, rng.randint(9, 14), d=3)
        verdict = is_right_extendable(u, 3)
        assert verdict.extendable and verdict.certificate.verify(u), u
        assert algorithm2(u, 3).verify(u), u


LONG_BINARY = (
    "abbabbabaababaabbabbabaabbabaababbaabbaabaabbabaababbaabaabbaababaabaabbaa"
    "bbabbaabbababbabaababaabbaababaababbaabaabbaabbabaabbabaabaabbababbaabbabaab"
    "abaababbab"
)


def test_algorithm2_on_a_long_binary_word():
    # the context searches nest through is_right_extendable; they must not
    # be bounded by the interpreter's recursion limit
    u = LONG_BINARY
    assert len(u) == 160 and words.is_cube_free(u)
    cert = algorithm2(u, 2)
    assert cert.verify(u)
    assert oracle.naive_is_cube_free(u + cert.Y + thue_morse.tm_range(cert.r, cert.r + 200))


def test_bounded_context_probe_is_not_recursive():
    # the probe walks with an explicit stack, so a deep bound does not recurse
    report = oracle.context_tree("ab", 1500)
    assert not report.exhausted and report.max_depth == 1500
    with pytest.raises(ValueError):
        oracle.context_tree("ab", -1)


@pytest.mark.parametrize("spill", [1, 3, 4096])
def test_breadth_first_visits_level_by_level(monkeypatch, spill):
    # the order the walk yields nodes in, against whole levels kept as lists,
    # with levels moved into memory maps after `spill` words (or not at all)
    monkeypatch.setattr(extend, "_SPILL", spill)
    for u, depth, letters in (("", 9, "ab"), ("abaab", 12, "ab"), ("ab", 5, "abc"), (SHORTEST_DEAD, 9, "ab")):
        seen = list(extend._breadth_first(u, depth, letters))
        expected, level = [""], [""]
        while level:
            level = [child for w in level for child in extend._children(u, w, depth, letters)]
            expected += level
        assert seen == expected
        first = next((w for w in expected if len(w) == 4), None)
        assert next((w for w in extend._breadth_first(u, depth, letters) if len(w) == 4), None) == first



def test_depth_first_visits_the_oracle_tree_order():
    # the oracle's walker is the independent reference for the same order
    for u, depth, letters in (("", 9, "ab"), ("abaab", 12, "ab"), (SHORTEST_DEAD, 9, "ab"), ("ab", 5, "abc"), ("abcab", 4, "abcd")):
        walked = list(extend._depth_first(u, depth, letters))
        assert walked == list(oracle._contexts_in_tree_order(u, letters, depth)), (u, depth, letters)

def test_algorithm2_does_not_reverify_the_verdict_certificate(monkeypatch):
    # the extendability decision verifies its certificate; when the lifted
    # certificate is that same one, algorithm2 does not check it again
    checked = []
    verify = TailCertificate.verify
    monkeypatch.setattr(TailCertificate, "verify", lambda self, base, **kw: checked.append(base) or verify(self, base, **kw))
    for u, d in (("abc", 3), ("cabac", 3), ("abcdabc", 4)):
        extend.clear_caches()
        assert is_right_extendable(u, d).extendable
        checked.clear()
        cert = algorithm2(u, d)
        assert u not in checked, (u, d)
        assert verify(cert, u)


def test_algorithm2_scans_its_input_for_a_cube_once(monkeypatch):
    scanned = []
    find_cube = words.find_cube
    monkeypatch.setattr(words, "find_cube", lambda w, **kw: scanned.append(w) or find_cube(w, **kw))
    for u, d in (("abbabaabbaab", 2), ("abcabacb", 3)):
        extend.clear_caches()
        scanned.clear()
        algorithm2(u, d)
        assert scanned.count(u) == 1, (u, d)


def test_left_extendability_names_the_given_word():
    with pytest.raises(ValueError, match="^'abbb' contains a cube$"):
        is_left_extendable("abbb")


def test_algorithm2_work_count_on_a_long_binary_word(append_checks):
    # a count, unlike a time, does not drift with the host: 2290 before
    # stage two certified its contexts before deciding them, 461 after
    n, _ = append_checks(lambda: algorithm2(LONG_BINARY, 2))
    assert n <= 600


def _plain_stage_two(monkeypatch):
    """Stage two as the walk alone: every candidate decided in full."""
    monkeypatch.setattr(extend, "_extends_right", lambda s, q: extend._decide_right(s + q, 2).extendable)
    monkeypatch.setattr(
        extend,
        "_extendable_uniform_context",
        lambda s: next((q for q in extend._uniform_contexts(s) if extend._extends_right(s, q)), None),
    )


def _certify(u, d):
    try:
        return algorithm2(u, d)
    except NotExtendableError as exc:
        return exc.max_context_length


# binary words whose first uniform context of length 2|u| + 3 loses
# extendability, so stage two walks on to a later one (102 such words have
# at most 16 letters); the two contexts first differ past the prefix the
# tail construction consumes, so the certificates agree and only the
# contexts tell the walks apart
FIRST_CONTEXT_DIES = ("aabaabbabab", "aabaababbaaba", "aabaababaabbaa", "aababbaababbaa", "aabaabbabbaabaa")


def test_algorithm2_matches_the_plain_stage_two_walk(monkeypatch):
    import random

    rng = random.Random(1914)
    cases = [(_random_cube_free(rng, n, d), d) for d in (2, 3) for n in (4, 10, 20, 40, 80, 160) for _ in range(17)]
    cases += [(u, 2) for u in FIRST_CONTEXT_DIES]
    anchors = [u for u, d in cases if d == 2 and len(u) <= 40]

    def run():
        certs = []
        for u, d in cases:
            extend.clear_caches()
            certs.append(_certify(u, d))
        extend.clear_caches()
        return certs, [extend._extendable_uniform_context(u) for u in anchors]

    found = run()
    with monkeypatch.context() as m:
        _plain_stage_two(m)
        assert run() == found
    for u in FIRST_CONTEXT_DIES:
        assert found[1][anchors.index(u)] != extend._first_uniform_context(u), u
    assert len(cases) >= 200



def test_a_failing_first_context_is_tested_once(monkeypatch):
    # stage two tests the known first context, then walks on past it
    u = FIRST_CONTEXT_DIES[0]
    extends = extend._extends_right
    tested = []
    monkeypatch.setattr(extend, "_extends_right", lambda s, q: tested.append((s, q)) or extends(s, q))
    extend.clear_caches()
    assert algorithm2(u).verify(u)
    q0 = extend._first_uniform_context(u)
    assert not extends(u, q0)
    assert tested.count((u, q0)) == 1


def test_stage_two_makes_no_nested_yes_decision(monkeypatch):
    # a yes for s + q comes from a certificate tried on q's tails; only a
    # dead s + q still runs the full decision
    extendable = []
    for u in oracle.iter_cube_free(2, 14):
        extend.clear_caches()
        if extend._decide_right(u, 2).extendable:
            extendable.append(u)
    assert len(extendable) == 1688
    decide = extend._decide_right
    extends = extend._extends_right
    inside, nested_yes = [], []

    def tracked_extends(s, q):
        inside.append(q)
        try:
            return extends(s, q)
        finally:
            inside.pop()

    def tracked_decide(u, d):
        verdict = decide(u, d)
        if inside and verdict.extendable:
            nested_yes.append(u)
        return verdict

    monkeypatch.setattr(extend, "_extends_right", tracked_extends)
    monkeypatch.setattr(extend, "_decide_right", tracked_decide)
    for u in extendable:
        extend.clear_caches()
        assert algorithm2(u, 2).verify(u), u
    assert nested_yes == []


def test_baaba_is_certified_without_deciding_its_first_context(monkeypatch):
    # the shortest word whose first context once took a nested yes decision
    decided = []
    decide = extend._decide_right
    monkeypatch.setattr(extend, "_decide_right", lambda u, d: decided.append(u) or decide(u, d))
    extend.clear_caches()
    assert algorithm2("baaba").verify("baaba")
    q0 = extend._first_uniform_context("baaba")
    assert q0 is not None and "baaba" + q0 not in decided


def test_a_dead_first_context_work_counts(append_checks):
    # the resumed walk makes no node before q0 again, and a later context
    # is certified without a decision: 87-101 calls before, 51-58 after
    for u, bound in zip(FIRST_CONTEXT_DIES, (51, 52, 55, 55, 58)):
        n, cert = append_checks(lambda: algorithm2(u, 2))
        assert cert.verify(u)
        assert n <= bound, (u, n)


def test_verification_work_counts(monkeypatch):
    # letters verify hands to find_cube on a cold algorithm2, and those past
    # the prefix its caller vouches for; counts do not drift with the host.
    # Before the 3|P| window and the vouched prefix both counts were
    # 4958; 717/807/852/852/897; 691
    def letters(u, d):
        handed = []
        find_cube = words.find_cube

        def counted(w, **kw):
            if kw.get("_before") is not None:  # only verify bounds the start
                handed.append((len(w), kw.get("_after", 0)))
            return find_cube(w, **kw)

        with monkeypatch.context() as m:
            m.setattr(words, "find_cube", counted)
            extend.clear_caches()
            algorithm2(u, d)
        return sum(n for n, _ in handed), sum(n - a for n, a in handed)

    cases = [(LONG_BINARY, 2, 2892, 1928)]
    cases += [(u, 2, n, m) for u, n, m in zip(FIRST_CONTEXT_DIES, (306, 360, 387, 387, 414), (204, 240, 258, 258, 276))]
    cases += [("cbbabbabb", 3, 249, 186)]
    for u, d, window, unvouched in cases:
        n, m = letters(u, d)
        assert n <= window and m <= unvouched, (u, d, n, m)


def test_stage_two_verification_counts(monkeypatch):
    # stage two verifies one candidate per builder, on the tail q only
    calls = []
    verify = TailCertificate.verify
    monkeypatch.setattr(TailCertificate, "verify", lambda self, u, **kw: calls.append(u) or verify(self, u, **kw))
    for u in FIRST_CONTEXT_DIES:
        extend.clear_caches()
        calls.clear()
        cert = algorithm2(u, 2)
        assert len(calls) <= 4, (u, len(calls))
        assert cert.verify(u)


def test_a_certified_context_is_not_memoized(monkeypatch):
    # a yes from the shortcut certificate adds no verdict; only what
    # _decide_right computes is memoized
    decide = extend._decide_right
    extends = extend._extends_right
    decided = []
    shortcuts = []

    def counting_decide(u, d):
        decided.append(u)
        return decide(u, d)

    def checked_extends(s, q):
        n_decided, before = len(decided), dict(extend._verdicts)
        yes = extends(s, q)
        if yes and len(decided) == n_decided:
            shortcuts.append(s + q)
            assert extend._verdicts == before, (s, q)
        return yes

    monkeypatch.setattr(extend, "_decide_right", counting_decide)
    monkeypatch.setattr(extend, "_extends_right", checked_extends)
    for u in ("abbabaab", "aab", LONG_BINARY[:40]):
        extend.clear_caches()
        assert algorithm2(u).verify(u)
    assert shortcuts
    assert not any((w, 2) in extend._verdicts for w in shortcuts)


def _miss_once(monkeypatch):
    """Make stage two's first uniform-context search miss, which forces a
    marker step; returns the list of searched anchors, to be cleared
    before each run."""
    search = extend._extendable_uniform_context
    searched = []

    def miss_once(s):
        searched.append(s)
        return None if len(searched) == 1 else search(s)

    monkeypatch.setattr(extend, "_extendable_uniform_context", miss_once)
    return searched


def test_stage_two_takes_a_marker_step_after_a_miss(monkeypatch):
    # the paper's marker step runs when no uniform context of the anchor
    # keeps it extendable; force one miss of that search
    marker = extend._shortest_marker_extension
    searched, steps = _miss_once(monkeypatch), []

    def marker_step(base):
        v = marker(base)
        steps.append((base, v))
        return v

    monkeypatch.setattr(extend, "_shortest_marker_extension", marker_step)
    for u in ("abbabaab", "aab", LONG_BINARY[:40]):
        extend.clear_caches()
        searched.clear()
        steps.clear()
        stats = {}
        cert = algorithm2(u, stats=stats)
        assert stats["stage2_iterations"] == 2
        [(base, v)] = steps
        assert base == u and searched == [u, u + v] and cert.Y.startswith(v)
        assert cert.verify(u)


def test_a_vouched_prefix_is_cube_free(monkeypatch):
    # every caller that lets find_cube skip a prefix (_after) vouches for a
    # prefix that is in fact cube-free, on the main paths and on a forced
    # stage-two marker step, binary and lifted ternary
    import contextlib
    import io
    import json
    import random
    from pathlib import Path

    from cubefree.cli import main

    find_cube = words.find_cube
    vouched = []

    def honest(w, **kw):
        a = kw.get("_after", 0)
        if a > 0:
            assert oracle.naive_is_cube_free(w[:a]), (w, a)
            vouched.append(a)
        return find_cube(w, **kw)

    monkeypatch.setattr(words, "find_cube", honest)
    corpus = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    runs = [case for case in corpus if case["argv"][0] in ("extend", "extendable")]
    assert len(runs) >= 20
    extend.clear_caches()
    for case in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(case["argv"]) == case["exit"], case["argv"]
    rng = random.Random(1729)
    cases = [(u, 2) for u in FIRST_CONTEXT_DIES + (LONG_BINARY[:40],)]
    cases += [(_random_cube_free(rng, rng.randint(4, 30), 3), 3) for _ in range(20)]
    for u, d in cases:
        extend.clear_caches()
        assert is_right_extendable(u, d).extendable, u
        algorithm2(u, d)
    searched = _miss_once(monkeypatch)
    for u, d in (("abbabaab", 2), ("cbbabbabb", 3)):
        extend.clear_caches()
        searched.clear()
        stats = {}
        algorithm2(u, d, stats=stats)
        assert stats["stage2_iterations"] == 2, u
    assert len(vouched) > 100


def _tampered(cert):
    yield TailCertificate(cert.Y, cert.r + 1, cert.seam, cert.tm_aligned)
    yield TailCertificate(cert.Y, cert.r - 1, cert.seam, cert.tm_aligned)
    for i, x in enumerate(cert.Y):
        flipped = "b" if x == "a" else "a"
        yield TailCertificate(cert.Y[:i] + flipped + cert.Y[i + 1 :], cert.r, cert.seam, cert.tm_aligned)


def _full_scan_verdict(u, cert):
    # verify's answer from scratch: no cube anywhere in u + Y + T[r .. r+L],
    # L = verification_length(|u + Y|), found by an unbounded find_cube
    # scan, and the seam and alignment claims checked directly
    prefix = u + cert.Y
    if cert.r < 1 or not 0 <= cert.seam <= len(prefix):
        return False
    tail = thue_morse.tm_range(cert.r, cert.r + extend.verification_length(len(prefix)))
    if words.find_cube(prefix + tail) is not None:
        return False
    feed = prefix[cert.seam :]
    if set(feed) - set("ab") or not analysis.is_uniform(feed):
        return False
    if cert.tm_aligned:
        start = cert.r - len(prefix)
        return start >= 1 and (not prefix or thue_morse.tm_range(start, cert.r - 1) == prefix)
    return True


def test_verify_matches_a_full_scan():
    # verify scans a 3|u + Y| window for cubes starting in u + Y only;
    # scanning the whole word, T-tail included, gives the same answer
    import random

    rng = random.Random(2718)
    certified = []
    for d, n in ((2, 6), (2, 20), (2, 40), (3, 8), (3, 20), (4, 10)):
        for _ in range(5):
            u = _random_cube_free(rng, n, d)
            certified.append((u, algorithm2(u, d)))
            certified.append((u, is_right_extendable(u, d).certificate))
    # lifted ternary certificates: stage one grows each word past its last
    # c-letter, and cbbabbabb takes two rounds, so Y holds a c-letter
    for u in ("cbbabbabb", "cbbaabbcbacaacaaccbc", "bbabcbbacbbaac", "bbaabacbba"):
        stats = {}
        extend.clear_caches()
        cert = algorithm2(u, 3, stats=stats)
        assert stats["stage1_iterations"] >= 1, u
        certified.append((u, cert))
    assert "c" in certified[-4][1].Y
    tampered = [(u, t) for u, c in certified for t in _tampered(c)]
    assert any(c.Y for _, c in certified)
    assert all(c.verify(u) for u, c in certified)
    bounded = [c.verify(u) for u, c in tampered]
    assert not all(bounded)
    assert all(_full_scan_verdict(u, c) for u, c in certified)
    assert [_full_scan_verdict(u, c) for u, c in tampered] == bounded


def test_memo_tables_stay_within_their_cap(monkeypatch):
    import random

    rng = random.Random(5)
    cases = [(_random_cube_free(rng, n, d), d) for d in (2, 3) for n in (6, 12, 24, 40) for _ in range(4)]
    cases += [(SHORTEST_DEAD, 2), ("abbaabbaabb", 2), (SHORTEST_DEAD, 3)]
    answers = []
    for u, d in cases:
        extend.clear_caches()
        answers.append((is_right_extendable(u, d), _certify(u, d)))
    tables = ("_verdicts", "_no_uniform_context", "_no_binary_reduction")
    monkeypatch.setattr(extend, "_MEMO_CAP", 8)
    extend.clear_caches()
    full = set()
    for (u, d), answer in zip(cases, answers):
        assert (is_right_extendable(u, d), _certify(u, d)) == answer, (u, d)
        sizes = {t: len(getattr(extend, t)) for t in tables}
        assert max(sizes.values()) <= 8, sizes
        full.update(t for t, n in sizes.items() if n == 8)
    assert "_verdicts" in full



def test_a_verdict_does_not_depend_on_earlier_decisions():
    # every decision walks its own tree: deciding a word's children and
    # grandchildren first leaves its verdict as it is on cold caches
    cases = [(u, 2) for u in oracle.iter_cube_free(2, 12)] + [(u, 3) for u in oracle.iter_cube_free(3, 6)]
    cold = {}
    for u, d in cases:
        extend.clear_caches()
        cold[u, d] = extend._decide_right(u, d)
    assert any(not verdict.extendable for verdict in cold.values())
    extend.clear_caches()
    for u, d in sorted(cases, key=lambda case: -len(case[0])):
        for x in words.letters_of(d):
            if words.append_check(u, x) is None:
                for y in words.letters_of(d):
                    if words.append_check(u + x, y) is None:
                        extend._decide_right(u + x + y, d)
                extend._decide_right(u + x, d)
        assert extend._decide_right(u, d) == cold[u, d], (u, d)


class _CountingDict(dict):
    def __init__(self):
        super().__init__()
        self.lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


def test_a_decision_looks_up_only_its_own_verdict(monkeypatch):
    decided = []
    decide = extend._decide_right
    monkeypatch.setattr(extend, "_decide_right", lambda u, d: decided.append(u) or decide(u, d))
    nested = []
    for u, d in ((FIRST_CONTEXT_DIES[0], 2), ("abcabacb", 3), ("cabac", 3), (SHORTEST_DEAD, 2), (SHORTEST_DEAD, 3)):
        memo = _CountingDict()
        monkeypatch.setattr(extend, "_verdicts", memo)
        decided.clear()
        _certify(u, d)
        assert memo.lookups == len(decided), (u, d)
        nested.append(len(decided))
    assert min(nested) >= 1 and max(nested) > 1, nested


# a ternary word whose decision nests binary ones through the lifting search
LONG_TERNARY = "aabaabacacbaacbcbbcbbaacbabccbacbbcabcbbccbbabaabcaccabcbaabbaaccbbaacaacbacbbcb"


def test_extendability_work_counts(append_checks):
    # counts, unlike times, do not drift with the host: a walk that expands
    # one node more than it did when these bounds were recorded fails here
    for u, d, bound in ((LONG_BINARY, 2, 459), (LONG_TERNARY, 3, 172)):
        n, verdict = append_checks(lambda: is_right_extendable(u, d))
        assert verdict.extendable
        assert n <= bound, (u, d, n)


def _uniform_reference(s):
    """The uniform contexts of s from the oracle's tree, filtered after the
    fact: every context of length 2|s| + 3, in order, that theta_decompose
    accepts and that does not begin with ababa or babab."""
    qlen = 2 * len(s) + 3
    level = oracle.context_tree(s, qlen, d=2, full=True).words_at_depth.get(qlen, [])
    return [q for q in level if oracle.theta_decompose(q) is not None and q[:5] not in ("ababa", "babab")]


def test_uniform_contexts_match_the_oracle_tree():
    for s in [""] + list(oracle.iter_cube_free(2, 7)):
        assert list(extend._uniform_contexts(s)) == _uniform_reference(s), s


def test_a_resumed_uniform_walk_yields_the_contexts_past_its_start():
    # each level of the resumed stack must keep its own prefix and letters
    resumed = 0
    for s in [""] + list(oracle.iter_cube_free(2, 7)):
        contexts = list(extend._uniform_contexts(s))
        for q in contexts:
            assert list(extend._uniform_contexts(s, q)) == [x for x in contexts if x > q], (s, q)
            resumed += 1
    assert resumed == 5492


def test_a_resumed_walk_makes_only_the_nodes_past_its_start(append_checks):
    # the first context's walk and the walk resumed past it together make
    # exactly the nodes of one full walk
    for s in (FIRST_CONTEXT_DIES[0], "abbabaab", "bbababbabbaa"):
        first, q0 = append_checks(lambda: next(extend._uniform_contexts(s)))
        rest, _ = append_checks(lambda: list(extend._uniform_contexts(s, q0)))
        full, _ = append_checks(lambda: list(extend._uniform_contexts(s)))
        assert first + rest == full, s


def test_uniform_context_walk_work_counts(append_checks):
    # exact counts: the uniformity test runs before the cube check, so a
    # context it rules out costs no append_check call
    for s, contexts, checks in ((FIRST_CONTEXT_DIES[0], 262, 1488), ("abbabaab", 163, 1030), ("bbababbabbaa", 577, 3651)):
        n, found = append_checks(lambda: list(extend._uniform_contexts(s)))
        assert (len(found), n) == (contexts, checks), s
