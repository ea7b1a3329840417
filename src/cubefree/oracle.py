"""Brute-force reference implementations for cross-validation.

Everything here shares no scanning code with the optimized paths: cube
detection compares letters one by one, a letter appended in a tree walk
is checked by a loop of suffix slice comparisons, overlaps are found
bit-parallel, Thue-Morse letters come from the parity formula instead of
the morphism, and uniformity is decided by trying all decompositions.
The acceptance suite leans on agreement between the two routes.

The oracle has one walker, _contexts_in_tree_order, and one growth step,
_extensions: context trees in both modes and the enumerations run the
walker, and the greedy chains grow through the step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from . import words
from .analysis import MARKERS
from .words import CubeWitness

CUBE_MINI = "mini"
CUBE_MIDI = "midi"
CUBE_MAXI = "maxi"
CUBE_UNIFORM = "uniform-cube"  # no marker even in x^3; outside the mini/midi/maxi trichotomy


def naive_is_cube_free(w: str) -> bool:
    """Check every start position and period by direct letter comparison."""
    n = len(w)
    for i in range(n):
        for p in range(1, (n - i) // 3 + 1):
            if all(w[i + k] == w[i + k + p] == w[i + k + 2 * p] for k in range(p)):
                return False
    return True


def tm_letter_by_parity(i: int) -> str:
    """T[i] from the population count of i-1 (independent of the morphism route)."""
    if i < 1:
        raise ValueError("positions into T start at 1")
    return "a" if bin(i - 1).count("1") % 2 == 0 else "b"


def tm_prefix_by_parity(n: int) -> str:
    return "".join(tm_letter_by_parity(i) for i in range(1, n + 1))


def _overlap_scan(w: str) -> bool:
    """Letter-by-letter reference for is_overlap_free, kept for the tests."""
    n = len(w)
    for i in range(n):
        for p in range(1, (n - i - 1) // 2 + 1):
            if all(w[i + k] == w[i + k + p] for k in range(p + 1)):
                return False
    return True


def is_overlap_free(w: str) -> bool:
    """No factor of the form c + x + c + x + c (a letter c, any x).

    Equivalently no run of p+1 positions i with w[i] == w[i+p].  With the
    a-positions as one int, a period costs one XOR for all its matches and
    O(log p) shift-and-AND steps, each doubling the run a set bit vouches for.
    """
    words.validate_word(w, 2)
    n = len(w)
    x = int(w[::-1].translate(str.maketrans("ab", "10")) or "0", 2)
    for p in range(1, (n - 1) // 2 + 1):
        run = ~(x ^ (x >> p)) & ((1 << (n - p)) - 1)
        length = 1
        while run and length <= p:
            step = min(length, p + 1 - length)
            run &= run >> step
            length += step
        if run:
            return False
    return True


class EnumerationResult(NamedTuple):
    count: int
    words: list[str] | None


def _suffix_cube(w: str, x: str) -> CubeWitness | None:
    """Smallest-period cube suffix of w + x, one slice comparison per
    period: the plain counterpart of words.append_check."""
    wx = w + x
    n = len(wx)
    for p in range(1, n // 3 + 1):
        if wx[n - 3 * p : n - 2 * p] == wx[n - 2 * p : n - p] == wx[n - p :]:
            return CubeWitness(n - 3 * p + 1, p)
    return None


def _extensions(u: str, ctx: str, alphabet: str) -> Iterator[str]:
    """The children of the context ctx of u: each ctx + x, x in alphabet
    order, with no cube suffix in u + ctx + x.  u + ctx must be cube-free,
    so that checking the suffix alone is exact."""
    for x in alphabet:
        if _suffix_cube(u + ctx, x) is None:
            yield ctx + x


def _contexts_in_tree_order(u: str, alphabet: str, max_len: int) -> Iterator[str]:
    """Cube-free right contexts of u of length <= max_len, the empty one
    first, depth-first and lexicographic.  A node's children are checked only
    when the walk reaches them, and the explicit stack bounds the depth by
    memory, not by the interpreter's recursion limit.  Kept apart from the
    walkers in extend, so that tests compare two independent routes."""
    stack = [iter(("",))]
    while stack:
        ctx = next(stack[-1], None)
        if ctx is None:
            stack.pop()
            continue
        yield ctx
        if len(ctx) < max_len:
            stack.append(_extensions(u, ctx, alphabet))


def enumerate_cube_free(d: int, n: int, *, collect: bool = False, cap: int = 10**6) -> EnumerationResult:
    """Exact count of cube-free words of length n over the d-letter alphabet.

    Depth-first extension pruned by the incremental suffix-cube check; the
    cap bounds the count (and the collected list) to desk scale.
    """
    alphabet = words.letters_of(d)
    if n < 0:
        raise ValueError("length must be non-negative")
    count = 0
    out: list[str] | None = [] if collect else None
    for w in _contexts_in_tree_order("", alphabet, n):
        if len(w) == n:
            count += 1
            if count > cap:
                raise ValueError(f"enumeration cap of {cap} words exceeded")
            if out is not None:
                out.append(w)
    return EnumerationResult(count, out)


def iter_cube_free(d: int, max_n: int) -> Iterator[str]:
    """All cube-free words of length 1..max_n over d letters, in tree order."""
    walk = _contexts_in_tree_order("", words.letters_of(d), max_n)
    next(walk)  # the empty word
    yield from walk


def brute_count_cube_free(d: int, n: int) -> int:
    """Order-independent recount: filter all d^n words by the naive checker."""
    return sum(naive_is_cube_free("".join(w)) for w in itertools.product(words.letters_of(d), repeat=n))


@dataclass
class ContextTreeReport:
    """What a walk of the right-context tree of a word saw.

    alive_at_depth counts the explored cube-free contexts per length; the
    counts are complete when the walk exhausted the tree (or ran in full
    mode), partial when a survival probe exited early.
    """

    root: str
    depth: int
    exhausted: bool
    max_depth: int
    alive_at_depth: dict[int, int]
    complete: bool
    words_at_depth: dict[int, list[str]] | None = None


def context_tree(u: str, depth: int, *, d: int | None = None, full: bool = False) -> ContextTreeReport:
    """Explore right contexts of u up to the given length.

    exhausted is True iff no context of that length exists.  Both modes run
    one depth-first walk.  The default probe mode stops at the first context
    of that length (the tree of a word with infinitely many contexts is far
    too big to walk whole); full mode walks every node and also records the
    context words per length, each length in lexicographic order, and a
    tree that dies early keeps its first empty length.
    """
    d = words.validate_word(u, d)
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    if not naive_is_cube_free(u):
        raise ValueError("context_tree requires a cube-free root")
    per_depth: dict[int, list[str]] = {}
    for ctx in _contexts_in_tree_order(u, words.letters_of(d), depth):
        per_depth.setdefault(len(ctx), []).append(ctx)
        if len(ctx) == depth and not full:
            break
    deepest = max(per_depth)
    exhausted = deepest < depth
    if exhausted:
        per_depth[deepest + 1] = []  # the first empty level
    alive = {k: len(level) for k, level in per_depth.items() if level}
    return ContextTreeReport(u, depth, exhausted, deepest, alive, full or exhausted, per_depth if full else None)


def survives_to(u: str, depth: int, d: int | None = None) -> bool:
    """True iff u has a cube-free right context of the given length."""
    return not context_tree(u, depth, d=d).exhausted


def theta_decompose(w: str) -> tuple[str, str, str] | None:
    """A decomposition w = c + theta(u) + d witnessing uniformity, or None."""
    words.validate_word(w, 2)
    n = len(w)
    for lc, ld in ((0, 0), (1, 0), (0, 1), (1, 1)):
        if lc + ld > n or (n - lc - ld) % 2:
            continue
        mid = w[lc : n - ld]
        blocks = [mid[k : k + 2] for k in range(0, len(mid), 2)]
        if all(b in ("ab", "ba") for b in blocks):
            u = "".join("a" if b == "ab" else "b" for b in blocks)
            return (w[:lc], u, w[n - ld :])
    return None


def classify_cube(containing: str, witness: CubeWitness) -> str:
    """Marker-based class of a cube occurrence: where do markers first appear?

    mini: only x^3 contains a marker; midi: x^2 does but x does not;
    maxi: the root x itself does.  Cubes with no marker anywhere in x^3
    fall outside that trichotomy and are reported as a fourth diagnostic
    class.
    """
    pos, p = witness
    x = containing[pos - 1 : pos - 1 + p]
    if not x or containing[pos - 1 : pos - 1 + 3 * p] != x * 3:
        raise ValueError("witness does not locate a cube in the word")
    words.validate_word(x, 2)
    def has_marker(s: str) -> bool:
        return any(m in s for m in MARKERS)
    if has_marker(x):
        return CUBE_MAXI
    if has_marker(x * 2):
        return CUBE_MIDI
    if has_marker(x * 3):
        return CUBE_MINI
    return CUBE_UNIFORM


def _suffix_has_period(s: str, length: int, p: int) -> bool:
    start = len(s) - length
    return all(s[i] == s[i + p] for i in range(start, len(s) - p))


def qualifying_periods(s: str) -> set[int]:
    """Periods p >= 2 whose (3p-2)-suffix of s is genuinely p-periodic."""
    return {
        p
        for p in range(2, (len(s) + 2) // 3 + 1)
        if _suffix_has_period(s, 3 * p - 2, p)
    }


def greedy_chain_search(max_n: int) -> list[tuple[str, str, int]]:
    """For every binary cube-free word up to max_n, greedily grow a right
    context whose every step leaves a (3p-2)-length p-periodic suffix with
    consecutive periods distinct; record the word, the context, and its
    length.  Deterministic: letters are tried in order a, b."""
    if not 1 <= max_n <= 20:
        raise ValueError("desk-scale cap: max_n must be in 1..20")
    results = []
    for u in iter_cube_free(2, max_n):
        ctx = ""
        reachable: set[int] | None = None
        while True:
            for child in _extensions(u, ctx, "ab"):
                periods = qualifying_periods(u + child)
                if reachable is None:
                    nxt = periods
                else:
                    nxt = {p for p in periods if len(reachable) > 1 or p not in reachable}
                if nxt:
                    ctx = child
                    reachable = nxt
                    break
            else:
                break
        results.append((u, ctx, len(ctx)))
    return results
