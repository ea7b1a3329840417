"""Explicit infinite cube-free extensions and the extendability decision.

The central object is the tail certificate (Y, r): finite data denoting
the infinite word u + Y + T[r..], where T is the Thue-Morse word.  A
certificate is checked by a finite computation that is provably enough:
a cube in u + Y + T[r..] cannot live inside the pure T-tail (T is
cube-free), and one that touches the finite prefix P = u + Y has period
at most |P| + 1, since a longer period would place a (2p+1)-length
p-periodic factor -- an overlap -- inside T.  Such a cube ends within
4|P| letters, so checking the prefix of length |P| + L with
L = 4(|P|+1) + 64 settles the infinite claim.

Extendability is decided by a two-sided search: breadth-first exploration
of the right-context tree (a finite tree means a definite "no"), with a
certificate attempt at every explored node (a verified certificate means
a definite "yes").  Either side terminates on every input at desk scale:
a right-extendable word always has a finite extension carrying a long
uniform right context from which a tail certificate is built, and a
non-extendable word has a finite tree.
"""

from __future__ import annotations

import functools
import math
import mmap
from dataclasses import dataclass
from typing import Callable, Iterator

from . import analysis, thue_morse, words

_BAD_PREFIXES = ("ababa", "babab")

# a walk's extra test keep(w, x) on a child w + x, run before the cube check
_Keep = Callable[[str, str], bool] | None


class NotExtendableError(ValueError):
    """Raised when an operation requires an extendable word but the search
    proved the context tree finite."""

    def __init__(self, word: str, max_context_length: int):
        super().__init__(
            f"{word!r} is not right extendable: context tree exhausted, "
            f"maximal context length {max_context_length}"
        )
        self.word = word
        self.max_context_length = max_context_length


def verification_length(prefix_len: int) -> int:
    """Tail length whose cube-freeness certifies the whole infinite word."""
    return 4 * (prefix_len + 1) + 64


@dataclass(frozen=True)
class TailCertificate:
    """Certificate that u + Y + T[r..] is an infinite cube-free word.

    seam marks where the uniform stretch feeding the T-tail begins inside
    u + Y (the structural residue of the construction); tm_aligned records
    the stronger claim that the whole of u + Y equals T[r-|uY| .. r-1], so
    the certified word is simply a tail of T.
    """

    Y: str
    r: int
    seam: int = 0
    tm_aligned: bool = False

    def verified_prefix(self, u: str) -> int:
        return verification_length(len(u) + len(self.Y))

    def verify(self, u: str) -> bool:
        """Re-check the certificate against the word it extends.

        Only cubes starting inside u + Y are looked for: the rest of the
        scanned word is a factor of T, which is cube-free."""
        if self.r < 1:
            return False
        prefix = u + self.Y
        length = self.verified_prefix(u)
        full = prefix + thue_morse.tm_range(self.r, self.r + length)
        if words.find_cube(full, _before=len(prefix)) is not None:
            return False
        if not 0 <= self.seam <= len(prefix):
            return False
        tail_feed = prefix[self.seam :]
        try:
            if not analysis.is_uniform(tail_feed):
                return False
        except ValueError:  # c-letters at the seam never certify
            return False
        if self.tm_aligned:
            if self.r - len(prefix) < 1:
                return False
            if prefix and thue_morse.tm_range(self.r - len(prefix), self.r - 1) != prefix:
                return False
        return True

    def _checked(self, u: str) -> "TailCertificate":
        if not self.verify(u):
            raise RuntimeError(
                f"internal error: constructed certificate (Y={self.Y!r}, r={self.r}) "
                f"fails verification for {u!r}"
            )
        return self


@dataclass(frozen=True)
class ExtendabilityVerdict:
    """Yes with a verified certificate, or No with the exhaustion depth."""

    extendable: bool
    certificate: TailCertificate | None = None
    max_context_length: int | None = None


# Decision results and failed certificate probes, keyed by (word, alphabet
# size).  Concurrent duplicate inserts are harmless: values for equal keys
# are equal, and all operations stay logically pure.  Each table holds at
# most _MEMO_CAP entries: a full dict drops its oldest entry, a full set is
# emptied.
_MEMO_CAP = 2048
_verdicts: dict[tuple[str, int], ExtendabilityVerdict] = {}
_no_uniform_context: set[str] = set()
_no_binary_reduction: set[tuple[str, int]] = set()


def clear_caches() -> None:
    _uniform_context_tail.cache_clear()
    _first_uniform_context.cache_clear()
    _verdicts.clear()
    _no_uniform_context.clear()
    _no_binary_reduction.clear()


def _remember_verdict(key: tuple[str, int], verdict: ExtendabilityVerdict) -> None:
    while len(_verdicts) >= _MEMO_CAP:
        _verdicts.pop(next(iter(_verdicts)), None)
    _verdicts[key] = verdict


def _remember_miss(table: set, key: object) -> None:
    if len(table) >= _MEMO_CAP:
        table.clear()
    table.add(key)


def log_bound(n: int) -> float:
    """Upper bound max(1, 8.13*log2(n) - 15.64) on the length of a period
    chain over a word of length n (see chain_length_audit)."""
    if n < 1:
        raise ValueError("length must be positive")
    return max(1.0, 8.13 * math.log2(n) - 15.64)


def chain_length_audit(u: str, w: str) -> int:
    """Largest k such that every step i = 1..k of appending w to u leaves a
    suffix of length 3p-2 with period p for some p >= 2, with consecutive
    periods distinct.

    Recomputed from scratch at every prefix (no incremental state), so it
    independently checks any chain a search produced.
    """
    words.validate_word(u + w)
    if words.find_cube(u) is not None:
        raise ValueError("chain audit requires a cube-free base word")
    if not words.is_cube_free(u + w):
        raise ValueError("w must be a right context of u")
    reachable: set[int] | None = None
    k = 0
    for i in range(1, len(w) + 1):
        s = u + w[:i]
        periods = {
            p
            for p in range(2, (len(s) + 2) // 3 + 1)
            if words.max_periodic_suffix(s, p).length >= 3 * p - 2
        }
        if reachable is not None:
            periods = {p for p in periods if len(reachable) > 1 or p not in reachable}
        if not periods:
            break
        reachable = periods
        k = i
    return k


def _children(s: str, w: str, depth: int | None, alphabet: str, keep: _Keep = None) -> Iterator[str]:
    """The children of the right context w of s: each w + x, x in alphabet
    order, with s + w + x cube-free and none past depth (None: no cut).
    keep(w, x), if given, runs first.  Every walk grows its nodes here."""
    if depth is None or len(w) < depth:
        base = s + w
        for x in alphabet:
            if (keep is None or keep(w, x)) and words.append_check(base, x, assume_cube_free=True) is None:
                yield w + x


def _depth_first(
    s: str, depth: int | None, alphabet: str = "ab", keep: _Keep = None, after: str | None = None
) -> Iterator[str]:
    """The right contexts of s (see _children), the empty one first, in
    depth-first lexicographic order.  A node's children are made only when
    the walk resumes past it, so a caller that stops at a node expands
    nothing beyond it; the explicit stack bounds the depth by memory, not
    by the interpreter's recursion limit.

    after, a node of this walk, resumes it just past that node: the stack
    starts as the full walk's stack stands once it has yielded after, with
    the later siblings of each node on after's path, then after's children.
    The walk yields exactly the contexts that sort after it, and makes no
    node before it again."""
    if after is None:
        stack = [iter(("",))]
    else:
        # one _children call per level binds that level's prefix and letters now
        stack = [_children(s, after[:i], depth, alphabet[alphabet.index(x) + 1 :], keep) for i, x in enumerate(after)]
        stack.append(_children(s, after, depth, alphabet, keep))
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            continue
        yield w
        stack.append(_children(s, w, depth, alphabet, keep))


def _contexts_of_length(s: str, k: int, keep: _Keep = None, after: str | None = None) -> Iterator[str]:
    """The binary right contexts of s of length exactly k, in lexicographic
    order; only those past after, if given (see _depth_first)."""
    return (w for w in _depth_first(s, k, "ab", keep, after) if len(w) == k)


# words of a breadth-first level moved into one memory map at a time
_SPILL = 4096


class _Level:
    """The words of one breadth-first level, all of one length, in order.

    Words are kept as strings until _SPILL of them have gathered; those
    then go into one anonymous memory map, side by side.  A walk cut off
    deep in an exponential context tree thus holds k bytes a word instead
    of a string object and a list slot (about 100 bytes), and each map goes
    back to the system once the level is dropped, instead of leaving the
    heap it filled to the allocator."""

    def __init__(self) -> None:
        self._strings: list[str] = []
        self._maps: list[mmap.mmap] = []

    def __bool__(self) -> bool:
        return bool(self._strings or self._maps)

    def append(self, w: str) -> None:
        self._strings.append(w)
        if len(self._strings) == _SPILL:
            data = "".join(self._strings).encode("ascii")
            packed = mmap.mmap(-1, len(data))
            packed.write(data)
            self._maps.append(packed)
            self._strings = []

    def __iter__(self) -> Iterator[str]:
        for packed in self._maps:
            batch = str(packed, "ascii")
            k = len(batch) // _SPILL
            for i in range(0, len(batch), k):
                yield batch[i : i + k]
        yield from self._strings


def _breadth_first(s: str, depth: int | None, alphabet: str = "ab") -> Iterator[str]:
    """The right contexts of s (see _children), the empty one first, in
    breadth-first order: level by level, each level in lexicographic order.
    Each context is yielded as soon as it is made, so a caller that stops at
    one leaves the rest of its level unexpanded.  A level holds contexts of
    one length (see _Level)."""
    yield ""
    level: tuple[str] | _Level = ("",)
    while level:
        nxt = _Level()
        for w in level:
            for child in _children(s, w, depth, alphabet):
                yield child
                nxt.append(child)
        level = nxt


def _tail_start(tail: str, *, prefer_tm: bool) -> int:
    """T-position r making tail + T[r..] cube-free; 0 (no position, which
    verify rejects) when the construction has no candidate.

    A tail that occurs in T continues it in place (the certified word then
    rides a genuine suffix of T); otherwise the choice is driven by the
    last two-letter block of the right-aligned tail: the first of two short
    probes that extends it cube-freely picks one of the two viable splice
    points of T.
    """
    if prefer_tm and thue_morse.is_tm_factor(tail):
        return thue_morse.find_occurrence_after(tail, 1) + len(tail)
    if tail[-2:] == "ab":
        probes = (("aa", 6), ("babb", 20))
    elif tail[-2:] == "ba":
        # letter-exchanged case: T[22..] and T[4..] open with the
        # complements of what T[6..] and T[20..] open with
        probes = (("bb", 22), ("abaa", 4))
    else:
        return 0
    return next((r for probe, r in probes if words.extension_is_cube_free(tail, probe)), 0)


def t_extend_uniform(u: str) -> TailCertificate:
    """Tail certificate for a uniform cube-free word with a short context.

    Requires a cube-free right context of length 3, or length 2 when u is
    right aligned.  Prefixes of T continue T in place.  Otherwise the
    construction works block-wise: a right-aligned word tests the two
    probes of its last block to choose between the tails starting at
    T-positions 6 and 20; a word one letter past alignment either absorbs
    that letter into the tail (positions 7 / 21) or, when the letter heads
    the wrong way, extends by one letter back to alignment first.
    """
    words.validate_word(u, 2)
    if words.find_cube(u) is not None:
        raise ValueError("t_extend_uniform requires a cube-free word")
    if not analysis.is_uniform(u):
        raise ValueError(f"{u!r} is not uniform")
    right_aligned = analysis.is_right_aligned(u)
    if not any(_contexts_of_length(u, 3)) and not (right_aligned and any(_contexts_of_length(u, 2))):
        raise ValueError(f"{u!r} has no qualifying short right context")
    cert = _uniform_tail(u, 0)
    if cert is None:
        step = "b" if u[-1] == "a" else "a"
        raise RuntimeError(f"alignment step letter {step!r} is blocked for {u!r}")
    return cert._checked(u)


# The candidate builders: each returns an unchecked certificate for word
# whose T-tail is built on the tail word[start:].  They never raise; where
# a construction has no candidate it gives None or a certificate that
# verify rejects, and the caller that decides on a candidate verifies it
# once.


def _uniform_tail(word: str, start: int) -> TailCertificate | None:
    """t_extend_uniform's construction on the uniform cube-free tail
    word[start:]; None where the alignment step letter is blocked."""
    u = word[start:]
    n = len(u)
    if thue_morse.tm_prefix(n) == u:
        return TailCertificate("", n + 1, start, tm_aligned=start == 0)
    if n >= 2 and analysis.is_right_aligned(u):
        return TailCertificate("", _tail_start(u, prefer_tm=False), start)
    if n >= 3 and analysis.is_right_aligned(u[:-1]):
        last = u[-1]
        block = u[-3:-1]  # last complete block of the aligned core u[:-1]
        if last == "a" and block == "ab":
            # the trailing letter is absorbed by the tail: a + T[7..] = T[6..]
            return TailCertificate("", 7, start)
        if last == "b" and block == "ba":
            # mirror absorption: b + T[23..] = T[22..]
            return TailCertificate("", 23, start)
        # the trailing letter breaks alignment the wrong way: one more
        # letter restores alignment (the alternative letter cubes out)
        step = "b" if last == "a" else "a"
        if not words.extension_is_cube_free(u, step):
            return None
        return TailCertificate(step, _tail_start(u + step, prefer_tm=False), start)
    # tiny leftovers ("b", "aa", "bb"): every short uniform cube-free word
    # occurs in T, so continue T from its first occurrence
    i = thue_morse.find_occurrence_after(u, 1)
    return TailCertificate("", i + n, start, tm_aligned=start == 0)


def _t_tail(word: str, start: int) -> TailCertificate:
    """The tail word[start:] continued straight into T (see _tail_start)."""
    return TailCertificate("", _tail_start(word[start:], prefer_tm=True), start)


def _attach_tail(u: str, consumed: str) -> TailCertificate | None:
    """Verified certificate for u whose Y begins with consumed, a
    right-aligned prefix of a uniform context of u; None on a miss.  A
    uniform u + consumed takes the uniform construction whole; otherwise
    the word is re-split at its rightmost marker, whose first letter ends
    the new stem, and a long right-aligned rest continues into T."""
    s = u + consumed
    if analysis.is_uniform(s):
        cert = _uniform_tail(s, 0)
    else:
        marks = analysis.scan_markers(s)
        if not marks:
            return None
        split = marks[-1].position
        if split > len(u) or not analysis.is_right_aligned(s[split:]) or len(s) - split < 2 * split:
            return None
        cert = _t_tail(s, split)
    if cert is None or not cert.verify(s):
        return None
    return TailCertificate(consumed + cert.Y, cert.r, cert.seam, cert.tm_aligned)


def t_extend_with_uniform_context(u: str, w: str) -> TailCertificate:
    """Tail certificate for a cube-free word with a long uniform context.

    Requires u + w cube-free, w uniform of length at least 2|u| + 3, and w
    free of the prefixes ababa/babab.  Only a right-aligned prefix of w of
    length 2|u| or 2|u|+1 is consumed; the rest of w witnesses the needed
    context lengths.  If the consumed prefix keeps u + prefix uniform the
    short-context construction applies directly; otherwise the word is
    re-split at its rightmost marker, whose trailing part is a long
    right-aligned word that a T-tail continues.
    """
    words.validate_word(u + w, 2)
    if not words.is_cube_free(u + w):
        raise ValueError("w must be a right context of u")
    if not analysis.is_uniform(w):
        raise ValueError("w must be uniform")
    if len(w) < 2 * len(u) + 3:
        raise ValueError(f"context too short: need length >= {2 * len(u) + 3}")
    if w[:5] in _BAD_PREFIXES:
        raise ValueError("context must not begin with ababa or babab")
    return _uniform_context_tail(u, w)


# The construction is a pure function of (u, w), and its callers hand it a
# uniform context that _uniform_contexts or t_extend_with_uniform_context
# has checked.  Remembering recent results lets algorithm2 reuse the
# certificate its extendability decision has already verified.
@functools.lru_cache(maxsize=64)
def _uniform_context_tail(u: str, w: str) -> TailCertificate:
    for k in (2 * len(u), 2 * len(u) + 1):
        if analysis.is_right_aligned(w[:k]):
            cert = _attach_tail(u, w[:k])
            if cert is not None:
                return cert
    raise RuntimeError(f"internal error: no tail attaches to {u!r} with uniform context {w!r}")


def _stays_uniform(q: str, x: str) -> bool:
    """For a uniform q: is q + x uniform and free of the prefixes
    ababa/babab?  The doubled letters of a uniform word all end at one
    position parity, so a new one need only match the first found."""
    if q[-1:] == x:
        i = q.find("aa")
        if i < 0:
            i = q.find("bb")
        if i >= 0 and (len(q) - i) % 2 == 0:
            return False
    return len(q) != 4 or q + x not in _BAD_PREFIXES


def _uniform_contexts(s: str, after: str | None = None) -> Iterator[str]:
    """The uniform cube-free right contexts of s of length 2|s| + 3 with no
    forbidden prefix, in lexicographic order; only those past after, one
    of them, if given."""
    return _contexts_of_length(s, 2 * len(s) + 3, _stays_uniform, after)


# The context walk is a pure function of s, and algorithm2's stage two asks
# for the same s that its extendability decision has just probed.
@functools.lru_cache(maxsize=64)
def _first_uniform_context(s: str) -> str | None:
    """First uniform context of s of length 2|s| + 3, extendable or not."""
    return next(_uniform_contexts(s), None)


def _extends_right(s: str, q: str) -> bool:
    """Is s + q right extendable over {a,b}, for a uniform context q of s?

    Two candidate builders run first on the tail q of the word: _t_tail,
    then _uniform_tail.  Each candidate is verified once on s + q; one that
    fails verification is a miss, never an error.  The full decision runs
    only when both miss.  A certified yes is not memoized, so _verdicts
    holds only what _decide_right computes."""
    word = s + q
    for build in (_t_tail, _uniform_tail):
        cert = build(word, len(s))
        if cert is not None and cert.verify(word):
            return True
    return _decide_right(word, 2).extendable


def _extendable_uniform_context(s: str) -> str | None:
    """First uniform context q of s of length 2|s| + 3 with s + q right
    extendable.  The first context of all, already known, is tested first;
    on a miss the walk resumes past it."""
    q0 = _first_uniform_context(s)
    if q0 is None or _extends_right(s, q0):
        return q0
    return next((q for q in _uniform_contexts(s, q0) if _extends_right(s, q)), None)


def _binary_suffix(s: str) -> str:
    """The maximal all-binary suffix (everything after the last c-letter)."""
    return s[len(s.rstrip("ab")) :]


def _lifting_context(s: str) -> tuple[str, str, ExtendabilityVerdict] | None:
    """(s2, w, verdict): s2 the binary suffix of s, w the first binary
    context of s just long enough for |s2 + w| >= |s|/2 with s2 + w right
    extendable over {a,b}, and verdict that decision.  Any binary context
    of s2 + w is then a context of s + w: a cube reaching past the last
    c-letter of s would need a period both larger than |s2 + w| and
    smaller than half the c-letter's position."""
    s2 = _binary_suffix(s)
    need = max(0, (len(s) + 1) // 2 - len(s2))
    for w in _contexts_of_length(s, need):
        sub = _decide_right(s2 + w, 2)
        if sub.extendable:
            return s2, w, sub
    return None


def _node_certificate(s: str, d: int) -> TailCertificate | None:
    """Try to certify the word s directly (the per-node check of the search)."""
    if d == 2:
        if s in _no_uniform_context:
            return None
        q = _first_uniform_context(s)
        if q is None:
            _remember_miss(_no_uniform_context, s)
            return None
        return _uniform_context_tail(s, q)
    if (s, d) in _no_binary_reduction:
        return None
    hit = _lifting_context(s)
    if hit is None:
        _remember_miss(_no_binary_reduction, (s, d))
        return None
    s2, w, sub = hit
    cert2 = sub.certificate
    seam = len(s) - len(s2) + cert2.seam
    return TailCertificate(w + cert2.Y, cert2.r, seam, tm_aligned=False)._checked(s)


def _cube_free_word(u: str, d: int | None) -> int:
    """Validate u over the alphabet of size d and reject a cube in it;
    return the effective alphabet size."""
    d = words.validate_word(u, d)
    if words.find_cube(u) is not None:
        raise ValueError(f"{u!r} contains a cube")
    return d


def is_right_extendable(u: str, d: int | None = None) -> ExtendabilityVerdict:
    """Decide whether u has an infinite cube-free right context.

    Breadth-first walk of the right-context tree, attempting a certificate
    at every node; lexicographic child order keeps verdicts, certificates,
    and exhaustion depths reproducible.  Yes-verdicts carry a verified
    TailCertificate; No-verdicts report the maximal context length of the
    exhausted tree.  Verdicts are memoized per (word, alphabet size).
    """
    return _decide_right(u, _cube_free_word(u, d))


def _decide_right(u: str, d: int) -> ExtendabilityVerdict:
    """is_right_extendable on a checked word.  Only u's own verdict is
    looked up and memoized, never a walked node's, so a verdict is a
    function of (u, d) alone."""
    key = (u, d)
    verdict = _verdicts.get(key)
    if verdict is not None:
        return verdict
    deepest = 0
    for w in _breadth_first(u, None, words.letters_of(d)):
        deepest = len(w)
        cert = _node_certificate(u + w, d)
        if cert is not None:
            cert = TailCertificate(w + cert.Y, cert.r, cert.seam, cert.tm_aligned)
            verdict = ExtendabilityVerdict(True, cert)
            break
    else:
        verdict = ExtendabilityVerdict(False, None, deepest)
    _remember_verdict(key, verdict)
    return verdict


def is_left_extendable(u: str, d: int | None = None) -> ExtendabilityVerdict:
    """Extendability to the left: the mirror decision on the reversed word.

    Cube-freeness is reversal-invariant, so the verdict is exact; a Yes
    certificate describes the reversed word growing rightward, i.e. the
    original word extended leftward by the reversal of that growth.
    """
    return _decide_right(words.reverse(u), _cube_free_word(u, d))


def _require_extendable(u: str, d: int) -> ExtendabilityVerdict:
    verdict = _decide_right(u, d)
    if not verdict.extendable:
        raise NotExtendableError(u, verdict.max_context_length or 0)
    return verdict


def _shortest_c_extension(U: str, d: int) -> str:
    """Shortest right context of the form (binary word + c-letter) whose
    append keeps U right extendable; breadth-first and lexicographic, so
    deterministic.  Raises if none exists within half of |U| plus slack.
    U must be a cube-free word over the d letters; it is not re-checked."""
    c_letters = words.letters_of(d)[2:]
    for v in _breadth_first(U, (len(U) + 1) // 2 + 2):
        for c in c_letters:
            if words.append_check(U + v, c, assume_cube_free=True) is not None:
                continue
            if _decide_right(U + v + c, d).extendable:
                return v + c
    raise RuntimeError(f"no extendability-preserving c-letter context found for {U!r}")


def _shortest_marker_extension(base: str) -> str:
    """Shortest nonempty binary context v with base + v ending at a marker
    and still right extendable over {a,b}; raises if none exists within
    2|base| + 31 letters."""
    for v in _breadth_first(base, 2 * len(base) + 31):
        word = base + v
        if v and any(word.endswith(m) for m in analysis.MARKERS) and _decide_right(word, 2).extendable:
            return v
    raise RuntimeError(f"no extendability-preserving marker context found for {base!r}")


def _iteration_cap(u: str) -> int:
    """Most rounds either stage of algorithm2 may take on u."""
    return max(8, int(log_bound(max(1, len(u)))) + 4)


def _lift(u: str, d: int) -> tuple[str, str, int]:
    """Stage one of algorithm2: grow u by shortest contexts ending in
    c-letters until it has a lifting context w.  Returns (grown, stretch,
    rounds): the letters appended to u, w last; the binary stretch ending
    with w whose binary contexts lift to u + grown; and the rounds taken."""
    grown = ""
    for rounds in range(1, _iteration_cap(u) + 1):
        hit = _lifting_context(u + grown)
        if hit is not None:
            s2, w, _ = hit
            return grown + w, s2 + w, rounds
        grown += _shortest_c_extension(u + grown, d)
    raise RuntimeError(f"stage-one iteration cap exceeded for {u!r}")


def algorithm2(u: str, d: int | None = None, *, stats: dict | None = None) -> TailCertificate:
    """Construct an explicit infinite right context (Y, r) of an extendable
    cube-free word, denoting u + Y + T[r..].

    Stage one (alphabets beyond {a,b} only): grow u by shortest contexts
    ending in c-letters until the last c-letter is followed by a binary
    stretch of half the word's length that is itself right extendable over
    {a,b}; binary contexts of that stretch then lift to the whole word.
    Stage two: grow the binary stretch by shortest contexts ending at
    markers until it has a uniform right context of length 2n+3 with no
    ababa/babab prefix that preserves extendability.  The final tail start
    comes from the uniform-context construction.
    """
    d = _cube_free_word(u, d)
    verdict = _require_extendable(u, d)
    if stats is not None:
        stats.setdefault("stage1_iterations", 0)
        stats.setdefault("stage2_iterations", 0)

    grown = ""
    anchor = u  # the binary word whose contexts lift to u + grown
    if d >= 3 and (any(words.is_c_letter(ch) for ch in u) or not _decide_right(u, 2).extendable):
        grown, anchor, rounds = _lift(u, d)
        if stats is not None:
            stats["stage1_iterations"] += rounds

    for _ in range(_iteration_cap(u)):
        if stats is not None:
            stats["stage2_iterations"] += 1
        q = _extendable_uniform_context(anchor)
        if q is not None:
            break
        v = _shortest_marker_extension(anchor)
        grown += v
        anchor += v
    else:
        raise RuntimeError(f"stage-two iteration cap exceeded for {u!r}")

    sub = _uniform_context_tail(anchor, q)
    Y = grown + sub.Y
    seam = len(u) + len(Y) - len(anchor) - len(sub.Y) + sub.seam
    unlifted = u + Y == anchor + sub.Y
    cert = TailCertificate(Y, sub.r, seam, sub.tm_aligned and unlifted)
    # without a stage-one lift the certificate is sub restated for u, and
    # the tail attachment has already verified exactly that word; a lifted
    # one equal to the extendability verdict's was verified with the verdict
    return cert if unlifted or cert == verdict.certificate else cert._checked(u)
