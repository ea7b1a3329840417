"""Uniformity, markers, and marker-based factorization of binary words.

A binary word is *uniform* when it has the shape c + theta(u) + d with
c, d in {a, b, empty}, where theta is the Thue-Morse morphism; it is
*right aligned* when d can be taken empty.  Uniformity is decided by the
parity rule: all occurrences of aa/bb factors sit at positions of one
parity.  Cube-free words decompose into uniform stretches separated by
the four markers aabaa, ababa, babab, bbabb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import words

MARKERS = ("aabaa", "ababa", "babab", "bbabb")

# A cube-free binary word is non-uniform iff it contains one of these.
NON_UNIFORM_FACTORS = ("aabaa", "aababaa", "bbabb", "bbababb")


class Marker(NamedTuple):
    position: int  # 1-based start of the occurrence
    pattern: str  # one of MARKERS

    @property
    def kind(self) -> str:
        return self.pattern.upper()

    @property
    def end(self) -> int:
        return self.position + len(self.pattern) - 1


class Occurrence(NamedTuple):
    position: int
    pattern: str


@dataclass(frozen=True)
class MarkerFactorization:
    """Decomposition of a word into segments each ending at a marker's last letter.

    Segments are stored left to right; the rightmost marker is a suffix of
    the word.  Joining the segments reproduces the word exactly, even when
    neighbouring markers overlap in one letter.
    """

    word: str
    segments: tuple[str, ...]
    markers: tuple[Marker, ...]


def _cc_positions(w: str) -> list[int]:
    return [i + 1 for i in range(len(w) - 1) if w[i] == w[i + 1]]


def is_uniform(w: str) -> bool:
    """Parity rule: every aa/bb occurrence starts at a position of one parity."""
    words.validate_word(w, 2)
    return len({i % 2 for i in _cc_positions(w)}) <= 1


def is_right_aligned(w: str) -> bool:
    """True iff w = c + theta(u) for c in {a, b, empty}.

    Equivalent to the parity rule with the parity class pinned by the right
    end: every aa/bb occurrence must start an even distance from it.
    """
    words.validate_word(w, 2)
    n = len(w)
    return all((n - i) % 2 == 0 for i in _cc_positions(w))


def non_uniform_witness(w: str) -> Occurrence | None:
    """Leftmost occurrence of a factor witnessing non-uniformity, or None.

    Defined for cube-free input only (the witness list characterises
    non-uniformity just on cube-free words).
    """
    words.validate_word(w, 2)
    if words.find_cube(w) is not None:
        raise ValueError("non_uniform_witness requires a cube-free word")
    found = [(w.find(pat), pat) for pat in NON_UNIFORM_FACTORS]
    found = [(i, pat) for i, pat in found if i != -1]
    if bool(found) == is_uniform(w):
        raise RuntimeError(f"internal error: witness factors and parity rule disagree on {w!r}")
    if not found:
        return None
    i, pat = min(found)
    return Occurrence(i + 1, pat)


def scan_markers(w: str) -> list[Marker]:
    """All marker occurrences, left to right.

    Raw scan: ababa/babab are reported even where they occur as a prefix or
    suffix (where they do not break uniformity); callers filter by context.
    """
    words.validate_word(w, 2)
    out: list[Marker] = []
    for pat in MARKERS:
        i = w.find(pat)
        while i != -1:
            out.append(Marker(i + 1, pat))
            i = w.find(pat, i + 1)
    out.sort()
    return out


def factorize(w: str) -> MarkerFactorization:
    """Split a cube-free word ending with a marker at every marker's last letter."""
    words.validate_word(w, 2)
    if words.find_cube(w) is not None:
        raise ValueError("factorize requires a cube-free word")
    marks = scan_markers(w)
    if not marks or marks[-1].end != len(w):
        raise ValueError("word does not end with a marker")
    for prev, cur in zip(marks, marks[1:]):
        # cube-freeness caps marker overlaps at two letters (two only for
        # an equal marker repeating at distance three, e.g. aabaabaa)
        if cur.position < prev.position + 3:
            raise RuntimeError(f"internal error: markers {prev} and {cur} overlap in {w!r}")
    segments = []
    start = 0
    for m in marks:
        segments.append(w[start : m.end])
        start = m.end
    return MarkerFactorization(w, tuple(segments), tuple(marks))


def c_letter_positions(w: str) -> list[int]:
    """Ascending positions of letters other than a and b."""
    words.validate_word(w)
    return [i + 1 for i, ch in enumerate(w) if words.is_c_letter(ch)]
