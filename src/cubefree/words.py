"""Core word utilities: alphabets, cube detection, periodicity.

Words are plain Python strings over the letters ``'a', 'b', 'c', ...``
(letter index i is rendered as ``chr(ord('a') + i)``).  All positions
reported by this package are 1-based, matching the usual w[1..n]
convention of combinatorics on words; internally slices are 0-based.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass
from typing import NamedTuple

MAX_ALPHABET = 26
_LETTERS = frozenset(string.ascii_lowercase)


@dataclass(frozen=True)
class Alphabet:
    """The alphabet {a, b, c, ...} of a given size (2..26).

    Indices 0 and 1 are the distinguished letters a and b; every further
    letter ('c' onwards) is a "c-letter".
    """

    size: int

    def __post_init__(self) -> None:
        if not 2 <= self.size <= MAX_ALPHABET:
            raise ValueError(f"alphabet size must be in 2..{MAX_ALPHABET}, got {self.size}")

    @property
    def letters(self) -> str:
        return string.ascii_lowercase[: self.size]

    @property
    def c_letters(self) -> str:
        return self.letters[2:]

    def __contains__(self, letter: str) -> bool:
        return len(letter) == 1 and letter in self.letters


class CubeWitness(NamedTuple):
    """Location of a cube factor: w[position .. position+3*period-1] = x^3."""

    position: int  # 1-based start
    period: int  # |x|

    def root(self, w: str) -> str:
        return w[self.position - 1 : self.position - 1 + self.period]


class PeriodicSuffix(NamedTuple):
    """Longest suffix of a word having a given period (vacuous if length <= period)."""

    period: int
    length: int


def letters_of(d: int) -> str:
    """The first d letters, validating the alphabet size."""
    return Alphabet(d).letters


def is_c_letter(letter: str) -> bool:
    return letter >= "c"


def infer_alphabet(w: str) -> int:
    """Smallest valid alphabet size containing every letter of w (at least 2)."""
    letters = set(w)
    top = ord(max(letters)) - ord("a") if letters else -1
    return max(2, top + 1)


def validate_word(w: str, d: int | None = None) -> int:
    """Check that w is a word over the alphabet of size d; return the effective size.

    With d=None the alphabet is inferred from the letters actually used.
    """
    if not isinstance(w, str):
        raise TypeError(f"a word must be a string, not {type(w).__name__}")
    if not _LETTERS.issuperset(w):
        bad = next(ch for ch in w if ch not in _LETTERS)
        raise ValueError(f"invalid letter {bad!r} in word {w!r}")
    need = infer_alphabet(w)
    if d is None:
        return need
    Alphabet(d)
    if need > d:
        raise ValueError(f"word {w!r} uses letters outside the {d}-letter alphabet")
    return d


def reverse(w: str) -> str:
    """Letter-by-letter reversal (an involution)."""
    return w[::-1]


def _back_extension(w: str, i: int, p: int, cap: int) -> int:
    """Largest b <= cap with w[i-b:i] == w[i+p-b:i+p]: how far the p-periodic
    stretch through w[i:i+p] reaches left of i.  Galloping then binary
    search over slice comparisons; cap must not exceed i."""
    lo, hi = 0, 1  # w[i-lo:i] matches; hi is the next length to try
    while hi <= cap and w[i - hi : i] == w[i + p - hi : i + p]:
        lo, hi = hi, 2 * hi
    hi = min(hi, cap + 1)  # first length known to fail (or past the cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if w[i - mid : i] == w[i + p - mid : i + p]:
            lo = mid
        else:
            hi = mid
    return lo


def find_cube(w: str, *, _before: int | None = None, _after: int = 0) -> CubeWitness | None:
    """Leftmost cube occurrence (ties broken by smallest period), or None.

    A cube of period p is a stretch of 2p consecutive positions j with
    w[j] == w[j+p].  Any such stretch covers a whole aligned block
    [kp, kp+p), so w[kp:kp+2p] is a square.  For each p only those n/p
    blocks are compared: O(n log n) slice comparisons over all p, each one
    done in C.  A
    square block is extended leftwards by the exact backward extension b;
    the stretch holds a cube, starting at kp - b, iff it also reaches p - b
    letters past kp + 2p.  The first aligned square of the leftmost cube's
    stretch has b < p, and an earlier square whose stretch is shorter than
    2p cannot also contain the next block, so the first cube met for a
    given p is the leftmost one of that period.

    _before (internal) reports only a cube starting at a 0-based index
    below it: the search starts as if a cube had been found there, so the
    block pruning skips every later block.  The verifier uses it on words
    whose suffix from that index on is known to be cube-free.

    _after (internal), the mirror, is a length a for which the caller
    vouches that w[:a] is cube-free, so every cube ends past a.  A cube of
    period p then starts after a - 3p, and the block loop for p starts at
    the aligned block f = (a - 3p) // p * p when a > 3p, at 0 otherwise.
    The witness is unchanged.  Only block f lacks its predecessor, and its
    back extension is capped at p - 1: if its stretch began earlier and
    reached a cube from f - p + 1, the stretch would hold one from f - p,
    ending by f + 2p < a.  Callers pass _after only for a prefix that an
    exact cube check has covered.
    """
    n = len(w)
    # 0-based start and period of the best cube so far
    best, best_p = (n if _before is None else min(n, _before)), 0
    top = (_after + 2) // 3  # 3p < _after exactly when p < top
    for p in range(1, n // 3 + 1):
        if best == 0:
            break  # nothing precedes position 0, and smaller p came first
        # a cube met at block i starts after i - p: later blocks cannot beat best
        first = (_after - 3 * p) // p * p if p < top else 0
        for i in range(first, min(n - 2 * p, best + p - 2) + 1, p):
            if w[i : i + p] != w[i + p : i + 2 * p]:
                continue
            start = i - _back_extension(w, i, p, min(i, p - 1))
            end = start + 3 * p
            if end <= n and w[i + p : start + 2 * p] == w[i + 2 * p : end]:
                if start < best:
                    best, best_p = start, p
                break
    return CubeWitness(best + 1, best_p) if best_p else None


def is_cube_free(w: str) -> bool:
    """True iff no factor of w is a cube.  The empty word is cube-free."""
    return find_cube(w) is None


# A cube x^3 at the end of a word is a cube at the start of its reversal.
# The lazy group tries |x| = 1, 2, ... in turn, so a match has the smallest
# period; DOTALL keeps every character matchable.
_CUBE_PREFIX = re.compile(r"(.+?)\1\1", re.DOTALL)


def append_check(w: str, x: str, *, assume_cube_free: bool = False) -> CubeWitness | None:
    """Cube created by appending the letter x to the cube-free word w, if any.

    Only suffixes of w+x can be fresh cubes.  The witness is the cube suffix
    of smallest period (also when w is not cube-free), found by one compiled
    regular-expression match on the reversal of w+x, so the scan over
    periods runs in C.  Pass assume_cube_free=True in search loops where
    the precondition is maintained inductively; by default the precondition
    is verified and its violation raises ValueError.
    """
    if len(x) != 1 or not "a" <= x <= "z":
        raise ValueError(f"appended letter must be a single letter, got {x!r}")
    if not assume_cube_free and find_cube(w) is not None:
        raise ValueError("append_check requires a cube-free base word")
    wx = w + x
    m = _CUBE_PREFIX.match(wx[::-1])
    if m is None:
        return None
    p = m.end(1)
    return CubeWitness(len(wx) - 3 * p + 1, p)


def extension_is_cube_free(w: str, ext: str) -> bool:
    """True iff w + ext is cube-free, assuming w itself is cube-free."""
    cur = w
    for x in ext:
        if append_check(cur, x, assume_cube_free=True) is not None:
            return False
        cur += x
    return True


def max_periodic_suffix(w: str, p: int) -> PeriodicSuffix:
    """Maximal-length suffix of w having period p.

    A length <= p means the period holds only vacuously.
    """
    n = len(w)
    if not 1 <= p <= n:
        raise ValueError(f"period must be in 1..{n}, got {p}")
    i = n - p - 1
    while i >= 0 and w[i] == w[i + p]:
        i -= 1
    return PeriodicSuffix(p, n - i - 1)


def fine_wilf_period(p: int, q: int, length: int) -> int | None:
    """gcd(p, q) when a word of the given length with periods p and q must
    also have period gcd(p, q); None when the length is below the threshold
    p + q - gcd(p, q)."""
    if p < 1 or q < 1:
        raise ValueError("periods must be positive")
    g = math.gcd(p, q)
    return g if length >= p + q - g else None
