"""The Thue-Morse word T = abbabaab... : prefixes, factor queries, splicing.

T is the fixed point starting with 'a' of the morphism a -> ab, b -> ba.
It is overlap-free, uniformly recurrent, and its factor set is closed
under both reversal and letter exchange.  Positions into T are 1-based.

A cached prefix grows by doubling (applying the morphism to itself); all
queries address the cache.  Growth happens under a lock so concurrent
readers always observe a consistent prefix.
"""

from __future__ import annotations

import threading

from . import words

_COMPLEMENT = str.maketrans("ab", "ba")

# Recurrence-gap allowances: T is uniformly recurrent, but no explicit gap
# constant is assumed.  A generous multiplicative window plus error-on-miss
# makes "not a factor" detection safe.
_FACTOR_WINDOW = 8
_OCCURRENCE_WINDOW = 64

_lock = threading.Lock()
_prefix = "abbabaab"


def _morph(w: str) -> str:
    return "".join("ab" if ch == "a" else "ba" for ch in w)


def _ensure(n: int) -> str:
    global _prefix
    if len(_prefix) < n:
        with _lock:
            while len(_prefix) < n:
                _prefix = _morph(_prefix)
    return _prefix


def complement(w: str) -> str:
    """Exchange a's and b's (the letter-exchange automorphism of {a,b}*)."""
    return w.translate(_COMPLEMENT)


def tm_prefix(n: int) -> str:
    """The length-n prefix of T."""
    if n < 0:
        raise ValueError("prefix length must be non-negative")
    return _ensure(n)[:n]


def tm_range(i: int, j: int) -> str:
    """The factor T[i..j], inclusive and 1-based."""
    if i < 1:
        raise ValueError("positions into T start at 1")
    if i > j:
        raise ValueError(f"empty or inverted range [{i}..{j}]")
    return _ensure(j)[i - 1 : j]


def is_tm_factor(w: str) -> bool:
    """True iff w occurs in T.

    Searching a prefix of length max(64, 8*|w|) suffices: factors of T
    recur with a gap linear in their length, well below this window.
    """
    words.validate_word(w, 2)
    if not w:
        return True
    window = tm_prefix(max(_OCCURRENCE_WINDOW, _FACTOR_WINDOW * len(w)))
    return w in window


def find_occurrence_after(pattern: str, start: int) -> int:
    """Smallest i >= start with T[i..i+|pattern|-1] = pattern.

    The search is capped at start + 64*(|pattern|+1); a miss past the cap
    raises ValueError, which by uniform recurrence means the pattern is not
    a factor of T at all.
    """
    words.validate_word(pattern, 2)
    if start < 1:
        raise ValueError("positions into T start at 1")
    if not pattern:
        return start
    cap = start + _OCCURRENCE_WINDOW * (len(pattern) + 1)
    window = tm_prefix(cap + len(pattern))
    idx = window.find(pattern, start - 1)
    if idx == -1 or idx + 1 > cap:
        raise ValueError(f"{pattern!r} is not a Thue-Morse factor (searched up to position {cap})")
    i = idx + 1
    if tm_range(i, i + len(pattern) - 1) != pattern:
        raise RuntimeError(f"internal error: T[{i}..] does not start with {pattern!r}")
    return i


def splice_pattern(u1: str, v1r: str) -> str:
    """A factor of T of the form u1 + middle + v1r with a nonempty middle.

    Policy: take the first occurrence of u1, then the first occurrence of
    v1r starting at least one position past its end; the returned word is
    the whole T-range between them, so it is a factor of T by construction
    (and re-verified).  Raises ValueError if either input is not a factor.
    """
    i = find_occurrence_after(u1, 1)
    j = find_occurrence_after(v1r, i + len(u1) + 1)
    out = tm_range(i, j + len(v1r) - 1)
    spliced = out.startswith(u1) and out.endswith(v1r) and len(out) > len(u1) + len(v1r)
    if not spliced or not is_tm_factor(out):
        raise RuntimeError(f"internal error: T[{i}..{j + len(v1r) - 1}] does not splice {u1!r} and {v1r!r}")
    return out
