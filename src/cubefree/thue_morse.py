"""The Thue-Morse word T = abbabaab... : prefixes, factor queries, splicing.

T is the fixed point starting with 'a' of the morphism a -> ab, b -> ba.
It is overlap-free, uniformly recurrent, and its factor set is closed
under both reversal and letter exchange.  Positions into T are 1-based.

A cached prefix grows by doubling (applying the morphism to itself); all
queries address the cache, so positions into T are limited to 1..2^24.
Growth happens under a lock so concurrent readers always observe a
consistent prefix.
"""

from __future__ import annotations

import threading

from . import words

_COMPLEMENT = str.maketrans("ab", "ba")

_lock = threading.Lock()
_prefix = "abbabaab"
_MAX_POSITION = 1 << 24


def _morph(w: str) -> str:
    return "".join("ab" if ch == "a" else "ba" for ch in w)


def _ensure(n: int) -> str:
    global _prefix
    if n > _MAX_POSITION:
        raise ValueError(f"positions into T are limited to {_MAX_POSITION}, got {n}")
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


def _block_length(n: int) -> int:
    """2^k for the least k with 2^k >= n >= 1: the block length of
    T = θ^k(T) that bounds the searches for a factor w of length n.

    With θ the morphism a -> ab, b -> ba, T splits into blocks θ^k(T[j])
    of length 2^k, so an occurrence of w lies inside one block θ^k(x) or
    straddles two, θ^k(x) θ^k(y) with xy = T[j..j+1], at a split fixed by
    w alone; w then occurs wherever the letter x, or the pair xy, occurs
    in T.  Both letters occur in T[1..2], all four pairs in T[1..7], so w
    occurs in T[1..7 * 2^k].  Every window T[j..j+8] holds all four pairs
    (a finite check on T[1..112], which by the same argument holds every
    9-letter factor of T), and no letter occurs three times in a row; so
    from any start, a straddling w occurs at some i with
    start <= i <= start + 9 * 2^k - 3, and one inside a block before
    start + 3 * 2^k.
    """
    return 1 << (n - 1).bit_length()


def is_tm_factor(w: str) -> bool:
    """True iff w occurs in T, searched in T[1..7 * _block_length(|w|)]."""
    words.validate_word(w, 2)
    if not w:
        return True
    return w in tm_prefix(7 * _block_length(len(w)))


def find_occurrence_after(pattern: str, start: int) -> int:
    """Smallest i >= start with T[i..i+|pattern|-1] = pattern.

    Every factor of T occurs by start + 9 * _block_length(|pattern|) (see
    _block_length), so a miss up to that cap raises ValueError: the pattern
    is not a factor of T.
    """
    words.validate_word(pattern, 2)
    if start < 1:
        raise ValueError("positions into T start at 1")
    if not pattern:
        return start
    cap = start + 9 * _block_length(len(pattern))
    window = tm_prefix(cap + len(pattern))
    idx = window.find(pattern, start - 1)
    if idx == -1 or idx + 1 > cap:
        raise ValueError(f"{pattern!r} is not a Thue-Morse factor (searched up to position {cap})")
    return idx + 1


def splice_pattern(u1: str, v1r: str) -> str:
    """A factor of T of the form u1 + middle + v1r with a nonempty middle.

    Policy: take the first occurrence of u1, then the first occurrence of
    v1r starting at least one position past its end; the returned word is
    the whole T-range between them, so it is a factor of T by construction.
    Raises ValueError if either input is not a factor.
    """
    i = find_occurrence_after(u1, 1)
    j = find_occurrence_after(v1r, i + len(u1) + 1)
    return tm_range(i, j + len(v1r) - 1)
