"""Transition words: deciding and constructing w with u + w + v cube-free.

The decision takes three exact steps.  A bounded search of u's right
contexts, to depth |v| + 4, looks for one ending with v (a direct witness,
|w| <= 4).  If it misses and an endpoint cannot be extended, that
endpoint's context tree is finite, and scanning it in full decides the
question.  Two extendable endpoints always admit a transition, built
explicitly by splicing the two certified Thue-Morse tails inside T.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import extend, thue_morse, words


class TransitionMethod(Enum):
    DIRECT_CONTEXT = "direct-context"
    THEOREM = "theorem"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class TransitionResult:
    exists: bool
    witness: str | None
    method: TransitionMethod


def _validated_pair(u: str, v: str, d: int | None) -> int:
    if d is None:
        d = max(words.infer_alphabet(u), words.infer_alphabet(v))
    extend._cube_free_word(u, d)
    return extend._cube_free_word(v, d)


def _require_cube_free(u: str, w: str, v: str) -> str:
    """The one check on a constructed witness: w, once u + w + v is verified
    cube-free.  A direct witness was checked letter by letter as it grew."""
    if not words.is_cube_free(u + w + v):
        raise RuntimeError(f"internal error: witness {w!r} leaves a cube in ({u!r}, {v!r})")
    return w


def splice(u: str, u1: str, v: str, v1: str) -> str:
    """Transition from u to reverse(v) given Thue-Morse right contexts.

    u1 and v1 must be factors of T of lengths exactly 2|u| and 2|v| that
    extend u and v cube-freely.  The result w starts with u1 and ends with
    the reversal of v1; u + w + reverse(v) is cube-free (re-verified): a
    cube would have to cross an endpoint, forcing a period that both
    matches the endpoint and fits inside the overlap-free middle.
    """
    for word, ctx, name in ((u, u1, "u"), (v, v1, "v")):
        if len(ctx) != 2 * len(word):
            raise ValueError(f"context of {name} must have length {2 * len(word)}, got {len(ctx)}")
        if not thue_morse.is_tm_factor(ctx):
            raise ValueError(f"context of {name} is not a Thue-Morse factor")
        if not words.is_cube_free(word + ctx):
            raise ValueError(f"context of {name} is not a right context")
    return _require_cube_free(u, thue_morse.splice_pattern(u1, words.reverse(v1)), words.reverse(v))


def _direct_right(u: str, v: str, d: int, depth: int | None) -> str | None:
    """First right context of u of length <= depth that ends with v, in
    breadth-first lexicographic order, or None.  depth=None walks the whole
    tree, which ends only when the tree is finite."""
    contexts = extend._breadth_first(u, depth, words.letters_of(d))
    return next((ctx for ctx in contexts if ctx.endswith(v)), None)


def _direct_left(u: str, v: str, d: int) -> str | None:
    """Dual exhaustive search: the first left context of v that begins with
    u, or None.  It walks v's whole left-context tree, so v must not be left
    extendable.  Cube-freeness is reversal-invariant."""
    mirrored = _direct_right(words.reverse(v), words.reverse(u), d, None)
    return None if mirrored is None else words.reverse(mirrored)


def transition_exists(u: str, v: str, d: int | None = None) -> TransitionResult:
    """Decide whether some w makes u + w + v cube-free; always materialize w.

    One bounded search first: the first right context of u, at most
    |v| + 4 letters long, that ends with v.  If there is none, the
    certified extendability decisions settle the question: if u cannot
    grow right or v cannot grow left, that endpoint's finite context tree
    is scanned in full, and finding no witness there answers EXHAUSTED; if
    both can, a witness is constructed through the Thue-Morse word.
    """
    d = _validated_pair(u, v, d)
    ctx = _direct_right(u, v, d, len(v) + 4)
    if ctx is None:
        if not extend._decide_right(u, d).extendable:
            ctx = _direct_right(u, v, d, None)  # u's tree is finite: scan it all
        elif not extend._decide_right(words.reverse(v), d).extendable:
            left = _direct_left(u, v, d)  # v's tree is finite: scan it all
            ctx = None if left is None else left[len(u) :] + v
        else:
            return TransitionResult(True, _construct(u, v, d), TransitionMethod.THEOREM)
    if ctx is None:
        return TransitionResult(False, None, TransitionMethod.EXHAUSTED)
    # every letter of ctx passed an exact append_check (mirrored for _direct_left)
    return TransitionResult(True, ctx[: len(ctx) - len(v)], TransitionMethod.DIRECT_CONTEXT)


def construct_transition(u: str, v: str, d: int | None = None) -> str:
    """Explicit transition word for a right-extendable u and left-extendable v.

    Both endpoints receive explicit infinite extensions (Y, r); prefixes of
    the two T-tails of twice the padded endpoints' lengths are spliced
    inside T, giving Y1 + T-run + middle + reversed-T-run + Y2.  Over an
    alphabet with c-letters the endpoints are first anchored (see
    transition_dary).  Raises NotExtendableError (with the exhaustion
    evidence) if an endpoint fails.
    """
    return _construct(u, v, _validated_pair(u, v, d))


def _construct(u: str, v: str, d: int) -> str:
    """construct_transition on a checked pair: the one body that builds
    every transition word, checked once as a whole."""
    x = y = ""
    u1, v1 = u, words.reverse(v)  # the binary stretches the splice joins
    if d >= 3:
        x, u1 = _right_anchor(u, d)
        y, v1 = _right_anchor(words.reverse(v), d)
    c1 = extend.algorithm2(u1, 2)
    c2 = extend.algorithm2(v1, 2)
    p_len = len(u1) + len(c1.Y)
    q_len = len(v1) + len(c2.Y)
    t1 = thue_morse.tm_range(c1.r, c1.r + 2 * p_len - 1) if p_len else ""
    t2 = thue_morse.tm_range(c2.r, c2.r + 2 * q_len - 1) if q_len else ""
    mid = thue_morse.splice_pattern(t1, words.reverse(t2))
    return _require_cube_free(u, x + c1.Y + mid + words.reverse(y + c2.Y), v)


def _right_anchor(s: str, d: int) -> tuple[str, str]:
    """(grown, stretch): the letters algorithm2's stage one appends to s,
    which end with a c-letter and then the binary stretch, and that stretch,
    whose binary continuations lift across the c-letter.  When s lifts at
    once, no c-letter has been appended, so one is forced in first."""
    grown, stretch, rounds = extend._lift(s, d)
    if rounds == 1:
        forced = _force_c_context(s, d)
        grown, stretch, _ = extend._lift(s + forced, d)
        grown = forced + grown
    return grown, stretch


def _force_c_context(U: str, d: int) -> str:
    """A right context of U ending with the first c-letter, preserving
    extendability, obtained by overwriting one position of a certified
    context sample."""
    cert = extend._require_extendable(U, d).certificate
    sample = cert.Y + thue_morse.tm_range(cert.r, cert.r + len(U) + 8)
    preferred = max(1, min(len(U), len(sample)))
    positions = list(range(preferred, len(sample) + 1)) + list(range(preferred - 1, 0, -1))
    for k in positions:
        cand = sample[: k - 1] + "c"
        if not words.extension_is_cube_free(U, cand):
            continue
        if extend._decide_right(U + cand, d).extendable:
            return cand
    raise RuntimeError(f"could not force a c-letter into a context of {U!r}")


def transition_dary(u: str, v: str, d: int | None = None) -> str:
    """Transition word over an alphabet with c-letters.

    Both endpoints are anchored through contexts ending (starting) with a
    c-letter plus long binary stretches; a binary transition joins the two
    stretches.  Cubes in the assembled word would have to cover one of the
    anchoring c-letters, which the stretch lengths rule out.
    """
    d = _validated_pair(u, v, d)
    if d < 3:
        raise ValueError("transition_dary requires an alphabet with c-letters")
    return _construct(u, v, d)
