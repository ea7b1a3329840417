"""Seeded inputs for the three benchmark workloads.

A workload is an endless sequence of rounds. Every round of a workload
has the same composition (op kinds, alphabet sizes, word lengths), so a
run's metrics do not depend on how many rounds fit in its time budget.
Round k of a workload is generated from ``random.Random(f"{name}/{seed}/{k}")``
alone, so the same seed always yields the same ops.

The generator carries its own cube check and never calls the code under
test, except for ``recheck``: its ``verify`` ops need certificates and
witnesses as the program prints them, which set-up builds once through
the CLI before any op is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, replace

# Suffixes whose right-context tree is finite (depth 0 or 1), found by
# exhaustive search over binary words of length <= 14. Any cube-free word
# ending with one of them is not right-extendable. (The shortest dead end,
# aabaabaa, is left out: no letter can precede it either.)
DEAD_ENDS = ("abbaabbaabb", "abaababaababa")


@dataclass(frozen=True)
class Op:
    """One CLI call: ``cubefree.cli.main(argv)``, with ``stdin`` as standard input."""

    kind: str  # check | extend | extendable | transition | verify
    argv: tuple[str, ...]
    size: int  # |u|, or the length of the checked word
    alphabet: int
    stdin: str | None = None
    tag: str = ""  # "dead" (a non-extendable endpoint) or "repeat" (asked before)

    @property
    def bucket(self) -> str:
        side = f"-{self.argv[1]}" if self.kind == "extendable" else ""
        tag = f"/{self.tag}" if self.tag else ""
        return f"{self.kind}{side}/d{self.alphabet}/n{self.size}{tag}"


def letters(d: int) -> str:
    return "abcdefghijklmnopqrstuvwxyz"[:d]


def infer_alphabet(w: str) -> int:
    return max(2, max((ord(ch) - ord("a") + 1 for ch in w), default=0))


def ends_with_cube(s: str) -> bool:
    n = len(s)
    for p in range(1, n // 3 + 1):
        if s[n - 3 * p : n - 2 * p] == s[n - 2 * p : n - p] == s[n - p :]:
            return True
    return False


def random_cube_free(rng: random.Random, n: int, d: int, prefix: str = "") -> str:
    """A cube-free word of length n starting with prefix, by randomised
    depth-first search with backtracking (prefix must be cube-free)."""
    alphabet = letters(d)
    s = prefix
    stack = [rng.sample(alphabet, d)]
    while len(s) < n:
        options = stack[-1]
        if not options:
            if len(s) == len(prefix):
                raise ValueError(f"prefix {prefix!r} has no cube-free context of length {n - len(prefix)}")
            stack.pop()
            s = s[:-1]
            continue
        x = options.pop()
        if not ends_with_cube(s + x):
            s += x
            stack.append(rng.sample(alphabet, d))
    return s


# Extra context generated past every word: a word is cut from a longer
# random cube-free word, so it has at least this much right (or left)
# context, which in practice means it is extendable on that side.
_SLACK = 40


def right_word(rng: random.Random, n: int, d: int) -> str:
    return random_cube_free(rng, n + _SLACK, d)[:n]


def left_word(rng: random.Random, n: int, d: int) -> str:
    return random_cube_free(rng, n + _SLACK, d)[::-1][:n][::-1]


def dead_end_word(rng: random.Random, n: int) -> str:
    """A binary cube-free word of length n ending with a dead-end suffix."""
    while True:
        tail = rng.choice(DEAD_ENDS)
        if rng.random() < 0.5:
            tail = tail.translate(str.maketrans("ab", "ba"))
        head = random_cube_free(rng, n - len(tail), 2)
        w = head + tail
        if all(not ends_with_cube(w[:i]) for i in range(len(head) + 1, n + 1)):
            return w


def _extend(u: str, d: int) -> Op:
    return Op("extend", ("extend", u, "--json"), len(u), d)


def _extendable(side: str, u: str, d: int) -> Op:
    return Op("extendable", ("extendable", side, u, "--json"), len(u), d)


def _transition(u: str, v: str, d: int) -> Op:
    return Op("transition", ("transition", u, v, "--json"), len(u), d)


def _check(w: str) -> Op:
    return Op("check", ("check", w, "--json"), len(w), 2)


def _verify(payload: str, size: int, d: int) -> Op:
    return Op("verify", ("verify", "-", "--json"), size, d, stdin=payload)


class Certify:
    """Mostly ``extend``, some ``extendable right|left``; a share repeated."""

    name = "certify"

    def __init__(self, seed: int):
        self.seed = seed
        self._rounds: dict[int, list[Op]] = {}

    def round(self, k: int) -> list[Op]:
        if k not in self._rounds:
            self._rounds[k] = self._make(k)
        return self._rounds[k]

    def _make(self, k: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/{k}")
        # Copies per size are set so that the median falls inside the large
        # binary |u|=40 group and the 90th percentile inside the |u|=80
        # group, away from the edges between groups of unlike cost.
        ops = []
        for n, copies in ((20, 1), (40, 12), (80, 8), (160, 1)):
            ops += [_extend(right_word(rng, n, 2), 2) for _ in range(copies)]
        for n, copies in ((20, 1), (40, 1), (80, 1), (160, 3)):
            ops += [_extend(right_word(rng, n, 3), 3) for _ in range(copies)]
        ops.append(_extendable("right", right_word(rng, 40, 2), 2))
        ops.append(_extendable("right", right_word(rng, 80, 3), 3))
        ops.append(_extendable("left", left_word(rng, 80, 2), 2))
        ops.append(_extendable("left", left_word(rng, 40, 3), 3))
        ops.append(replace(_extend(dead_end_word(rng, 40), 2), tag="dead"))
        ops.append(replace(_extendable("right", dead_end_word(rng, 80), 2), tag="dead"))
        rng.shuffle(ops)
        # the repeated share: words first asked in the previous round (or,
        # in round 0, earlier in this round) are asked again
        earlier = [op for op in (ops if k == 0 else self.round(k - 1)) if not op.tag]
        again = [
            next(op for op in earlier if op.kind == kind and op.size == n and op.alphabet == d)
            for kind, n, d in (("extend", 80, 2), ("extend", 80, 3), ("extendable", 40, 2))
        ]
        return ops + [replace(op, tag="repeat") for op in again]


class Bridge:
    """``transition u v``: mostly small pairs, a few at the sizes where the
    direct-context walk explodes, and pairs with a dead endpoint."""

    name = "bridge"

    # (alphabet, |u| = |v|, copies per round). With the dead-endpoint pairs
    # and the over-limit op, the median falls mid-way through the ternary
    # |u|=8 group and the 90th percentile inside the common, faster part of
    # ternary |u|=10 (about one such pair in five takes 2-3 times longer).
    # The cheap groups are large so that a run holds many of them besides
    # the few costly ops that fill most of a round's time.
    MIX = (
        (2, 10, 38), (2, 20, 8), (2, 28, 1),
        (3, 8, 96), (3, 10, 24), (3, 12, 1),
    )
    # the size beyond the limit; even rounds take the binary one, odd
    # rounds the ternary one, so each round holds a single such op
    OVER = ((2, 40), (3, 16))

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, k: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/{k}")
        ops = []
        for d, n, copies in self.MIX:
            ops += [_transition(right_word(rng, n, d), left_word(rng, n, d), d) for _ in range(copies)]
        d, n = self.OVER[k % 2]
        ops.append(_transition(right_word(rng, n, d), left_word(rng, n, d), d))
        for _ in range(4):
            dead_u = _transition(dead_end_word(rng, 20), left_word(rng, 20, 2), 2)
            dead_v = _transition(right_word(rng, 20, 2), dead_end_word(rng, 20)[::-1], 2)
            ops += [replace(dead_u, tag="dead"), replace(dead_v, tag="dead")]
        rng.shuffle(ops)
        return ops


def cli_json(main, argv: list[str]) -> str:
    """Run the CLI in-process and return its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


class Recheck:
    """The read-only side: ``check`` on long words and ``verify`` on
    certificate and witness JSON."""

    name = "recheck"

    LENGTHS = (1024, 4096, 16384)
    POOL = 6  # certificates (and witnesses) built in set-up

    def __init__(self, seed: int, main):
        self.seed = seed
        rng = random.Random(f"{self.name}/{seed}/setup")
        self.certs = []
        for i in range(self.POOL):
            d = 2 if i % 2 == 0 else 3
            u = right_word(rng, 30, d)
            self.certs.append(json.loads(cli_json(main, ["extend", u, "--json"])))
        self.witnesses = []
        for i in range(self.POOL):
            u, v = right_word(rng, 10, 2), left_word(rng, 10, 2)
            out = json.loads(cli_json(main, ["transition", u, v, "--json"]))
            self.witnesses.append({"u": u, "v": v, "witness": out["witness"]})
        self.binary_certs = [c for c in self.certs if infer_alphabet(c["word"] + c["Y"]) == 2]
        self.tm = ""  # Thue-Morse prefix, grown on demand

    def _tm(self, i: int, n: int) -> str:
        """n letters of T from 0-based offset i, by the parity formula."""
        if len(self.tm) < i + n:
            self.tm = "".join("ab"[bin(k).count("1") % 2] for k in range(2 * (i + n)))
        return self.tm[i : i + n]

    def _expanded(self, rng: random.Random, n: int) -> str:
        c = rng.choice(self.binary_certs)
        prefix = c["word"] + c["Y"]
        r = c["r"]
        return prefix + self._tm(r - 1, n - len(prefix))

    @staticmethod
    def _plant(rng: random.Random, w: str) -> str:
        p = rng.randint(2, 9)
        j = len(w) - 3 * p - rng.randrange(32)
        root = w[j : j + p]
        return w[:j] + root * 3 + w[j + 3 * p :]

    def round(self, k: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/{k}")
        ops = []
        for n in self.LENGTHS:
            tm_factor = self._tm(rng.randrange(4096), n)
            for w in (tm_factor, self._expanded(rng, n)):
                ops += [_check(w), _check(self._plant(rng, w))]
        # valid certificates, then tampered ones: r off by one, one letter
        # of Y flipped; valid witnesses, then one with a cube spliced in
        certs = rng.sample(self.certs, 3)
        c = rng.choice(self.certs)
        certs.append(dict(c, r=c["r"] + rng.choice((-1, 1))))
        c = rng.choice([c for c in self.certs if c["Y"]])
        i = rng.randrange(len(c["Y"]))
        certs.append(dict(c, Y=c["Y"][:i] + ("b" if c["Y"][i] == "a" else "a") + c["Y"][i + 1 :]))
        ops += [_verify(json.dumps(c, sort_keys=True), len(c["word"]), infer_alphabet(c["word"])) for c in certs]
        wits = rng.sample(self.witnesses, 2)
        wit = rng.choice(self.witnesses)
        wits.append(dict(wit, witness=wit["witness"] + "aaa"))
        ops += [_verify(json.dumps(w, sort_keys=True), len(w["u"]), 2) for w in wits]
        rng.shuffle(ops)
        return ops


NAMES = ("certify", "bridge", "recheck")


def make(name: str, seed: int, main):
    """The workload called name, for the given seed; main is the CLI entry
    point, used only by set-up that needs program output as input."""
    if name == "certify":
        return Certify(seed)
    if name == "bridge":
        return Bridge(seed)
    if name == "recheck":
        return Recheck(seed, main)
    raise ValueError(f"unknown workload {name!r}")
