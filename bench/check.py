"""Output checker: every op's answer is checked after the timed loop.

An op whose (argv, stdin) has an answer recorded from the seed commit in
``seed_answers.json`` must reproduce it byte for byte. Any other op is
re-validated from scratch, without the code under test on the verdict
path: cubes are found by the scan below, Thue-Morse letters come from
``oracle.tm_letter_by_parity``, uniformity from ``oracle.theta_decompose``
and exhaustion depths from ``oracle.context_tree``.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ANSWERS = os.path.join(HERE, "seed_answers.json")


def leftmost_cube(w: str) -> tuple[int, int] | None:
    """(1-based start, period) of the leftmost cube in w, smallest period
    on ties; None if w is cube-free.

    For each period p, the bytes of w[:-p] XOR w[p:] are zero exactly where
    w[j] == w[j+p], and a cube of period p starts at j iff 2p of them in a
    row from j are zero, which ``bytes.find`` locates.
    """
    b = w.encode("ascii")
    n = len(b)
    x = int.from_bytes(b, "big")
    best: tuple[int, int] | None = None
    for p in range(1, n // 3 + 1):
        if best is not None and best[0] == 0:
            break
        m = n - p
        diff = ((x >> (8 * p)) ^ (x & ((1 << (8 * m)) - 1))).to_bytes(m, "big")
        i = diff.find(bytes(2 * p))
        if i != -1 and (best is None or i < best[0]):
            best = (i, p)
    return None if best is None else (best[0] + 1, best[1])


def verification_length(prefix_len: int) -> int:
    """Tail length that settles a certificate (README, "Why certificates are finite")."""
    return 4 * (prefix_len + 1) + 64


def op_key(argv, stdin) -> str:
    blob = json.dumps([list(argv), stdin])
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def answer_digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:20]


def load_answers() -> dict[str, str]:
    try:
        with open(ANSWERS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class Checker:
    """Decides whether one op's (exit code, stdout) is a correct answer."""

    def __init__(self, oracle, answers: dict[str, str] | None = None):
        self.oracle = oracle
        self.answers = load_answers() if answers is None else answers
        self._tm = ""
        self.by_seed = 0  # ops settled by a recorded answer
        self.by_oracle = 0

    def tm(self, i: int, j: int) -> str:
        """T[i..j], 1-based and inclusive, from the parity formula."""
        if len(self._tm) < j:
            start = len(self._tm) + 1
            self._tm += "".join(self.oracle.tm_letter_by_parity(k) for k in range(start, 2 * j + 1))
        return self._tm[i - 1 : j]

    def check(self, op, code: int, stdout: str) -> str | None:
        """None if the answer is correct, else the reason it is not."""
        recorded = self.answers.get(op_key(op.argv, op.stdin))
        if recorded is not None:
            self.by_seed += 1
            return None if answer_digest(code, stdout) == recorded else "differs from the seed answer"
        self.by_oracle += 1
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError:
            return f"exit {code} without JSON output"
        try:
            return getattr(self, f"_{op.kind}")(op, code, out)
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed answer: {exc!r}"

    # -- per kind ---------------------------------------------------------

    def _check(self, op, code, out):
        w = op.argv[1]
        cube = leftmost_cube(w)
        if cube is None:
            expected = {"word": w, "cube_free": True, "witness": None}
        else:
            pos, p = cube
            root = w[pos - 1 : pos - 1 + p]
            expected = {"word": w, "cube_free": False, "witness": {"position": pos, "period": p, "root": root}}
        if out != expected or code != (0 if cube is None else 1):
            return f"check answer {out} != {expected}"
        return None

    def _extend(self, op, code, out):
        u = op.argv[1]
        if out["word"] != u:
            return "answer is for another word"
        if code == 1 and out["extendable"] is False:
            return self._exhausted(u, out["exhausted_at"])
        if code != 0:
            return f"exit {code}"
        if not _over(out["Y"], op.alphabet):
            return "Y uses letters outside the alphabet"
        return self._certificate(u, out)

    def _extendable(self, op, code, out):
        side, w = op.argv[1], op.argv[2]
        if out["word"] != w or out["side"] != side:
            return "answer is for another word or side"
        base = w if side == "right" else w[::-1]
        if out["extendable"] is False and code == 1:
            return self._exhausted(base, out["exhausted_at"])
        if code != 0 or out.get("heuristic"):
            return f"exit {code} or heuristic answer"
        if not _over(out["Y"], op.alphabet):
            return "Y uses letters outside the alphabet"
        return self._certificate(base, out)

    def _transition(self, op, code, out):
        u, v = op.argv[1], op.argv[2]
        if out["u"] != u or out["v"] != v:
            return "answer is for another pair"
        if out["exists"] is True and code == 0:
            if out["method"] not in ("direct-context", "theorem"):
                return f"unknown method {out['method']!r}"
            w = out["witness"]
            if not _over(u + w + v, op.alphabet):
                return "witness uses letters outside the alphabet"
            return None if leftmost_cube(u + w + v) is None else "u + witness + v has a cube"
        if out["exists"] is False and code == 1 and out["method"] == "exhausted":
            return self._no_transition(u, v, op.alphabet)
        return f"inconsistent answer, exit {code}"

    def _verify(self, op, code, out):
        data = json.loads(op.stdin)
        if "witness" in data:
            ok = leftmost_cube(data["u"] + data["witness"] + data["v"]) is None
            kind = "transition"
        else:
            # the verify command recomputes the verification length itself
            claim = {k: val for k, val in data.items() if k != "verified_prefix"}
            ok = self._certificate(data["word"], claim) is None
            kind = "tail"
        expected = {"valid": ok, "kind": kind, **data}
        if out != expected or code != (0 if ok else 1):
            return f"verify answer valid={out.get('valid')}, expected {ok}"
        return None

    # -- shared -----------------------------------------------------------

    def _certificate(self, u: str, cert: dict) -> str | None:
        """None iff (Y, r) certifies u + Y + T[r..] cube-free, with the seam
        and alignment claims the library's verifier also checks."""
        if leftmost_cube(u) is not None:
            return "the word itself has a cube"
        Y, r = cert["Y"], int(cert["r"])
        prefix = u + Y
        length = verification_length(len(prefix))
        if "verified_prefix" in cert and cert["verified_prefix"] != length:
            return "verified_prefix is not the verification length"
        if r < 1:
            return "r < 1"
        if leftmost_cube(prefix + self.tm(r, r + length)) is not None:
            return "u + Y + T[r..] has a cube within the verification length"
        seam = int(cert.get("seam", len(prefix)))
        if not 0 <= seam <= len(prefix):
            return "seam out of range"
        feed = prefix[seam:]
        if set(feed) - {"a", "b"} or self.oracle.theta_decompose(feed) is None:
            return "the stretch after the seam is not uniform"
        if cert.get("tm_aligned"):
            if r - len(prefix) < 1:
                return "tm_aligned with r <= |u + Y|"
            if prefix and self.tm(r - len(prefix), r - 1) != prefix:
                return "tm_aligned, but u + Y is not the T factor before r"
        return None

    def _exhausted(self, u: str, depth: int) -> str | None:
        """None iff the right-context tree of u reaches depth and no further."""
        d = max(2, max(ord(ch) - ord("a") + 1 for ch in u))
        if self.oracle.context_tree(u, depth, d=d).exhausted:
            return f"a context of length {depth} does not exist"
        if not self.oracle.context_tree(u, depth + 1, d=d).exhausted:
            return f"a context of length {depth + 1} exists"
        return None

    def _no_transition(self, u: str, v: str, d: int) -> str | None:
        """None iff a finite context tree shows no w makes u + w + v cube-free:
        every w + v would be a right context of u (or u + w a left context
        of v), so it suffices that no context in the finite tree fits."""
        for root, end in ((u, v), (v[::-1], u[::-1])):
            probe = self.oracle.context_tree(root, len(end) + 64, d=d)
            if not probe.exhausted:
                continue
            tree = self.oracle.context_tree(root, probe.max_depth + 1, d=d, full=True)
            if any(c.endswith(end) for level in tree.words_at_depth.values() for c in level):
                return "a context of the dead endpoint does reach the other word"
            return None
        return "neither endpoint has a finite context tree"


def _over(w: str, d: int) -> bool:
    return all("a" <= ch < chr(ord("a") + d) for ch in w)
