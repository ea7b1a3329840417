"""Command-line surface with stable text and JSON output.

Exit codes: 0 for a positive result, 1 for a negative result, 2 for
usage or input errors, 3 for an internal error.  Positions in all output
(including the T-tail start r of a certificate) are 1-based.  Inputs are
checked by the library calls they feed; any ValueError becomes
"error: ..." with exit code 2.  A RuntimeError, which the library raises
only when one of its own checks fails, becomes "internal error: ..." with
exit code 3, so that it never reads as a negative answer.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, extend, oracle, thue_morse, transition, words

_ENUMERATE_LIST_CAP = 24


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _tail_fields(cert: extend.TailCertificate, base: str) -> dict:
    return {
        "Y": cert.Y,
        "r": cert.r,
        "seam": cert.seam,
        "tm_aligned": cert.tm_aligned,
        "verified_prefix": cert.verified_prefix(base),
    }


def _cmd_check(args) -> int:
    w = args.word
    words.validate_word(w, args.alphabet)
    witness = words.find_cube(w)
    if witness is None:
        _emit(args, {"word": w, "cube_free": True, "witness": None}, ["cube-free"])
        return 0
    root = witness.root(w)
    payload = {
        "word": w,
        "cube_free": False,
        "witness": {"position": witness.position, "period": witness.period, "root": root},
    }
    _emit(args, payload, [f"cube at {witness.position} period {witness.period} root {root}"])
    return 1


def _cmd_extendable(args) -> int:
    w = args.word
    decide = extend.is_right_extendable if args.side == "right" else extend.is_left_extendable
    verdict = decide(w, args.alphabet)
    if verdict.extendable:
        cert = verdict.certificate
        payload = {"word": w, "side": args.side, "extendable": True, **_tail_fields(cert, w)}
        _emit(
            args,
            payload,
            [f"yes ({args.side}-extendable)", json.dumps({"Y": cert.Y, "r": cert.r}, sort_keys=True)],
        )
        return 0
    exhausted_at = verdict.max_context_length
    payload = {"word": w, "side": args.side, "extendable": False, "exhausted_at": exhausted_at}
    _emit(args, payload, ["no", json.dumps({"exhausted_at": exhausted_at}, sort_keys=True)])
    return 1


def _cmd_extend(args) -> int:
    w = args.word
    try:
        cert = extend.algorithm2(w, args.alphabet)
    except extend.NotExtendableError as exc:
        payload = {"word": w, "extendable": False, "exhausted_at": exc.max_context_length}
        _emit(args, payload, ["not right-extendable",
                              json.dumps({"exhausted_at": exc.max_context_length}, sort_keys=True)])
        return 1
    payload = {"word": w, **_tail_fields(cert, w)}
    _emit(args, payload, [json.dumps(payload, sort_keys=True)])
    return 0


def _cmd_transition(args) -> int:
    u, v = args.u, args.v
    result = transition.transition_exists(u, v, args.alphabet)
    if result.exists:
        payload = {
            "u": u,
            "v": v,
            "exists": True,
            "witness": result.witness,
            "method": result.method.value,
        }
        _emit(args, payload, [result.witness, f"verified cube-free ({result.method.value})"])
        return 0
    payload = {"u": u, "v": v, "exists": False, "witness": None, "method": result.method.value}
    _emit(args, payload, ["none", "context tree exhausted without the required suffix/prefix"])
    return 1


def _cmd_markers(args) -> int:
    w = args.word
    marks = analysis.scan_markers(w)
    payload: dict = {
        "word": w,
        "markers": [{"kind": m.kind, "position": m.position} for m in marks],
        "factorization": None,
    }
    lines = [" ".join(f"{m.kind}@{m.position}" for m in marks) if marks else "(none)"]
    if words.is_cube_free(w) and marks and marks[-1].end == len(w):
        fact = analysis.factorize(w)
        payload["factorization"] = list(fact.segments)
        lines.append("|".join(fact.segments))
    _emit(args, payload, lines)
    return 0


def _cmd_tm(args) -> int:
    chosen = [opt for opt in (args.prefix, args.factor, args.range) if opt is not None]
    if len(chosen) != 1:
        raise ValueError("exactly one of --prefix, --factor, --range is required")
    if args.prefix is not None:
        out = thue_morse.tm_prefix(args.prefix)
        _emit(args, {"prefix": out}, [out])
        return 0
    if args.factor is not None:
        w = args.factor
        ok = thue_morse.is_tm_factor(w)
        _emit(args, {"factor": w, "is_factor": ok}, ["factor" if ok else "not-a-factor"])
        return 0 if ok else 1
    i, j = args.range
    out = thue_morse.tm_range(i, j)
    _emit(args, {"range": [i, j], "word": out}, [out])
    return 0


def _cmd_enumerate(args) -> int:
    if args.list and args.n > _ENUMERATE_LIST_CAP:
        raise ValueError(f"--list is capped at length {_ENUMERATE_LIST_CAP}")
    result = oracle.enumerate_cube_free(args.d, args.n, collect=args.list)
    payload: dict = {"d": args.d, "n": args.n, "count": result.count}
    lines = [str(result.count)]
    if args.list:
        payload["words"] = result.words
        lines.extend(result.words or [])
    _emit(args, payload, lines)
    return 0


def _cmd_audit(args) -> int:
    chains = oracle.greedy_chain_search(args.max_n)
    best: dict[int, int] = {}
    violations = []
    for u, w, k in chains:
        audited = extend.chain_length_audit(u, w)
        if audited != k:
            violations.append({"word": u, "context": w, "greedy": k, "audited": audited})
        n = len(u)
        best[n] = max(best.get(n, 0), audited)
        if audited > extend.log_bound(n):
            violations.append({"word": u, "context": w, "k": audited, "bound": extend.log_bound(n)})
    rows = [
        {"n": n, "max_k": best[n], "bound": round(extend.log_bound(n), 2)}
        for n in sorted(best)
    ]
    payload = {"max_n": args.max_n, "rows": rows, "violations": violations}
    lines = [f"n={row['n']:2d}  max_k={row['max_k']:2d}  bound={row['bound']:.2f}" for row in rows]
    if violations:
        lines.append(f"VIOLATIONS: {violations}")
    _emit(args, payload, lines)
    return 1 if violations else 0


def _cmd_verify(args) -> int:
    raw = sys.stdin.read() if args.certificate == "-" else None
    if raw is None:
        try:
            with open(args.certificate, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError:
            raw = args.certificate  # allow the JSON inline
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"certificate is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ValueError("certificate JSON must be an object")
    try:
        for key in ("u", "v", "witness", "word", "Y"):
            if key in data:
                words.validate_word(data[key])
        if any(type(data.get(key, 0)) is not int for key in ("r", "seam")):
            raise ValueError("r and seam must be JSON integers")
        if type(data.get("tm_aligned", False)) is not bool:
            raise ValueError("tm_aligned must be a JSON boolean")
        if data.get("side", "right") not in ("right", "left"):
            raise ValueError('side must be "right" or "left"')
        if {"u", "v", "witness"} <= set(data):
            ok = words.is_cube_free(data["u"] + data["witness"] + data["v"])
            payload = {**data, "valid": bool(ok), "kind": "transition"}
        elif {"word", "Y", "r"} <= set(data):
            base = data["word"]
            if data.get("side") == "left":
                base = words.reverse(base)
            # without provenance the structural seam check degenerates (an
            # empty suffix is uniform); the cube-freeness core still fully
            # validates the infinite claim
            seam = data.get("seam", len(base + data["Y"]))
            cert = extend.TailCertificate(data["Y"], data["r"], seam, data.get("tm_aligned", False))
            ok = cert.verify(base)  # scans base + Y + T[r..], which starts with base
            payload = {**data, "valid": bool(ok), "kind": "tail"}
        else:
            raise ValueError('certificate must carry {"word","Y","r"} or {"u","v","witness"}')
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate: {exc}")
    _emit(args, payload, ["valid" if ok else "INVALID"])
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubefree",
        description="Cube-free words: detection, extension certificates, transition words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("check", _cmd_check, "detect cubes in a word")
    p.add_argument("word")
    p.add_argument("--alphabet", type=int, default=None)

    p = add("extendable", _cmd_extendable, "decide right/left extendability with a certificate")
    p.add_argument("side", choices=("right", "left"))
    p.add_argument("word")
    p.add_argument("--alphabet", type=int, default=None)

    p = add("extend", _cmd_extend, "construct an explicit infinite right context (Y, r)")
    p.add_argument("word")
    p.add_argument("--alphabet", type=int, default=None)

    p = add("transition", _cmd_transition, "find w with u+w+v cube-free, or prove none exists")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--alphabet", type=int, default=None)

    p = add("markers", _cmd_markers, "marker occurrences and marker factorization")
    p.add_argument("word")

    p = add("tm", _cmd_tm, "query the Thue-Morse word")
    p.add_argument("--prefix", type=int, default=None, metavar="N")
    p.add_argument("--factor", type=str, default=None, metavar="WORD")
    p.add_argument("--range", type=int, nargs=2, default=None, metavar=("I", "J"))

    p = add("enumerate", _cmd_enumerate, "count cube-free words of a given length")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--list", action="store_true")

    p = add("audit", _cmd_audit, "stress the period-chain length bound")
    p.add_argument("max_n", type=int)

    p = add("verify", _cmd_verify, "re-check a certificate or witness JSON (file, '-', or inline)")
    p.add_argument("certificate")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {str(exc).removeprefix('internal error: ')}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
