"""Byte-for-byte CLI output on a fixed corpus of --json calls.

tests/data/cli_golden.json holds each call's argv, exit code and stdout,
recorded before the certificate and witness checks were consolidated.
Certificates are otherwise tested only through verify, so this corpus is
what pins their exact Y, r and seam, as well as exhaustion depths,
transition witnesses and verify answers.
"""

import contextlib
import io
import json
from pathlib import Path

from cubefree import extend
from cubefree.cli import main

CORPUS = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def test_cli_json_matches_the_golden_corpus():
    extend.clear_caches()
    for case in CORPUS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(case["argv"])
        assert (code, out.getvalue()) == (case["exit"], case["stdout"]), case["argv"]


def test_the_golden_corpus_covers_every_transition_method():
    methods = {json.loads(case["stdout"]).get("method") for case in CORPUS if case["argv"][0] == "transition"}
    assert {"direct-context", "exhausted", "theorem"} <= methods


def test_every_golden_yes_verifies(monkeypatch):
    # each certificate or witness a yes answer prints, piped into verify
    yes = [
        case
        for case in CORPUS
        if case["exit"] == 0 and case["argv"][0] in ("extend", "extendable", "transition")
    ]
    assert len(yes) == 34
    for case in yes:
        monkeypatch.setattr("sys.stdin", io.StringIO(case["stdout"]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "-"])
        assert (code, out.getvalue()) == (0, "valid\n"), case["argv"]
