import json
import pathlib
import subprocess
import sys

import pytest

from cubefree import extend, thue_morse, words
from cubefree.cli import build_parser, main
from cubefree.extend import TailCertificate


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out.strip(), out.err.strip()


def test_check(capsys):
    rc, out, _ = run(capsys, "check", "abbabaab")
    assert rc == 0 and out == "cube-free"
    rc, out, _ = run(capsys, "check", "aabaabaab")
    assert rc == 1 and out == "cube at 1 period 3 root aab"
    rc, _, err = run(capsys, "check", "ab1")
    assert rc == 2 and "invalid letter" in err


def test_check_json(capsys):
    rc, out, _ = run(capsys, "check", "babbb", "--json")
    data = json.loads(out)
    assert rc == 1
    assert data["witness"] == {"position": 3, "period": 1, "root": "b"}


def test_extendable_right_yes(capsys):
    rc, out, _ = run(capsys, "extendable", "right", "abbabaab", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["extendable"] is True
    cert = TailCertificate(data["Y"], data["r"], data["seam"], data["tm_aligned"])
    assert cert.verify("abbabaab")


def test_extendable_left(capsys):
    rc, out, _ = run(capsys, "extendable", "left", "abbabaab", "--json")
    assert rc == 0
    data = json.loads(out)
    cert = TailCertificate(data["Y"], data["r"], data["seam"], data["tm_aligned"])
    assert cert.verify(words.reverse("abbabaab"))


def test_extendable_no(capsys):
    rc, out, _ = run(capsys, "extendable", "right", "aabaabaa", "--json")
    assert rc == 1
    data = json.loads(out)
    assert data["extendable"] is False and data["exhausted_at"] == 0


def test_extendable_rejects_cubes(capsys):
    rc, _, err = run(capsys, "extendable", "right", "aaa")
    assert rc == 2
    assert err.strip() == "error: 'aaa' contains a cube"
    rc, _, err = run(capsys, "extendable", "left", "abbb")
    assert rc == 2 and err == "error: 'abbb' contains a cube"


def test_extendable_has_no_uncertified_mode(capsys):
    # every yes carries a certificate: no option answers from a survival probe
    rc, out, err = run(capsys, "extendable", "right", "ab", "--assume-context-bound", "5")
    assert rc == 2 and out == "" and "unrecognized arguments" in err


def test_extend(capsys):
    rc, out, _ = run(capsys, "extend", "ab", "--json")
    assert rc == 0
    data = json.loads(out)
    assert set(data) >= {"word", "Y", "r", "verified_prefix"}
    cert = TailCertificate(data["Y"], data["r"], data["seam"], data["tm_aligned"])
    assert cert.verify("ab")
    assert data["verified_prefix"] == cert.verified_prefix("ab")


def test_extend_ternary(capsys):
    rc, out, _ = run(capsys, "extend", "abc", "--alphabet", "3", "--json")
    assert rc == 0
    data = json.loads(out)
    cert = TailCertificate(data["Y"], data["r"], data["seam"], data["tm_aligned"])
    assert cert.verify("abc")


def test_extend_errors(capsys):
    rc, _, err = run(capsys, "extend", "aaa")
    assert rc == 2 and err.strip() == "error: 'aaa' contains a cube"
    rc, out, _ = run(capsys, "extend", "aabaabaa", "--json")
    assert rc == 1
    assert json.loads(out)["exhausted_at"] == 0


def test_transition(capsys):
    rc, out, _ = run(capsys, "transition", "aa", "bb", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["exists"] is True
    assert words.is_cube_free("aa" + data["witness"] + "bb")

    rc, out, _ = run(capsys, "transition", "", "", "--json")
    assert rc == 0 and json.loads(out)["witness"] == ""

    rc, _, err = run(capsys, "transition", "aaa", "b")
    assert rc == 2 and err.strip() == "error: 'aaa' contains a cube"
    rc, _, err = run(capsys, "transition", "b", "abbb")
    assert rc == 2 and err.strip() == "error: 'abbb' contains a cube"


def test_transition_negative(capsys):
    rc, out, _ = run(capsys, "transition", "aabaabaa", "a", "--json")
    assert rc == 1
    assert json.loads(out)["exists"] is False


def test_markers(capsys):
    rc, out, _ = run(capsys, "markers", "aababaa")
    assert rc == 0 and out.splitlines()[0] == "ABABA@2"
    rc, out, _ = run(capsys, "markers", "aabaabbabb")
    lines = out.splitlines()
    assert lines[0] == "AABAA@1 BBABB@6"
    assert lines[1] == "aabaa|bbabb"
    rc, out, _ = run(capsys, "markers", "abba")
    assert rc == 0 and out == "(none)"
    rc, _, _ = run(capsys, "markers", "abc")
    assert rc == 2


def test_tm(capsys):
    rc, out, _ = run(capsys, "tm", "--prefix", "8")
    assert rc == 0 and out == "abbabaab"
    rc, out, _ = run(capsys, "tm", "--factor", "aabaa")
    assert rc == 1 and out == "not-a-factor"
    rc, out, _ = run(capsys, "tm", "--range", "6", "16")
    assert rc == 0 and out == "aabbaababba"
    rc, _, _ = run(capsys, "tm", "--range", "9", "3")
    assert rc == 2
    rc, _, _ = run(capsys, "tm")
    assert rc == 2


def test_enumerate(capsys):
    rc, out, _ = run(capsys, "enumerate", "2", "3")
    assert rc == 0 and out == "6"
    rc, out, _ = run(capsys, "enumerate", "2", "0")
    assert rc == 0 and out == "1"
    rc, _, _ = run(capsys, "enumerate", "2", "25", "--list")
    assert rc == 2
    rc, out, _ = run(capsys, "enumerate", "2", "2", "--list", "--json")
    data = json.loads(out)
    assert data["count"] == 4 and sorted(data["words"]) == ["aa", "ab", "ba", "bb"]


def test_audit(capsys):
    rc, out, _ = run(capsys, "audit", "6", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["violations"] == []
    assert all(row["max_k"] <= row["bound"] for row in data["rows"])
    rc, _, _ = run(capsys, "audit", "30")
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "1", "3"),
        ("enumerate", "27", "3"),
        ("enumerate", "2", "-1"),
        ("audit", "0"),
        ("audit", "21"),
        ("tm", "--prefix", "-1"),
        ("tm", "--factor", "abc"),
        ("tm", "--range", "0", "3"),
        ("markers", "abc"),
        ("transition", "ab", "ba", "--alphabet", "1"),
        ("transition", "ab1", "ba"),
        ("extend", "ab", "--alphabet", "1"),
        ("extendable", "right", "ab", "--alphabet", "1"),
        ("check", "ab", "--alphabet", "27"),
    ],
)
def test_rejected_input_exits_2_with_one_error_line(capsys, argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("message", ["internal error: forced", "forced"])
def test_internal_error_exits_3_with_one_error_line(capsys, monkeypatch, message):
    # a failed internal check must not read as a negative answer (exit 1)
    extend.clear_caches()

    def broken(u, w):
        raise RuntimeError(message)

    monkeypatch.setattr(extend, "_uniform_context_tail", broken)
    rc, out, err = run(capsys, "extend", "ab", "--json")
    assert (rc, out, err) == (3, "", "internal error: forced")


def test_verify_round_trip(capsys):
    rc, out, _ = run(capsys, "extend", "ab", "--json")
    assert rc == 0
    rc, out2, _ = run(capsys, "verify", out)
    assert rc == 0 and out2 == "valid"

    rc, left_out, _ = run(capsys, "extendable", "left", "aab", "--json")
    assert rc == 0
    rc, out3, _ = run(capsys, "verify", left_out)
    assert rc == 0 and out3 == "valid"

    tampered = json.loads(out)
    tampered["r"] += 1
    rc, out3, _ = run(capsys, "verify", json.dumps(tampered))
    assert rc == 1 and out3 == "INVALID"

    rc, out4, _ = run(capsys, "verify", '{"u":"aa","v":"bb","witness":"ba"}')
    assert rc == 0 and out4 == "valid"

    rc, _, _ = run(capsys, "verify", "not json {")
    assert rc == 2


@pytest.mark.parametrize(
    "certificate, kind",
    [
        ('{"u":"a","v":"a","witness":"aa","valid":true}', "transition"),
        ('{"word":"aaa","Y":"","r":1,"valid":true,"kind":"transition"}', "tail"),
    ],
)
def test_verify_reports_the_verdict_it_computed(capsys, certificate, kind):
    # a "valid" or "kind" key of the input is checked again, never echoed
    rc, out, _ = run(capsys, "verify", certificate, "--json")
    data = json.loads(out)
    assert rc == 1 and data["valid"] is False and data["kind"] == kind


@pytest.mark.parametrize(
    "certificate",
    [
        '{"u":"AB1","v":"","witness":"x y"}',
        '{"u":["a"],"v":"","witness":""}',
        '{"word":"AB","Y":"","r":1}',
        '{"word":"ab","Y":"a1","r":1}',
        '{"word":"ab","Y":"","r":true}',
        '{"word":"ab","Y":"","r":"1"}',
        '{"word":"ab","Y":"","r":1.5}',
        '{"word":"ab","Y":"","r":1,"seam":false}',
        '{"Y":"aabbaababbaababba","r":22,"seam":6,"tm_aligned":"false","word":"abbabaab"}',
        '{"Y":"aabbaababbaababba","r":22,"seam":6,"tm_aligned":false,"word":"abbabaab","side":"lft"}',
    ],
)
def test_verify_rejects_fields_that_are_not_words_or_integers(capsys, certificate):
    rc, out, err = run(capsys, "verify", certificate)
    assert rc == 2 and not out
    assert err.startswith("error: malformed certificate")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("tm", "--prefix", "1000000000"), "error: positions into T"),
        (("tm", "--range", "999999990", "1000000000"), "error: positions into T"),
        (("verify", '{"word":"ab","Y":"","r":1000000000}'), "error: malformed certificate: positions into T"),
    ],
)
def test_thue_morse_positions_past_the_bound_build_nothing(capsys, argv, message):
    cached = len(thue_morse._prefix)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and not out and err.startswith(message)
    assert len(thue_morse._prefix) == cached


@pytest.mark.parametrize("past, rc, out", [(0, 0, "valid"), (1, 2, "")])
def test_verify_reads_t_up_to_r_plus_twice_the_prefix(capsys, past, rc, out):
    # the certificate (word, "", r) with word = T[r-8 .. r-1] denotes a tail
    # of T; verify reads T up to position r + 2|word|, so it answers while
    # that stays within 2^24 and exits 2 one position past it.  The scan up
    # to r + 4(|word|+1) + 64 of the looser period bound exited 2 on both.
    r = (1 << 24) - 16 + past
    cert = {"word": thue_morse.tm_range(r - 8, r - 1), "Y": "", "r": r}
    got = run(capsys, "verify", json.dumps(cert))
    assert got[:2] == (rc, out)
    assert rc == 0 or got[2].startswith("error: malformed certificate: positions into T are limited to")


def test_verify_scans_a_tail_certificate_once(capsys, monkeypatch):
    rc, out, _ = run(capsys, "extend", "abbabaab", "--json")
    assert rc == 0
    scans = []
    find_cube = words.find_cube
    monkeypatch.setattr(words, "find_cube", lambda w, **kw: scans.append(w) or find_cube(w, **kw))
    rc, out2, _ = run(capsys, "verify", out)
    assert rc == 0 and out2 == "valid"
    assert len(scans) == 1


def test_json_output_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "extend", "aab", "--json")
    rc2, out2, _ = run(capsys, "extend", "aab", "--json")
    assert (rc1, out1) == (rc2, out2)


_NO_THIRD_PARTY = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from cubefree.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[2])]
known = sys.stdlib_module_names | {"__main__", "cubefree"}
print(json.dumps([codes, sorted(name for name in sys.modules if name.split(".")[0] not in known)]))
"""


def test_every_command_loads_only_the_standard_library():
    # -S: no site module, so no .pth file can import anything on its own
    argvs = [
        ["check", "abbabaab"],
        ["extendable", "right", "abbabaab"],
        ["extend", "abcab", "--json"],
        ["transition", "ab", "ba", "--alphabet", "3"],
        ["markers", "aabaa"],
        ["tm", "--prefix", "16"],
        ["enumerate", "2", "8"],
        ["audit", "6"],
        ["verify", '{"u": "ab", "v": "ba", "witness": "a"}'],
    ]
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-c", _NO_THIRD_PARTY, str(src), json.dumps(argvs)],
        capture_output=True, text=True, check=True,
    )
    codes, foreign = json.loads(done.stdout)
    commands = next(a.choices for a in build_parser()._actions if a.dest == "command")
    assert sorted(argv[0] for argv in argvs) == sorted(commands)
    assert codes == [0] * len(argvs)
    assert foreign == []
