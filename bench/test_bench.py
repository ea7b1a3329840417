"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import random
import time

import pytest

import run
import workloads
from check import Checker, answer_digest, leftmost_cube, op_key
from tracing import Tracer

cubefree = run.load_package()
from cubefree import cli, extend, oracle, words  # noqa: E402


@pytest.fixture(autouse=True)
def _alarm_handler():
    old = run.signal.signal(run.signal.SIGALRM, run._alarm)
    yield
    run.signal.signal(run.signal.SIGALRM, old)


def _json(argv):
    return workloads.cli_json(cli.main, argv)


# -- generator ------------------------------------------------------------


@pytest.mark.parametrize("name", ["certify", "bridge"])
def test_generator_is_deterministic_per_seed(name):
    a = workloads.make(name, 7, cli.main)
    b = workloads.make(name, 7, cli.main)
    c = workloads.make(name, 8, cli.main)
    for k in (0, 1):
        assert a.round(k) == b.round(k)
        assert a.round(k) != c.round(k)
    assert a.round(0) != a.round(1)


def test_recheck_generator_is_deterministic_per_seed():
    a = workloads.make("recheck", 3, cli.main)
    b = workloads.make("recheck", 3, cli.main)
    assert a.round(0) == b.round(0)
    assert a.round(0) != workloads.make("recheck", 4, cli.main).round(0)


def test_round_composition_does_not_depend_on_the_seed():
    for name in ("certify", "bridge"):
        shapes = {
            tuple(sorted(op.bucket for op in workloads.make(name, seed, cli.main).round(2)))
            for seed in (0, 1, 2)
        }
        assert len(shapes) == 1


def test_generated_words_are_cube_free_and_dead_ends_are_dead():
    rng = random.Random(0)
    for d in (2, 3):
        for n in (10, 40):
            assert oracle.naive_is_cube_free(workloads.right_word(rng, n, d))
            assert oracle.naive_is_cube_free(workloads.left_word(rng, n, d))
    for tail in workloads.DEAD_ENDS:
        assert oracle.context_tree(tail, 8).exhausted
    for _ in range(5):
        w = workloads.dead_end_word(rng, 30)
        assert len(w) == 30 and oracle.naive_is_cube_free(w)
        assert oracle.context_tree(w, 8).exhausted


# -- checker --------------------------------------------------------------


def test_leftmost_cube_matches_the_library_and_the_oracle():
    rng = random.Random(1)
    for _ in range(300):
        w = "".join(rng.choice("abc"[: rng.choice((2, 3))]) for _ in range(rng.randrange(1, 40)))
        found = words.find_cube(w)
        assert leftmost_cube(w) == (None if found is None else (found.position, found.period))
        assert (leftmost_cube(w) is None) == oracle.naive_is_cube_free(w)


# a cube-free binary word whose certificate breaks under every tampering
# below: r one off either way, or any single letter of Y flipped
U = "babbaababbababbaabba"


def _extend_op(u):
    return workloads.Op("extend", ("extend", u, "--json"), len(u), 2)


def test_checker_accepts_genuine_and_flags_tampered_certificates():
    checker = Checker(oracle, answers={})
    op = _extend_op(U)
    out = _json(list(op.argv))
    cert = json.loads(out)
    assert checker.check(op, 0, out) is None
    tampered = [dict(cert, r=cert["r"] + 1), dict(cert, r=cert["r"] - 1)]
    for i in range(len(cert["Y"])):
        flip = "b" if cert["Y"][i] == "a" else "a"
        tampered.append(dict(cert, Y=cert["Y"][:i] + flip + cert["Y"][i + 1 :]))
    for t in tampered:
        assert not extend.TailCertificate(t["Y"], t["r"], t["seam"], t["tm_aligned"]).verify(U)
        assert checker.check(op, 0, json.dumps(t, sort_keys=True)) is not None


def test_checker_flags_a_tampered_witness():
    checker = Checker(oracle, answers={})
    u, v = "abaabbab", "babbaaba"
    op = workloads.Op("transition", ("transition", u, v, "--json"), len(u), 2)
    out = _json(list(op.argv))
    assert checker.check(op, 0, out) is None
    answer = json.loads(out)
    for bad in (answer["witness"] + "aaa", "aa" + answer["witness"]):
        assert checker.check(op, 0, json.dumps(dict(answer, witness=bad), sort_keys=True)) is not None


def test_checker_flags_a_wrong_verdict_on_a_tampered_certificate():
    checker = Checker(oracle, answers={})
    cert = json.loads(_json(["extend", U, "--json"]))
    bad = json.dumps(dict(cert, r=cert["r"] + 1), sort_keys=True)
    op = workloads.Op("verify", ("verify", "-", "--json"), len(U), 2, stdin=bad)
    genuine = run.run_op(cli.main, op, 5.0)
    assert genuine.code == 1 and checker.check(op, genuine.code, genuine.stdout) is None
    lie = json.dumps(dict(json.loads(genuine.stdout), valid=True), sort_keys=True) + "\n"
    assert checker.check(op, 0, lie) is not None


def test_checker_checks_exhaustion_depths():
    checker = Checker(oracle, answers={})
    op = _extend_op("aabaabaa")  # a dead end: both letters make a cube
    out = _json(list(op.argv))
    assert json.loads(out)["extendable"] is False
    assert checker.check(op, 1, out) is None
    wrong = json.dumps(dict(json.loads(out), exhausted_at=json.loads(out)["exhausted_at"] + 1), sort_keys=True)
    assert checker.check(op, 1, wrong) is not None


def test_seed_answers_are_compared_byte_for_byte():
    op = _extend_op(U)
    out = _json(list(op.argv))
    checker = Checker(oracle, answers={op_key(op.argv, op.stdin): answer_digest(0, out)})
    assert checker.check(op, 0, out) is None
    assert checker.check(op, 0, out.replace(", ", ",")) is not None
    assert checker.by_seed == 2 and checker.by_oracle == 0


# -- time limit and failure accounting -------------------------------------


def test_a_timed_out_op_is_failed_and_counts_at_the_limit():
    op = _extend_op("ab")

    def slow(argv):
        time.sleep(5)
        return 0

    r = run.run_op(slow, _extend_op("aba"), 0.2)
    assert r.status == "timeout" and r.failed and r.seconds < 2
    ok = run.run_op(cli.main, op, 5.0)
    assert ok.status == "ok" and not ok.failed
    m = run.end_to_end("certify", [r, ok, ok], 0.3)
    assert m["answered_ratio"] == pytest.approx(2 / 3)
    assert m["latency_p90_ms"] > ok.seconds * 1000  # the failed op sits at the limit


def test_a_raising_op_is_failed():
    def boom(argv):
        raise RecursionError("deep")

    r = run.run_op(boom, _extend_op("ab"), 1.0)
    assert r.status == "RecursionError" and r.failed


def test_latency_percentiles_are_averaged_over_rounds():
    op = _extend_op("ab")
    results = [run.Result(op, "ok", 0, "", s, 1.0, k) for k, times in enumerate(([1, 2, 3], [5, 6, 7])) for s in times]
    results.append(run.Result(op, "timeout", None, "", 0.5, 1.0, 1))
    # round 0 has median 2; round 1 (5, 6, 7 and the failed op at the limit) has 6.5
    assert run.round_quantile(results, 50) == pytest.approx((2 + 6.5) / 2)


def test_op_times_are_scaled_to_the_reference_host_speed():
    assert run.speed_factor(run.KERNEL_REF_S) == 1
    op = _extend_op("ab")
    slow = 2 * run.KERNEL_REF_S  # the kernel took twice its reference time
    results = [run.Result(op, "ok", 0, "", 1.0, 1.0, 0, slow) for _ in range(3)]
    results.append(run.Result(op, "timeout", None, "", run.LIMIT_S, 1.0, 0, slow))
    f = 0.5**run.KERNEL_EXPONENT
    assert run.scaled_seconds(results) == pytest.approx([f, f, f, run.LIMIT_S])
    assert run.ops_per_s(results) == pytest.approx(3 / (3 * f + run.LIMIT_S))


# -- tracer ---------------------------------------------------------------


def _attributes(tracer):
    return {(id(owner), attr): vars(owner)[attr] for owner, attr, _ in tracer.targets()}


MEMOS = ("_verdicts", "_no_uniform_context", "_no_binary_reduction")


def test_tracer_restores_every_patched_attribute():
    tracer = Tracer(cubefree)
    before = _attributes(tracer)
    memos = {attr: getattr(extend, attr) for attr in MEMOS}
    tracer.install()
    try:
        during = _attributes(tracer)
        assert all(during[key] is not fn for key, fn in before.items())
        r = run.run_op(cli.main, workloads.Op("transition", ("transition", "ab", "ba", "--json"), 2, 2), 5.0)
        assert r.status == "ok"
    finally:
        tracer.uninstall()
    after = _attributes(tracer)
    assert all(after[key] is fn for key, fn in before.items())
    assert all(getattr(extend, attr) is memos[attr] for attr in MEMOS)
    m = tracer.layer_metrics(yes_answers=1)
    assert m["cli.main.calls"] == 1 and m["words.append_check.calls"] > 0


def test_tracer_counts_repeat_exactly():
    def counts():
        extend.clear_caches()
        tracer = Tracer(cubefree)
        tracer.install()
        try:
            for argv in (["extend", U, "--json"], ["transition", "abaab", "babba", "--json"]):
                workloads.cli_json(cli.main, argv)
        finally:
            tracer.uninstall()
        return [(row["function"], row["caller"], row["calls"], row["letters"]) for row in tracer.rows()]

    assert counts() == counts()


def test_untraced_run_installs_nothing(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the untraced run installed the tracer")

    monkeypatch.setattr(Tracer, "install", refuse)
    tracer = Tracer(cubefree)
    before = _attributes(tracer)
    assert run.main(["--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0", "--rounds", "1"]) == 0
    assert all(_attributes(tracer)[key] is fn for key, fn in before.items())
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and set(report["metrics"]) == set(run.END_TO_END)


def test_metric_names_and_units_match_benchmark_json():
    with open(run.os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
