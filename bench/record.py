#!/usr/bin/env python3
"""Record the committed seed's answers into ``seed_answers.json``.

    python3 bench/record.py

Runs the first rounds of every workload for seed 0 without a deadline,
checks each answer against the oracle (never against an earlier
recording), and stores a digest of every correct answer keyed by its op.
Later runs of seed 0 must then reproduce these answers byte for byte.
Run it only on a commit whose answers are meant to become the reference.
"""

from __future__ import annotations

import json
import sys

import run
import workloads
from check import ANSWERS, Checker, answer_digest, op_key

SEED = 0
# more rounds than a 25-second run reaches, so every op of such a run is covered
ROUNDS = {"certify": 24, "bridge": 4, "recheck": 12}


def main() -> int:
    cubefree = run.load_package()
    run.signal.signal(run.signal.SIGALRM, run._alarm)
    checker = Checker(cubefree.oracle, answers={})
    answers: dict[str, str] = {}
    for name in workloads.NAMES:
        workload = workloads.make(name, SEED, cubefree.cli.main)
        results, _ = run.run_rounds(workload, cubefree.cli.main, rounds=ROUNDS[name])
        if run.check_results(results, checker):
            print(f"{name}: wrong answers, nothing recorded", file=sys.stderr)
            return 1
        for r in results:
            if not r.failed:
                answers[op_key(r.op.argv, r.op.stdin)] = answer_digest(r.code, r.stdout)
        print(f"{name}: {len(results)} ops, {sum(r.failed for r in results)} failed", file=sys.stderr)
    with open(ANSWERS, "w", encoding="utf-8") as fh:
        json.dump(answers, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(answers)} answers written to {ANSWERS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
