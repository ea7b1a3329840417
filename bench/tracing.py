"""Tracing from outside the program: wrap the public functions of the
library's layers in place, and count memo-table lookups.

Every call inside the library goes through a module attribute (``words.
find_cube``, ``extend.is_right_extendable``, ...), so replacing the
attribute puts a wrapper on every call path. Each wrapper times its call
and charges the time to the nearest traced caller; totals are kept in
memory per (function, caller), because the hottest leaves run hundreds
of thousands of times per run, and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("words", "thue_morse", "analysis", "extend", "transition", "cli")

# letters handled by one call, where that is the natural unit of work
_LETTERS = {
    "words.find_cube": lambda a, k: len(a[0]),
    "words.append_check": lambda a, k: len(a[0]) + 1,
    # the certified prefix u + Y
    "extend.verify": lambda a, k: len(a[1]) + len(a[0].Y),
}


class CountingDict(dict):
    """A memo dict that counts lookups through ``get`` and their hits."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0
        self.hits = 0

    def get(self, key, default=None):
        self.lookups += 1
        if key in self:
            self.hits += 1
            return self[key]
        return default


class CountingSet(set):
    """A memo set that counts membership tests and their hits."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0
        self.hits = 0

    def __contains__(self, key):
        self.lookups += 1
        found = set.__contains__(self, key)
        self.hits += found
        return found


class Tracer:
    """Patches the layers of a loaded ``cubefree`` package; ``uninstall``
    puts every original attribute back."""

    def __init__(self, package):
        self.package = package
        # (function, nearest traced caller) -> [calls, letters, total_s, self_s]
        self.table: dict[tuple[str, str | None], list] = {}
        self.stack: list[list] = []  # [name, child_s] per active traced call
        self._patched: list[tuple[object, str, object]] = []
        self.memos: dict[str, CountingDict | CountingSet] = {}

    # -- install / uninstall ---------------------------------------------

    def targets(self):
        """(owner, attribute, traced name) for every function wrapped."""
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for attr, obj in sorted(vars(mod).items()):
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield mod, attr, f"{layer}.{attr}"
        yield self.package.extend.TailCertificate, "verify", "extend.verify"

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in list(self.targets()):
            fn = vars(owner)[attr]
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        extend = self.package.extend
        for attr in ("_verdicts", "_no_uniform_context", "_no_binary_reduction"):
            orig = getattr(extend, attr)
            counting = CountingDict(orig) if isinstance(orig, dict) else CountingSet(orig)
            self._patched.append((extend, attr, orig))
            self.memos[attr] = counting
            setattr(extend, attr, counting)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            current = getattr(owner, attr)
            if isinstance(current, (CountingDict, CountingSet)):
                orig.update(current)  # keep what the traced run memoised
            setattr(owner, attr, orig)

    def _wrap(self, name: str, fn):
        letters = _LETTERS.get(name)
        table = self.table
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                row = table.get((name, caller))
                if row is None:
                    row = table[(name, caller)] = [0, 0, 0.0, 0.0]
                row[0] += 1
                if letters is not None:
                    row[1] += letters(args, kwargs)
                row[2] += dt
                row[3] += dt - frame[1]

        return traced

    # -- per op -----------------------------------------------------------

    def snapshot(self):
        """State to roll back to if the next op is cut off by the time
        limit, whose cut point (and so whose counts) depend on timing."""
        self.stack = []
        return (
            {key: list(row) for key, row in self.table.items()},
            {attr: (m.lookups, m.hits) for attr, m in self.memos.items()},
        )

    def rollback(self, state) -> None:
        table, memos = state
        self.table.clear()
        self.table.update(table)
        for attr, (lookups, hits) in memos.items():
            self.memos[attr].lookups, self.memos[attr].hits = lookups, hits
        self.stack = []

    # -- results ----------------------------------------------------------

    def totals(self, prefix: str) -> list[float]:
        """[calls, letters, total_s, self_s] summed over every function whose
        traced name starts with prefix, across all callers."""
        out = [0, 0, 0.0, 0.0]
        for (name, _), row in self.table.items():
            if name == prefix or name.startswith(prefix + "."):
                for i in range(4):
                    out[i] += row[i]
        return out

    def rows(self) -> list[dict]:
        return [
            {"function": name, "caller": caller, "calls": r[0], "letters": r[1], "total_s": r[2], "self_s": r[3]}
            for (name, caller), r in sorted(self.table.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
        ]

    def layer_metrics(self, yes_answers: int) -> dict[str, float]:
        """The per-layer metrics, by the names BENCHMARK.json gives them."""
        m: dict[str, float] = {}
        for fn in ("words.find_cube", "words.append_check", "extend.verify"):
            calls, letters, _, self_s = self.totals(fn)
            m[f"{fn}.calls"] = calls
            m[f"{fn}.letters"] = letters
            m[f"{fn}.self_s"] = self_s
        walk = self.table.get(("words.append_check", "transition.transition_exists"))
        m["transition.direct_walk.nodes"] = walk[0] if walk else 0
        m["extend.verify_per_answer"] = m["extend.verify.calls"] / yes_answers if yes_answers else 0.0
        rext = self.totals("extend.is_right_extendable")
        m["extend.is_right_extendable.calls"] = rext[0]
        m["extend.is_right_extendable.self_s"] = rext[3]
        m["extend.algorithm2.self_s"] = self.totals("extend.algorithm2")[3]
        lookups = sum(mm.lookups for mm in self.memos.values())
        hits = sum(mm.hits for mm in self.memos.values())
        m["extend.memo.hit_ratio"] = hits / lookups if lookups else 0.0
        m["extend.memo.entries"] = sum(len(mm) for mm in self.memos.values())
        for layer in ("thue_morse", "analysis"):
            calls, _, _, self_s = self.totals(layer)
            m[f"{layer}.calls"] = calls
            m[f"{layer}.self_s"] = self_s
        m["thue_morse.prefix_len"] = len(self.package.thue_morse._prefix)
        m["transition.transition_exists.self_s"] = self.totals("transition.transition_exists")[3]
        m["transition.construct_transition.calls"] = self.totals("transition.construct_transition")[0]
        main = self.totals("cli.main")
        m["cli.main.calls"] = main[0]
        m["cli.main.self_s"] = main[3]
        return m
