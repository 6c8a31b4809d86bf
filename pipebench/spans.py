"""Span tracer for the pipeline benchmark.

The tracer replaces public library functions with timing wrappers, on the
module (or class) attributes that callers actually look up, and restores
them afterwards. Nothing in ``acecolor`` is edited: the spans sit at the
layer boundaries, seen from outside.

Each span is four integers (name id, start ns, end ns, parent index) in
one flat ``array`` so that a pass with hundreds of thousands of calls
stays small in memory. Self time is a span's duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

ROOT = -1  # parent index of a span opened with no span open


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # name, start, end, parent; 4 per span
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.spans) // 4
        parent = self._stack[-1] if self._stack else ROOT
        self.spans.extend((self._name_id(name), time.perf_counter_ns(), 0, parent))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[4 * idx + 2] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def open_name(self, up: int = 0) -> str | None:
        """Name of the open span `up` levels above the innermost, or None."""
        if len(self._stack) <= up:
            return None
        return self.names[self.spans[4 * self._stack[-1 - up]]]

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset with spans still open")
        self.spans = array("q")
        self.counts = defaultdict(int)

    # -- patching --------------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr with a wrapper that records a span per call.

        on_result(tracer, result), when given, runs inside the span after
        the call returns and may bump result-dependent counters.
        """
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = orig(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, out)
                return out
            finally:
                tracer.close(idx)

        wrapper.__wrapped__ = orig
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans) // 4

    def self_times(self) -> list[int]:
        """Per-span self time in ns: duration minus the union of the
        intervals its children cover (children are sequential, but the
        union is taken rather than assumed)."""
        n = len(self)
        sp = self.spans
        kids: list[list[int]] = [[] for _ in range(n)]
        for i in range(n):
            p = sp[4 * i + 3]
            if p != ROOT:
                kids[p].append(i)
        out = [0] * n
        for i in range(n):
            start, end = sp[4 * i + 1], sp[4 * i + 2]
            covered = 0
            cur_s = cur_e = None
            for c in kids[i]:  # children are recorded in start order
                cs, ce = max(sp[4 * c + 1], start), min(sp[4 * c + 2], end)
                if cs >= ce:
                    continue
                if cur_e is None or cs > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = cs, ce
                else:
                    cur_e = max(cur_e, ce)
            if cur_e is not None:
                covered += cur_e - cur_s
            out[i] = (end - start) - covered
        return out

    def summary(self, self_ns: list[int]) -> tuple[dict, dict]:
        """Calls, inclusive seconds and self seconds per span name, and
        calls and inclusive seconds per (name, enclosing span name)."""
        by_name: dict[str, dict[str, float]] = {}
        by_pair: dict[tuple[str, str | None], list] = {}
        sp = self.spans
        for i in range(len(self)):
            name = self.names[sp[4 * i]]
            dur = (sp[4 * i + 2] - sp[4 * i + 1]) / 1e9
            a = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["s"] += dur
            a["self_s"] += self_ns[i] / 1e9
            p = sp[4 * i + 3]
            b = by_pair.setdefault((name, None if p == ROOT else self.names[sp[4 * p]]), [0, 0.0])
            b[0] += 1
            b[1] += dur
        return by_name, by_pair

    def root_gaps(self, root_name: str, self_ns: list[int]) -> list[int]:
        """For each span named root_name: its duration minus the sum of the
        self times over its subtree. Zero when self times account for the
        whole span."""
        n = len(self)
        sp = self.spans
        rid = self._ids.get(root_name)
        # subtree sums accumulate bottom-up: children always follow parents
        sub = list(self_ns)
        for i in range(n - 1, -1, -1):
            p = sp[4 * i + 3]
            if p != ROOT:
                sub[p] += sub[i]
        return [
            (sp[4 * i + 2] - sp[4 * i + 1]) - sub[i]
            for i in range(n)
            if sp[4 * i] == rid
        ]

    def write_tsv(self, path) -> None:
        sp = self.spans
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self)):
                fh.write(
                    f"{i}\t{sp[4 * i + 3]}\t{self.names[sp[4 * i]]}\t"
                    f"{sp[4 * i + 1]}\t{sp[4 * i + 2]}\n"
                )
