"""In-memory spans for the traced benchmark run.

A span is a dict with an id, the id of the span that caused it, a name,
start and end times from ``time.perf_counter_ns`` and a dict of counts.
Spans stay in memory while the run works and are written out once, as JSON
lines, when it ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _parent(self) -> int | None:
        return self._open[-1] if self._open else None

    @contextmanager
    def span(self, name: str, **counts):
        """Time the body as a child of the innermost open span; yields its counts."""
        record = {
            "id": len(self.spans),
            "parent": self._parent(),
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
            "counts": dict(counts),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["counts"]
        finally:
            self._open.pop()
            record["end_ns"] = time.perf_counter_ns()

    def leaf(self, name: str, start_ns: int, end_ns: int, counts: dict) -> None:
        """Record an already timed span under the innermost open span."""
        self.spans.append(
            {
                "id": len(self.spans),
                "parent": self._parent(),
                "name": name,
                "start_ns": start_ns,
                "end_ns": end_ns,
                "counts": counts,
            }
        )

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps({"trace": self.trace_id, **record}) + "\n")


def self_time_ns(spans: list[dict]) -> dict[int, int]:
    """Each span's duration minus the part its children cover.

    Children of one span never overlap here (the benchmark is one thread),
    so their durations add up.
    """
    own = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return own


def main(argv: list[str]) -> int:
    """Print span count, total and self time per span name of a trace file."""
    if len(argv) != 2:
        print("usage: python3 perfbench/spans.py <trace.jsonl>", file=sys.stderr)
        return 1
    with open(argv[1]) as handle:
        spans = [json.loads(line) for line in handle]
    own = self_time_ns(spans)
    table: dict[str, list[int]] = {}
    for s in spans:
        row = table.setdefault(s["name"], [0, 0, 0])
        row[0] += 1
        row[1] += s["end_ns"] - s["start_ns"]
        row[2] += own[s["id"]]
    print(f"{'span':<20}{'count':>8}{'total_s':>12}{'self_s':>12}")
    for name, (count, total, mine) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:<20}{count:>8}{total / 1e9:>12.4f}{mine / 1e9:>12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
