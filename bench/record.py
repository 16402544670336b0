"""Record a source tree's benchmark into one JSON file.

Usage, from any directory::

    python bench/record.py --tree PATH --out FILE

For each workload that the tree's ``BENCHMARK.json`` lists, the tree's own
benchmark command (``perfbench/run.py``) runs from the tree's root,
untraced, at one fixed seed for the file's ``run_seconds``, so a tree checked
out from an older commit is measured by the benchmark it carried. The file
holds, for each workload, the last two lines the benchmark prints, parsed:
the info line (nproc, versions, commit, ``src_lines``, the results sha256
and every pass's samples) and the result line (``correct``, ``attempted``,
``failed`` and the metrics). ``--seconds`` and ``--workload`` shorten a
recording for the recorder's own test. A benchmark run that fails stops the
recording with exit 1 and writes no file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SEED = 1
# well above a full-length run of one workload on a two-core host
TIMEOUT_S = 900


def record(tree: Path, seconds: float | None, workloads: list[str] | None) -> dict:
    """Each workload's info and result lines, keyed by workload name."""
    benchmark = json.loads((tree / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"] if seconds is None else seconds
    names = [w["name"] for w in benchmark["workloads"]]
    if unknown := sorted(set(workloads or ()) - set(names)):
        raise SystemExit(f"error: workloads {unknown} are not in {tree / 'BENCHMARK.json'}: {names}")
    recorded = {}
    for name in workloads or names:
        command = [*benchmark["command"], "--workload", name, "--seed", str(SEED), "--seconds", str(seconds),
                   "--trace", "0"]
        run = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S)
        if run.returncode:
            raise SystemExit(f"error: {' '.join(command)} exited {run.returncode}:\n{run.stderr}")
        info, result = map(json.loads, run.stdout.splitlines()[-2:])
        recorded[name] = {"command": command, "info": info, "result": result}
    return {"seed": SEED, "seconds": seconds, "workloads": recorded}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, required=True, help="root of the source tree to measure")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--seconds", type=float, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--workload", action="append", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    data = record(args.tree.resolve(), args.seconds, args.workload)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
