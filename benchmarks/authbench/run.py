"""Outside-in benchmark of the authorization engine.

Drives the public API from one process, checks every distinct answer
against a reference engine, and prints the metrics of one workload —
by name and unit, then as one JSON object on the last line::

    python3 benchmarks/authbench/run.py --workload paper --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics (untraced).  ``--trace 1``
measures half the time untraced and half with span wrappers installed
around every layer, and reports the per-layer metrics, the tracing
overhead and the workload-specific figures; the spans are written to
``.authbench/spans-<workload>.jsonl``.  ``--workload all`` runs every
workload in turn, each in its own process, and prints one table.  The
exit code is 1 when any answer differs from the reference and 2 when
the ``repro`` sources are missing.  ``README.md`` beside this file
documents every metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

SOURCE = Path(__file__).resolve().parents[2] / "src"
WORKLOAD_NAMES = ("paper", "churn", "scan", "serving")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one table at the end."""
    rows: List[Tuple[str, Dict[str, Any]]] = []
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, capture_output=True,
                                   text=True, check=False)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            status = 1
            continue
        rows.append((name, json.loads(lines[-1])))
    if rows:
        names = list(rows[0][1]["metrics"])
        print("\n" + " " * 38 + "".join(f"{w:>12}" for w, _ in rows))
        for metric in names:
            unit = rows[0][1]["metrics"][metric]["unit"]
            cells = "".join(f"{r['metrics'][metric]['value']:>12.4g}"
                            for _, r in rows)
            print(f"{metric + ' (' + unit + ')':<38}{cells}")
    return status


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SOURCE}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SOURCE))
    from harness import report, run_workload

    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    result = report(run, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
