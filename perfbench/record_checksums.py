"""Record the sweep_full report checksums that run.py checks against.

    python3 perfbench/record_checksums.py

Runs the sweep serially (workers=1) for every window offset at both the
full and the tiny scale and writes one digest per (scale, offset) to
sweep_checksums.json.  Re-record only when a change to the report format is
intended; a scan change must leave these digests as they are.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    recorded = {}
    for scale, tiny in (("full", False), ("tiny", True)):
        recorded[scale] = {}
        for offset in range(workloads.WINDOW_OFFSETS):
            wl = workloads.SweepFull(offset, tiny)
            wl.workers = 1
            lines = [workloads.report_line(rep) for rep, _ in wl.reports(nullcontext())]
            recorded[scale][str(offset)] = workloads.digest(lines)
            print(scale, offset, recorded[scale][str(offset)], file=sys.stderr)
    workloads.RECORDED_CHECKSUMS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
