"""Re-record ``reference/paper-vsc.json``, the exact paper-vsc outcome.

Run from the repository root when a change is *meant* to alter synthesis
(thresholds, statuses, rounds or the number of Algorithm 1 calls)::

    python3 perfbench/record_reference.py

and say in the change why the reference moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import REFERENCE_DIR, PaperVsc  # noqa: E402


def main() -> None:
    workload = PaperVsc(0)
    workload.setup()
    outcome = workload.op(0)
    summary = PaperVsc.summary(outcome.data["report"], outcome.data["solve_calls"])
    path = REFERENCE_DIR / "paper-vsc.json"
    path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
