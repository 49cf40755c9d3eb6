"""Run one benchmark workload; print its metrics as the last line of stdout.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-vsc --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off: operations run back to back for up to ``--seconds`` seconds,
with the set-up repeated between them and its median reported.
``--trace 1`` measures the per-layer metrics: a fixed number of operations
runs once untraced and once again traced, with spans around the library's
public calls (see ``perfbench/tracing.py``); the fixed count makes every
call count exact for a given seed.  Both modes check every operation's
outputs outside the timed regions and exit 1 when a check fails.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run's
provenance record, which is also written with the spans under
``.perfbench/`` in the checkout.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # BLAS threads are held fixed (and recorded) before numpy is imported.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.bench import main

    sys.exit(main())
