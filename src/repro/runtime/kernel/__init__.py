"""``repro.runtime.kernel``: the fused fleet execution kernel.

The opt-in fast path behind ``engine="fused"``: a single float64
block-matrix GEMM per fleet step (:mod:`~repro.runtime.kernel.core`), the
registered ``legacy``/``fused`` engines, which choose the stepper the one
fleet run body drives (:mod:`~repro.runtime.kernel.runner`), plus
version-keyed fused service rounds (:mod:`~repro.runtime.kernel.serve`).

The fused path is *bit-identical* to the legacy stepper, enforced by a
per-system differential probe at run time (a failed probe falls back to the
legacy stepper) and by the differential test layer
(``tests/test_runtime_kernel_equiv.py``).  See ``docs/runtime-kernel.md``
for the fusion layout and the equivalence-gate policy.
"""

from repro.runtime.kernel.core import FusedStepper, probe_fused_equivalence
from repro.runtime.kernel.runner import FusedEngine, LegacyEngine
from repro.runtime.kernel.serve import FusedServicePlan

__all__ = [
    "FusedStepper",
    "probe_fused_equivalence",
    "FusedEngine",
    "LegacyEngine",
    "FusedServicePlan",
]
