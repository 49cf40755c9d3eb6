"""Fused closed-loop stepper: one block matmul per fleet step.

The legacy :class:`~repro.runtime.fleet._BatchStepper` advances ``N``
instances with ~8 separate ``(N, ·)`` matrix products per sampling instance.
This module pre-assembles the per-``(system, estimator, controller)`` update
into a single block matrix ``Mq`` over the stacked state ``Z = [X; Xhat; U]``
(transposed, ``(s, N)`` with ``s = 2n + p``), so each step is **one**
``(q, s) @ (s, N)`` product followed by a handful of elementwise adds:

.. code-block:: text

    rows of P = Mq @ Z:      0..m      C X        (true output)
                             m..2m     C Xhat     (predicted output)
                             2m..2m+n  A X
                             2m+n..+n  A Xhat
                             2m+2n..+n B U
                             [+m]      D U        (only when D is nonzero)

The elementwise tail replicates the legacy update order operation for
operation (same associations, same in-place accumulations), so whenever the
BLAS GEMM reproduces the legacy products bit for bit in this orientation the
float64 fused step is *bit-identical* to the legacy stepper.  Whether that
holds for a concrete ``(system, BLAS)`` pair is decided empirically at run
time by :func:`probe_fused_equivalence` — a cached differential warm-up on
synthetic data — and runs fall back to the legacy stepper when it fails.

Signed-zero caveat: when ``D == 0`` the legacy stepper still adds an exactly
zero feed-through array, which can flip ``-0.0`` to ``+0.0``; the fused step
skips that add.  The two paths therefore agree under ``np.array_equal``
(value equality, the gate used everywhere) but may differ in the *sign* of
zero entries.  No nonzero value can diverge through this op set.
"""

from __future__ import annotations

import numpy as np

from repro.lti.simulate import ClosedLoopSystem
from repro.utils.rng import ensure_rng

#: Fixed seed of the synthetic differential probe (data-independent verdict).
PROBE_SEED = 20260808

#: Probe horizon: a handful of steps is enough to surface a kernel-dispatch
#: mismatch, and the (cached) probe cost stays negligible against real runs.
PROBE_HORIZON = 8

_PROBE_CACHE: dict[tuple, bool] = {}


class FusedStepper:
    """Advance ``w`` fleet instances with a single float64 GEMM per step.

    Operates in transposed orientation: states are columns, so the stacked
    state ``Z`` is ``(2n + p, w)`` and every per-step input/output block is
    ``(m, w)`` / ``(n, w)``.

    Parameters
    ----------
    system:
        The closed loop replicated across the fleet.
    x0_T / xhat0_T:
        Initial plant/estimator states, transposed ``(n, w)``; copied into
        the stacked state.
    """

    def __init__(self, system: ClosedLoopSystem, x0_T: np.ndarray, xhat0_T: np.ndarray):
        plant = system.plant
        n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs
        w = x0_T.shape[1]
        self.system = system
        self.n_columns = w
        self._n, self._m, self._p = n, m, p
        self._has_of = plant.D is not None and bool(np.any(plant.D))

        s = 2 * n + p
        q = 2 * m + 3 * n + (m if self._has_of else 0)
        Mq = np.zeros((q, s))
        Mq[0:m, 0:n] = plant.C
        Mq[m : 2 * m, n : 2 * n] = plant.C
        self._ax0 = 2 * m
        self._axh0 = 2 * m + n
        self._bu0 = 2 * m + 2 * n
        self._of0 = 2 * m + 3 * n
        Mq[self._ax0 : self._ax0 + n, 0:n] = plant.A
        Mq[self._axh0 : self._axh0 + n, n : 2 * n] = plant.A
        Mq[self._bu0 : self._bu0 + n, 2 * n :] = plant.B
        if self._has_of:
            Mq[self._of0 : self._of0 + m, 2 * n :] = plant.D
        self._Mq = Mq
        self._L = np.ascontiguousarray(system.L, dtype=float)
        self._K = np.ascontiguousarray(system.K, dtype=float)
        feedforward = system.feedforward @ system.reference
        self._ff = np.ascontiguousarray(feedforward.reshape(-1, 1), dtype=float)

        Z = np.zeros((s, w))
        Z[0:n] = x0_T
        Z[n : 2 * n] = xhat0_T
        self._Z = Z
        self.X = Z[0:n]
        self.Xhat = Z[n : 2 * n]
        self.U = Z[2 * n :]

        self._P = np.empty((q, w))
        self._y = np.empty((m, w))
        self._ya = np.empty((m, w))
        self._yhat = np.empty((m, w)) if self._has_of else None
        self._res = np.empty((m, w))
        self._resL = np.empty((n, w))
        self._KX = np.empty((p, w))

    def step(
        self,
        measurement_noise: np.ndarray,
        process_noise: np.ndarray | None,
        attack: np.ndarray | None,
        res_out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One fused closed-loop iteration for all ``w`` instances.

        All blocks are transposed ``(m, w)`` / ``(n, w)``.  Returns
        ``(y_true, y_attacked, residues)`` as views into reused buffers —
        callers must copy what they keep.  ``res_out`` (a contiguous
        ``(m, w)`` block) lets callers receive the residues without a copy;
        the same values land there as in the internal buffer.
        """
        m, n = self._m, self._n
        P = self._P
        res = self._res if res_out is None else res_out
        np.matmul(self._Mq, self._Z, out=P)
        if self._has_of:
            of = P[self._of0 : self._of0 + m]
            np.add(P[0:m], of, out=self._y)
            self._y += measurement_noise
        else:
            np.add(P[0:m], measurement_noise, out=self._y)
        if attack is not None:
            np.add(self._y, attack, out=self._ya)
            ya = self._ya
        else:
            ya = self._y
        if self._has_of:
            np.add(P[m : 2 * m], of, out=self._yhat)
            np.subtract(ya, self._yhat, out=res)
        else:
            np.subtract(ya, P[m : 2 * m], out=res)

        np.add(P[self._ax0 : self._ax0 + n], P[self._bu0 : self._bu0 + n], out=self.X)
        if process_noise is not None:
            self.X += process_noise
        np.matmul(self._L, res, out=self._resL)
        np.add(P[self._axh0 : self._axh0 + n], P[self._bu0 : self._bu0 + n], out=self.Xhat)
        self.Xhat += self._resL
        np.matmul(self._K, self.Xhat, out=self._KX)
        np.subtract(self._ff, self._KX, out=self.U)
        return self._y, ya, res


def _system_key(system: ClosedLoopSystem) -> tuple:
    parts: list = []
    plant = system.plant
    matrices = (
        plant.A,
        plant.B,
        plant.C,
        plant.D,
        system.L,
        system.K,
        system.feedforward,
        system.reference,
    )
    for matrix in matrices:
        array = np.ascontiguousarray(np.asarray(matrix, dtype=float))
        parts.append(array.shape)
        parts.append(array.tobytes())
    return tuple(parts)


def _probe(system: ClosedLoopSystem, n_instances: int, horizon: int) -> bool:
    """Differential warm-up: fused full-width vs legacy stepper, bitwise."""
    from repro.runtime.fleet import _BatchStepper

    plant = system.plant
    n, m = plant.n_states, plant.n_outputs
    N, T = n_instances, horizon
    rng = ensure_rng(PROBE_SEED)
    X0 = rng.standard_normal((N, n))
    Xhat0 = rng.standard_normal((N, n))
    V = rng.standard_normal((T, N, m))
    W = rng.standard_normal((T, N, n))

    # Mirror the engine's width-1 padding: a lone instance rides a zero
    # discard column, exactly as it would in a real fused run.
    pad = N == 1
    cols = 2 if pad else N

    def carve(block: np.ndarray) -> np.ndarray:
        out = np.zeros((block.shape[1], cols))
        out[:, :N] = block.T
        return out

    legacy = _BatchStepper(system, X0.copy(), Xhat0.copy())
    fused = FusedStepper(system, carve(X0), carve(Xhat0))
    for k in range(T):
        y1, ya1, r1 = legacy.step(V[k], W[k], None)
        y2, ya2, r2 = fused.step(carve(V[k]), carve(W[k]), None)
        if not (
            np.array_equal(y1, y2[:, :N].T)
            and np.array_equal(ya1, ya2[:, :N].T)
            and np.array_equal(r1, r2[:, :N].T)
            and np.array_equal(legacy.X, fused.X[:, :N].T)
            and np.array_equal(legacy.Xhat, fused.Xhat[:, :N].T)
            and np.array_equal(legacy.U, fused.U[:, :N].T)
        ):
            return False
    return True


def probe_fused_equivalence(system: ClosedLoopSystem, n_instances: int = 64) -> bool:
    """Decide (and cache) whether the fused path is safe for ``system``.

    The fused step is algebraically identical to the legacy stepper, but
    bit-identity additionally requires the BLAS GEMM to produce the exact
    same floats in the fused (transposed, block-stacked) orientation.  That
    is a property of the installed BLAS, the concrete matrix shapes *and the
    fleet width* (kernel dispatch can differ per operand width), so it is
    checked *empirically* at the actual width: a short synthetic run (fixed
    seed, data-independent of the real fleet, ``n_instances`` columns wide)
    compares the fused stepper against the legacy stepper with
    ``np.array_equal`` on every step's outputs and states.

    Returns ``True`` when every probed quantity matched; the fused engine
    then uses the fused stepper, otherwise it falls back to the legacy
    stepper (still bit-identical).  Verdicts are cached per
    ``(system matrices, width)``.
    """
    key = _system_key(system) + (int(n_instances),)
    cached = _PROBE_CACHE.get(key)
    if cached is None:
        cached = _PROBE_CACHE[key] = _probe(system, int(n_instances), PROBE_HORIZON)
    return cached


__all__ = ["FusedStepper", "probe_fused_equivalence", "PROBE_SEED"]
