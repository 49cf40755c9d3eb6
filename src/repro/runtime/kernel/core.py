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

:class:`FusedStepper` takes the legacy stepper's instance-major ``(N, ·)``
interface and transposes at its boundary, so the one fleet run body
(:meth:`repro.runtime.fleet.FleetSimulator.run`) drives either stepper.
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
    """Advance ``N`` fleet instances with a single float64 GEMM per step.

    Takes the interface of the legacy
    :class:`~repro.runtime.fleet._BatchStepper`: initial states and every
    per-step block are instance-major ``(N, ·)``, :meth:`step` returns fresh
    C-contiguous ``(N, m)`` blocks, and :attr:`X` / :attr:`Xhat` / :attr:`U`
    read as ``(N, n)`` / ``(N, n)`` / ``(N, p)``.  Internally the stacked
    state is kept transposed — instances are columns, ``Z`` is
    ``(2n + p, N)`` — so each step is one ``(q, 2n + p) @ (2n + p, N)``
    product.

    Parameters
    ----------
    system:
        The closed loop replicated across the fleet.
    x0 / xhat0:
        Initial plant/estimator states, ``(N, n)``; copied into the stacked
        state.
    """

    def __init__(self, system: ClosedLoopSystem, x0: np.ndarray, xhat0: np.ndarray):
        plant = system.plant
        n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs
        N = x0.shape[0]
        self.system = system
        self.n_instances = N
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

        Z = np.zeros((s, N))
        Z[0:n] = x0.T
        Z[n : 2 * n] = xhat0.T
        self._Z = Z
        self._X = Z[0:n]
        self._Xhat = Z[n : 2 * n]
        self._U = Z[2 * n :]

        P = np.empty((q, N))
        self._P = P
        # X and Xhat both take ``+ B u``: as one ``(2, n, N)`` add over the
        # adjacent row pairs (A x, A xhat) of P and (x, xhat) of Z.
        self._AX_AXhat = P[self._ax0 : self._ax0 + 2 * n].reshape(2, n, N)
        self._BU = P[self._bu0 : self._bu0 + n]
        self._X_Xhat = Z[0 : 2 * n].reshape(2, n, N)
        self._yhat = np.empty((m, N)) if self._has_of else None
        self._resL = np.empty((n, N))
        self._KX = np.empty((p, N))

    @property
    def X(self) -> np.ndarray:
        """Plant states, ``(N, n)`` (a view: it moves with the next step)."""
        return self._X.T

    @property
    def Xhat(self) -> np.ndarray:
        """Estimator states, ``(N, n)`` (a view: it moves with the next step)."""
        return self._Xhat.T

    @property
    def U(self) -> np.ndarray:
        """Control inputs, ``(N, p)`` (a view: it moves with the next step)."""
        return self._U.T

    def step(
        self,
        measurement_noise: np.ndarray,
        process_noise: np.ndarray | None,
        attack: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One fused closed-loop iteration for all ``N`` instances.

        Inputs are ``(N, m)`` / ``(N, n)`` / ``(N, m)`` blocks (any strides).
        Returns ``(y_true, y_attacked, residues)`` as fresh C-contiguous
        ``(N, m)`` arrays; ``y_attacked`` is ``y_true`` when there is no
        attack, as in the legacy stepper.
        """
        m, N = self._m, self.n_instances
        P = self._P
        # Outputs go into fresh (m, N) arrays: with one output their
        # transpose already is the C-contiguous (N, 1) block handed out.
        y = np.empty((m, N))
        res = np.empty((m, N))
        np.matmul(self._Mq, self._Z, out=P)
        if self._has_of:
            of = P[self._of0 : self._of0 + m]
            np.add(P[0:m], of, out=y)
            y += measurement_noise.T
        else:
            np.add(P[0:m], measurement_noise.T, out=y)
        ya = y if attack is None else y + attack.T
        if self._has_of:
            np.add(P[m : 2 * m], of, out=self._yhat)
            np.subtract(ya, self._yhat, out=res)
        else:
            np.subtract(ya, P[m : 2 * m], out=res)

        np.add(self._AX_AXhat, self._BU, out=self._X_Xhat)
        if process_noise is not None:
            self._X += process_noise.T
        if m == 1:
            # With one output the correction L @ res is a rank-one product:
            # one multiply per entry, no sum, so broadcasting gives the
            # floats a k=1 GEMM gives (the probe checks it) at a quarter of
            # the GEMM call's cost.
            np.multiply(self._L, res, out=self._resL)
        else:
            np.matmul(self._L, res, out=self._resL)
        self._Xhat += self._resL
        np.matmul(self._K, self._Xhat, out=self._KX)
        np.subtract(self._ff, self._KX, out=self._U)

        y_true = np.ascontiguousarray(y.T)
        y_attacked = y_true if attack is None else np.ascontiguousarray(ya.T)
        return y_true, y_attacked, np.ascontiguousarray(res.T)


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
    """Differential warm-up: fused vs legacy stepper at the run's width, bitwise."""
    from repro.runtime.fleet import _BatchStepper

    plant = system.plant
    n, m = plant.n_states, plant.n_outputs
    N, T = n_instances, horizon
    rng = ensure_rng(PROBE_SEED)
    X0 = rng.standard_normal((N, n))
    Xhat0 = rng.standard_normal((N, n))
    V = rng.standard_normal((T, N, m))
    W = rng.standard_normal((T, N, n))

    legacy = _BatchStepper(system, X0.copy(), Xhat0.copy())
    fused = FusedStepper(system, X0, Xhat0)
    for k in range(T):
        outputs = zip(legacy.step(V[k], W[k], None), fused.step(V[k], W[k], None))
        if not (
            all(np.array_equal(left, right) for left, right in outputs)
            and np.array_equal(legacy.X, fused.X)
            and np.array_equal(legacy.Xhat, fused.Xhat)
            and np.array_equal(legacy.U, fused.U)
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
