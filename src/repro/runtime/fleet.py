"""Vectorized fleet simulation: N monitored closed loops stepped together.

This is the execution core of the runtime subsystem.  All per-instance state
— plant state, estimator state, control input, noise, attacks, detector state
— is shaped ``(N, ...)`` and advanced one sampling instance at a time with
batched numpy, so a fleet of thousands of plant instances steps at the cost
of a handful of matrix products per sample instead of a Python loop per
instance.

Three layers build on the shared :class:`_BatchStepper`:

* :func:`batch_simulate` — run ``N`` closed loops to completion and record
  every trajectory (:class:`FleetTrace`); the vectorized replacement for
  calling :func:`~repro.lti.simulate.simulate_closed_loop` in a loop, used by
  the FAR study's benign-population generation.
* :class:`ScheduledAttack` — one entry of the fleet's attack schedule: an
  :class:`~repro.attacks.templates.AttackTemplate` injected into a subset of
  the fleet from a given step onward.
* :class:`FleetSimulator` — the fleet run: draws every instance's noise
  streams up front (:func:`draw_streams`, shared with the FAR study), steps
  the fleet, feeds residues/measurements to the deployed online detectors,
  pushes :class:`~repro.runtime.events.AlarmEvent` batches into the sinks,
  and aggregates a :class:`~repro.runtime.report.FleetReport`.

:class:`FleetSimulator` has one run body.  Its ``engine`` name, resolved
through :data:`repro.registry.ENGINES`, only chooses the stepper that body
drives: ``"legacy"`` (:class:`_BatchStepper`, the default) or ``"fused"``
(the block-GEMM stepper of :mod:`repro.runtime.kernel`, bit-identical and
gated by a differential probe).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.attacks.templates import AttackTemplate
from repro.lti.simulate import ClosedLoopSystem, SimulationTrace
from repro.noise.models import GaussianNoise, NoiseModel
from repro.obs.clock import Stopwatch
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import span
from repro.registry import ENGINES
from repro.runtime.batch import BatchDetector, make_batched
from repro.runtime.events import AlarmEvent, EventSink
from repro.runtime.report import FleetReport, build_detector_stats
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import ValidationError, check_positive


class _BatchStepper:
    """Advances ``N`` instances of one closed loop with batched numpy.

    Implements exactly the update order of
    :func:`~repro.lti.simulate.simulate_closed_loop` (the paper's
    Algorithm 1 trace semantics), with every quantity carrying a leading
    instance axis.
    """

    def __init__(self, system: ClosedLoopSystem, x0: np.ndarray, xhat0: np.ndarray):
        plant = system.plant
        self.system = system
        self.n_instances = x0.shape[0]
        self._A_T = plant.A.T.copy()
        self._B_T = plant.B.T.copy()
        self._C_T = plant.C.T.copy()
        self._D_T = plant.D.T.copy()
        self._L_T = system.L.T.copy()
        self._K_T = system.K.T.copy()
        self._feedforward = system.feedforward @ system.reference
        self.X = np.array(x0, dtype=float)
        self.Xhat = np.array(xhat0, dtype=float)
        self.U = np.zeros((self.n_instances, plant.n_inputs))

    def step(
        self,
        measurement_noise: np.ndarray,
        process_noise: np.ndarray | None,
        attack: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One closed-loop iteration for the whole fleet.

        Returns ``(y_true, y_attacked, residues)``, each ``(N, m)``; the
        internal plant/estimator/input state advances to the next sample.
        """
        output_feed = self.U @ self._D_T
        y_true = self.X @ self._C_T + output_feed + measurement_noise
        y_attacked = y_true if attack is None else y_true + attack
        residues = y_attacked - (self.Xhat @ self._C_T + output_feed)

        input_feed = self.U @ self._B_T
        self.X = self.X @ self._A_T + input_feed
        if process_noise is not None:
            self.X += process_noise
        self.Xhat = self.Xhat @ self._A_T + input_feed + residues @ self._L_T
        self.U = -(self.Xhat @ self._K_T) + self._feedforward
        return y_true, y_attacked, residues


def _as_instance_states(values: np.ndarray | None, n_instances: int, n: int, label: str) -> np.ndarray:
    """Broadcast a ``(n,)`` vector or validate an ``(N, n)`` matrix of states."""
    if values is None:
        return np.zeros((n_instances, n))
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        if values.size != n:
            raise ValidationError(f"{label} must have length {n}, got {values.size}")
        return np.tile(values, (n_instances, 1))
    if values.shape != (n_instances, n):
        raise ValidationError(
            f"{label} must have shape {(n_instances, n)}, got {values.shape}"
        )
    return values.copy()


def _check_noise_block(
    values: np.ndarray | None, shape: tuple[int, int, int], label: str
) -> np.ndarray:
    if values is None:
        return np.zeros(shape)
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ValidationError(f"{label} must have shape {shape}, got {values.shape}")
    return values


def draw_streams(
    plant,
    rngs,
    horizon: int,
    x0: np.ndarray,
    *,
    noise_model: NoiseModel | None = None,
    include_process_noise: bool = False,
    x0_spread: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Per-instance noise and initial-state draws, one generator per instance.

    Instance ``i``'s generator ``rngs[i]`` draws its measurement noise (one
    ``noise_model.sample`` call; zeros without a model), then its process
    noise, then its initial-state offset inside ``x0[i] ± x0_spread``.
    Process noise is drawn only when ``include_process_noise`` is set *and*
    ``plant.Q_w`` has a nonzero entry, the scalar simulator's rule.  Fleet
    runs and the FAR study's benign population both draw through here, so
    the same seed gives them the same randomness.

    Returns ``(V, W, X0)``: ``(N, T, m)`` measurement noise, ``(N, T, n)``
    process noise or ``None``, and the ``(N, n)`` initial states (a copy of
    ``x0``).
    """
    T, N = int(horizon), len(rngs)
    n, m = plant.n_states, plant.n_outputs
    V = np.zeros((N, T, m))
    W = None
    draw_process = (
        include_process_noise and plant.Q_w is not None and bool(np.any(plant.Q_w))
    )
    if draw_process:
        W = np.zeros((N, T, n))
    X0 = np.array(x0, dtype=float)
    for i, rng in enumerate(rngs):
        if noise_model is not None:
            V[i] = noise_model.sample(T, rng)
        if draw_process:
            W[i] = rng.multivariate_normal(np.zeros(n), plant.Q_w, size=T)
        if x0_spread is not None:
            offset = rng.uniform(-1.0, 1.0, size=n)
            X0[i] = X0[i] + offset * x0_spread
    return V, W, X0


@dataclass
class FleetTrace:
    """Recorded trajectories of a whole fleet (instance-major layout).

    Every array of :class:`~repro.lti.simulate.SimulationTrace` appears here
    with a leading instance axis: ``states`` is ``(N, T+1, n)``, ``residues``
    is ``(N, T, m)``, and so on.  :meth:`instance` slices one instance back
    out as an ordinary :class:`SimulationTrace`.
    """

    states: np.ndarray
    estimates: np.ndarray
    inputs: np.ndarray
    measurements: np.ndarray
    true_outputs: np.ndarray
    residues: np.ndarray
    attacks: np.ndarray
    process_noise: np.ndarray
    measurement_noise: np.ndarray
    dt: float = 1.0
    metadata: dict = field(default_factory=dict)

    @property
    def n_instances(self) -> int:
        """Fleet size ``N``."""
        return self.residues.shape[0]

    @property
    def horizon(self) -> int:
        """Number of closed-loop iterations ``T``."""
        return self.residues.shape[1]

    def instance(self, index: int) -> SimulationTrace:
        """The trajectory of one fleet instance as a :class:`SimulationTrace`."""
        return SimulationTrace(
            states=self.states[index],
            estimates=self.estimates[index],
            inputs=self.inputs[index],
            measurements=self.measurements[index],
            true_outputs=self.true_outputs[index],
            residues=self.residues[index],
            attacks=self.attacks[index],
            process_noise=self.process_noise[index],
            measurement_noise=self.measurement_noise[index],
            dt=self.dt,
            metadata=dict(self.metadata),
        )

    def __iter__(self):
        return (self.instance(i) for i in range(self.n_instances))


def batch_simulate(
    system: ClosedLoopSystem,
    horizon: int,
    x0: np.ndarray | None = None,
    xhat0: np.ndarray | None = None,
    measurement_noise: np.ndarray | None = None,
    process_noise: np.ndarray | None = None,
    attacks: np.ndarray | None = None,
    n_instances: int | None = None,
) -> FleetTrace:
    """Simulate ``N`` instances of one closed loop in batched numpy.

    Parameters
    ----------
    system:
        The closed loop to replicate across the fleet.
    horizon:
        Number of closed-loop iterations ``T``.
    x0 / xhat0:
        Initial plant/estimator states: either one ``(n,)`` vector shared by
        the fleet or an ``(N, n)`` matrix of per-instance states.  Default
        zero, as in the sequential simulator.
    measurement_noise / process_noise / attacks:
        Optional per-instance sequences of shape ``(N, T, m)`` / ``(N, T, n)``
        / ``(N, T, m)``; ``None`` means zero.
    n_instances:
        Fleet size; only needed when every per-instance argument is ``None``.

    Returns
    -------
    FleetTrace
        All ``N`` trajectories; ``trace.instance(i)`` is sample-for-sample
        the trace :func:`~repro.lti.simulate.simulate_closed_loop` produces
        for the same inputs.
    """
    plant = system.plant
    T = int(check_positive("horizon", horizon))
    n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs

    for candidate in (measurement_noise, process_noise, attacks):
        if candidate is not None:
            inferred = np.asarray(candidate).shape[0]
            if n_instances is not None and n_instances != inferred:
                raise ValidationError(
                    f"n_instances={n_instances} conflicts with a per-instance "
                    f"argument sized for {inferred} instances"
                )
            n_instances = inferred
    if n_instances is None:
        x0_arr = None if x0 is None else np.asarray(x0, dtype=float)
        n_instances = x0_arr.shape[0] if x0_arr is not None and x0_arr.ndim == 2 else 1
    N = int(check_positive("n_instances", n_instances))

    X0 = _as_instance_states(x0, N, n, "x0")
    Xhat0 = _as_instance_states(xhat0, N, n, "xhat0")
    V = _check_noise_block(measurement_noise, (N, T, m), "measurement_noise")
    W = _check_noise_block(process_noise, (N, T, n), "process_noise")
    A = _check_noise_block(attacks, (N, T, m), "attacks")
    has_process_noise = process_noise is not None
    has_attack = attacks is not None

    stepper = _BatchStepper(system, X0, Xhat0)
    states = np.zeros((N, T + 1, n))
    estimates = np.zeros((N, T + 1, n))
    inputs = np.zeros((N, T + 1, p))
    measurements = np.zeros((N, T, m))
    true_outputs = np.zeros((N, T, m))
    residues = np.zeros((N, T, m))

    states[:, 0] = stepper.X
    estimates[:, 0] = stepper.Xhat
    inputs[:, 0] = stepper.U

    for k in range(T):
        y_true, y_attacked, z = stepper.step(
            V[:, k],
            W[:, k] if has_process_noise else None,
            A[:, k] if has_attack else None,
        )
        true_outputs[:, k] = y_true
        measurements[:, k] = y_attacked
        residues[:, k] = z
        states[:, k + 1] = stepper.X
        estimates[:, k + 1] = stepper.Xhat
        inputs[:, k + 1] = stepper.U

    return FleetTrace(
        states=states,
        estimates=estimates,
        inputs=inputs,
        measurements=measurements,
        true_outputs=true_outputs,
        residues=residues,
        attacks=A,
        process_noise=W,
        measurement_noise=V,
        dt=system.dt,
        metadata={"system": system.name},
    )


@dataclass(frozen=True)
class ScheduledAttack:
    """One entry of a fleet's attack schedule.

    Parameters
    ----------
    template:
        The parametric attack generator to materialise.
    start:
        Fleet step (0-based) at which the injection begins; the template is
        generated over the remaining ``horizon - start`` samples.
    instances:
        Explicit fleet instance ids to attack.  Mutually exclusive with
        ``fraction``; when both are ``None`` the whole fleet is attacked.
    fraction:
        Attack a random subset of this size (drawn once, reproducibly, from
        the fleet's seed).
    label:
        Schedule entry label used in report metadata.
    """

    template: AttackTemplate
    start: int = 0
    instances: tuple[int, ...] | None = None
    fraction: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if int(self.start) < 0:
            raise ValidationError("attack start must be non-negative")
        object.__setattr__(self, "start", int(self.start))
        if self.instances is not None and self.fraction is not None:
            raise ValidationError("give either explicit instances or a fraction, not both")
        if self.instances is not None:
            object.__setattr__(
                self, "instances", tuple(sorted(set(int(i) for i in self.instances)))
            )
        if self.fraction is not None:
            fraction = float(self.fraction)
            if not 0.0 < fraction <= 1.0:
                raise ValidationError("attack fraction must be in (0, 1]")
            object.__setattr__(self, "fraction", fraction)

    def resolve_instances(self, n_instances: int, rng: np.random.Generator) -> np.ndarray:
        """The concrete fleet instance ids this entry targets."""
        if self.instances is not None:
            indices = np.asarray(self.instances, dtype=int)
            if indices.size and (indices.min() < 0 or indices.max() >= n_instances):
                raise ValidationError(
                    f"attack instances out of range [0, {n_instances})"
                )
            return indices
        if self.fraction is not None:
            count = max(1, int(round(self.fraction * n_instances)))
            return np.sort(rng.choice(n_instances, size=count, replace=False))
        return np.arange(n_instances)

    def materialize(self, horizon: int, n_outputs: int) -> np.ndarray:
        """The ``(T, m)`` injection sequence this entry adds to its targets."""
        values = np.zeros((horizon, n_outputs))
        if self.start < horizon:
            generated = self.template.generate(horizon - self.start, n_outputs)
            values[self.start :] = generated.values
        return values


class FleetSimulator:
    """Steps ``N`` monitored plant instances through the horizon together.

    Parameters
    ----------
    system:
        The closed loop replicated across the fleet.
    n_instances:
        Fleet size ``N``.
    horizon:
        Number of sampling instances to step.
    detectors:
        Label → detector mapping.  Values may be anything
        :func:`~repro.runtime.batch.make_batched` accepts: synthesized
        :class:`~repro.detectors.threshold.ThresholdVector` objects, offline
        residue / CUSUM / chi-square detectors, plant monitors, or online
        wrappers.
    noise_model:
        Per-instance measurement-noise model; ``None`` draws Gaussian noise
        from the plant's ``R_v`` (zeros when the plant is noiseless).
    include_process_noise:
        Draw per-instance process noise from the plant's ``Q_w``.
    x0 / xhat0:
        Initial plant/estimator state shared by the fleet (``(n,)``) or per
        instance (``(N, n)``).
    x0_spread:
        Optional per-state half-widths of a uniform box around ``x0``; each
        instance draws its own initial state from the box.
    attacks:
        The attack schedule (any iterable of :class:`ScheduledAttack`).
    sinks:
        Event sinks receiving :class:`~repro.runtime.events.AlarmEvent`
        batches each step.
    seed:
        Seed of the per-instance noise streams and the schedule's subset
        draws.
    record_traces:
        Keep the full :class:`FleetTrace` on :attr:`trace` after :meth:`run`
        (off by default).  Without it a run still holds the noise drawn up
        front (``(N, T, m)`` measurement noise, plus ``(N, T, n)`` process
        noise when drawn), but only ``(N, ·)`` per-step state beyond that.
    metrics:
        Telemetry wiring.  ``None`` (default) records into the process-wide
        registry from :func:`repro.obs.metrics.get_registry` — which is
        disabled by default, so the only hot-path cost is a no-op counter
        call on steps that alarm.  ``False`` compiles the instrumentation
        out entirely (the baseline of the overhead benchmark).  A
        :class:`~repro.obs.metrics.MetricsRegistry` instance records into
        that registry regardless of the global flag.
    scraper:
        Optional scrape subscription: anything with the
        :class:`~repro.obs.export.PeriodicScraper` interface.
        ``maybe_scrape()`` is called once per fleet step and ``scrape()``
        once at the end of :meth:`run`, so a scraper keeps an exposition
        file fresh during long runs — and a
        :class:`~repro.obs.watch.HealthWatcher` passed here watches the
        run's live gauge/counter streams for regressions.
    engine:
        Execution engine name from :data:`repro.registry.ENGINES`; it
        chooses the stepper of the one run body: ``"legacy"`` (default,
        :class:`_BatchStepper`) or ``"fused"`` (the block-GEMM stepper,
        bit-identical to it).
    """

    def __init__(
        self,
        system: ClosedLoopSystem,
        n_instances: int,
        horizon: int,
        *,
        detectors: Mapping[str, object] | None = None,
        noise_model: NoiseModel | None = None,
        include_process_noise: bool = False,
        x0: np.ndarray | None = None,
        xhat0: np.ndarray | None = None,
        x0_spread: np.ndarray | None = None,
        attacks: Sequence[ScheduledAttack] = (),
        sinks: Sequence[EventSink] = (),
        seed: int | None = 0,
        record_traces: bool = False,
        metrics: MetricsRegistry | None | bool = None,
        scraper=None,
        engine: str = "legacy",
    ):
        self.system = system
        self.metrics = metrics
        self.scraper = scraper
        self.engine = str(engine)
        self.n_instances = int(check_positive("n_instances", n_instances))
        self.horizon = int(check_positive("horizon", horizon))
        self.include_process_noise = bool(include_process_noise)
        self.seed = seed
        self.record_traces = bool(record_traces)
        self.sinks = list(sinks)
        self.trace: FleetTrace | None = None

        plant = system.plant
        if noise_model is None and plant.R_v is not None and np.any(plant.R_v):
            noise_model = GaussianNoise(covariance=plant.R_v)
        if noise_model is not None and noise_model.dimension != plant.n_outputs:
            raise ValidationError(
                f"noise model dimension {noise_model.dimension} does not match "
                f"the plant's {plant.n_outputs} outputs"
            )
        self.noise_model = noise_model

        n = plant.n_states
        # Validated (and broadcast from (n,) to (N, n)) up front so shape
        # errors surface at construction, not mid-run.
        self._x0_matrix = _as_instance_states(x0, self.n_instances, n, "x0")
        self.x0 = self._x0_matrix
        self.xhat0 = _as_instance_states(xhat0, self.n_instances, n, "xhat0")
        if x0_spread is not None:
            x0_spread = np.asarray(x0_spread, dtype=float).reshape(-1)
            if x0_spread.size != n:
                raise ValidationError("x0_spread must have one entry per plant state")
            if np.any(x0_spread < 0):
                raise ValidationError("x0_spread must be non-negative")
        self.x0_spread = x0_spread

        self.attacks = list(attacks)
        for entry in self.attacks:
            if not isinstance(entry, ScheduledAttack):
                raise ValidationError("attacks must be ScheduledAttack entries")

        self.detectors: dict[str, BatchDetector] = {}
        for label, detector in (detectors or {}).items():
            self.detectors[str(label)] = make_batched(
                detector, self.n_instances, dt=system.dt
            )

    # ------------------------------------------------------------------
    def _resolve_schedule(self, rng) -> list[tuple[np.ndarray, np.ndarray]]:
        """Materialise every schedule entry: (instance ids, (T, m) values)."""
        plant = self.system.plant
        resolved = []
        for entry in self.attacks:
            indices = entry.resolve_instances(self.n_instances, rng)
            values = entry.materialize(self.horizon, plant.n_outputs)
            resolved.append((indices, values))
        return resolved

    # ------------------------------------------------------------------
    def run(self) -> FleetReport:
        """Step the whole fleet through the horizon and aggregate the report."""
        engine = ENGINES.create(self.engine)
        if self.metrics is False:
            return self._run(engine)
        with span(
            "fleet.run",
            system=self.system.name,
            n_instances=self.n_instances,
            horizon=self.horizon,
            engine=self.engine,
        ):
            return self._run(engine)

    def _run(self, engine) -> FleetReport:
        """The run body; ``engine`` only chooses the closed-loop stepper."""
        plant = self.system.plant
        T, N = self.horizon, self.n_instances
        n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs

        rngs = spawn_rngs(self.seed, N + 1)
        scheduler_rng = ensure_rng(rngs[-1])
        V, W, X0 = draw_streams(
            plant,
            rngs[:N],
            T,
            self._x0_matrix,
            noise_model=self.noise_model,
            include_process_noise=self.include_process_noise,
            x0_spread=self.x0_spread,
        )
        schedule = self._resolve_schedule(scheduler_rng)

        attacked_mask = np.zeros(N, dtype=bool)
        attack_start = np.full(N, T, dtype=int)
        for (indices, values), entry in zip(schedule, self.attacks):
            if indices.size and np.any(values):
                attacked_mask[indices] = True
                attack_start[indices] = np.minimum(attack_start[indices], entry.start)

        # Instruments are resolved once, outside the loop; ``metrics=False``
        # removes them entirely (the overhead benchmark's baseline), and the
        # default disabled registry reduces each surviving call to one
        # attribute check.  The only per-step call sits on the alarm branch,
        # which is already off the fast no-alarm path.
        registry = None
        alarms_counter = None
        if self.metrics is not False:
            registry = (
                self.metrics
                if isinstance(self.metrics, MetricsRegistry)
                else get_registry()
            )
            alarms_counter = registry.counter(
                "fleet_alarms_total", help="Detector alarms fired during fleet runs."
            )

        stepper, engine_metadata = engine.make_stepper(
            self.system, X0, self.xhat0.copy(), registry
        )
        for detector in self.detectors.values():
            detector.reset()

        first_alarm = {label: np.full(N, -1, dtype=int) for label in self.detectors}
        first_detection = {label: np.full(N, -1, dtype=int) for label in self.detectors}
        alarm_counts = {label: 0 for label in self.detectors}
        benign_alarm_steps = {label: 0 for label in self.detectors}
        benign_mask = ~attacked_mask

        recorder = None
        if self.record_traces:
            recorder = {
                "states": np.zeros((N, T + 1, n)),
                "estimates": np.zeros((N, T + 1, n)),
                "inputs": np.zeros((N, T + 1, p)),
                "measurements": np.zeros((N, T, m)),
                "true_outputs": np.zeros((N, T, m)),
                "residues": np.zeros((N, T, m)),
                "attacks": np.zeros((N, T, m)),
            }
            recorder["states"][:, 0] = stepper.X
            recorder["estimates"][:, 0] = stepper.Xhat
            recorder["inputs"][:, 0] = stepper.U

        started = Stopwatch()
        for k in range(T):
            attack_k = None
            if schedule:
                attack_k = np.zeros((N, m))
                for indices, values in schedule:
                    attack_k[indices] += values[k]
            y_true, y_attacked, residues = stepper.step(
                V[:, k], None if W is None else W[:, k], attack_k
            )

            for label, detector in self.detectors.items():
                values = residues if detector.consumes == "residues" else y_attacked
                alarms = detector.step(values)
                fired = int(np.count_nonzero(alarms))
                if not fired:
                    continue
                alarm_counts[label] += fired
                if alarms_counter is not None:
                    alarms_counter.inc(fired, detector=label)
                benign_alarm_steps[label] += int(np.count_nonzero(alarms & benign_mask))
                newly = alarms & (first_alarm[label] < 0)
                first_alarm[label][newly] = k
                detected = (
                    alarms
                    & attacked_mask
                    & (k >= attack_start)
                    & (first_detection[label] < 0)
                )
                first_detection[label][detected] = k
                if self.sinks:
                    events = [
                        AlarmEvent(int(i), k, label, first=bool(newly[i]))
                        for i in np.flatnonzero(alarms)
                    ]
                    for sink in self.sinks:
                        sink.emit(events)

            if recorder is not None:
                recorder["true_outputs"][:, k] = y_true
                recorder["measurements"][:, k] = y_attacked
                recorder["residues"][:, k] = residues
                if attack_k is not None:
                    recorder["attacks"][:, k] = attack_k
                recorder["states"][:, k + 1] = stepper.X
                recorder["estimates"][:, k + 1] = stepper.Xhat
                recorder["inputs"][:, k + 1] = stepper.U

            if self.scraper is not None:
                self.scraper.maybe_scrape()
        elapsed = started.elapsed()

        if registry is not None:
            registry.counter(
                "fleet_steps_total", help="Instance-steps executed by fleet runs."
            ).inc(N * T)
            registry.counter(
                "fleet_runs_total", help="Completed FleetSimulator.run calls."
            ).inc()
            registry.histogram(
                "fleet_run_seconds", help="Wall time per FleetSimulator.run call."
            ).observe(elapsed, system=self.system.name)
            if elapsed > 0:
                registry.gauge(
                    "fleet_throughput_steps_per_s",
                    help="Instance-steps per second of the last fleet run.",
                ).set(N * T / elapsed, system=self.system.name)

        if self.scraper is not None:
            self.scraper.scrape()

        if recorder is not None:
            self.trace = FleetTrace(
                **recorder,
                process_noise=W if W is not None else np.zeros((N, T, n)),
                measurement_noise=V,
                dt=self.system.dt,
                metadata={"system": self.system.name},
            )

        report = FleetReport(
            n_instances=N,
            horizon=T,
            n_attacked=int(np.sum(attacked_mask)),
            elapsed_seconds=elapsed,
            metadata={
                "system": self.system.name,
                "seed": self.seed,
                **engine_metadata,
                "attacks": [
                    {
                        "label": entry.label or f"attack-{index}",
                        "start": entry.start,
                        "instances": int(indices.size),
                        "template": type(entry.template).__name__,
                    }
                    for index, ((indices, _), entry) in enumerate(
                        zip(schedule, self.attacks)
                    )
                ],
            },
        )
        for label in self.detectors:
            report.detectors[label] = build_detector_stats(
                label=label,
                first_alarm=first_alarm[label],
                first_detection=first_detection[label],
                alarm_count=alarm_counts[label],
                benign_alarm_steps=benign_alarm_steps[label],
                attacked_mask=attacked_mask,
                attack_start=attack_start,
                horizon=T,
            )
        return report


__all__ = [
    "FleetTrace",
    "ScheduledAttack",
    "FleetSimulator",
    "batch_simulate",
    "draw_streams",
]
