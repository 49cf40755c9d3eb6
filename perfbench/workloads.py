"""The four benchmark workloads, each driven through public entry points only.

Every workload is a closed loop from one thread: the benchmark issues one
operation, waits for it to return, then issues the next.  A workload object
is built from the workload seed and offers

* ``setup()`` — what a user pays once (case build, bank or service
  construction, attach, warm-up); timed and repeated by the runner;
* ``op(index)`` — one operation, returning an :class:`Outcome` that carries
  its own latencies (the timed region excludes every correctness check);
* ``check(outcome)`` / ``final_check()`` — correctness checks, run outside
  the timed region; each returns a list of failure messages.

Operation ``i`` of a run draws its randomness from a seed derived from
``(workload seed, i)``, so a traced replay of the same operations sees the
same inputs.  ``tiny=True`` shrinks the sizes for the benchmark's own tests.
"""

from __future__ import annotations

import json
import shutil
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.core.session import SynthesisSession
from repro.detectors.cusum import CusumDetector
from repro.explore import Explorer, SearchSpace
from repro.runtime.events import InMemorySink
from repro.utils.results import SolveStatus

from perfbench.tracing import CallCounter

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def derived_seed(seed: int, index: int) -> int:
    """A 32-bit seed for operation ``index`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one operation did, as the runner aggregates it.

    ``latencies_s`` are the operation latencies the end-to-end percentiles
    are taken over; ``items`` is the work completed in ``busy_s`` seconds of
    wall clock; ``attempted``/``failed`` count the workload's operations in
    the sense of its ``failed`` definition.
    """

    latencies_s: list[float]
    items: float
    busy_s: float
    attempted: int
    failed: int = 0
    data: dict = field(default_factory=dict)


class Workload:
    """Defaults shared by the workloads."""

    name = ""
    #: The runner's span recorder during a traced phase, else None.
    recorder = None

    def final_check(self) -> list[str]:
        return []

    def span(self, name: str):
        """A ``bench.*`` span while traced, else nothing."""
        return nullcontext() if self.recorder is None else self.recorder.span(name)


# ----------------------------------------------------------------------
# paper-vsc
# ----------------------------------------------------------------------
class PaperVsc(Workload):
    """``run_pipeline`` on the VSC case study: the paper's own experiment.

    Pivot, stepwise and static synthesis, relaxation with ``floor=1.0`` and
    a 1000-trace FAR study at the case's reproduction spread.  Few, large
    LPs: ``linprog`` dominates the wall clock.
    """

    name = "paper-vsc"
    #: FAR bands per study label: wide enough for any random stream, narrow
    #: enough that an always-alarming or never-alarming detector falls out.
    FAR_BANDS = {
        "pivot": (0.95, 1.0),
        "pivot:raw": (0.95, 1.0),
        "stepwise": (0.25, 0.5),
        "stepwise:raw": (0.95, 1.0),
        "static": (0.95, 1.0),
        "static:raw": (0.95, 1.0),
    }

    def __init__(self, seed: int, tiny: bool = False, work_dir: Path | None = None):
        self.seed = seed
        self.reference = json.loads((REFERENCE_DIR / "paper-vsc.json").read_text())
        self.certified: dict | None = None

    def setup(self) -> None:
        self.case = repro.get_case_study("vsc")
        self.problem = self.case.problem
        self.synthesis = repro.SynthesisConfig(relax={"floor": 1.0})
        # Warm-up: the first encode and LP solve of a process pay one-off
        # import and initialisation costs.
        SynthesisSession(self.problem).solve(None)

    def far_config(self, index: int):
        spread = self.case.extras["reproduction"]
        return repro.FARConfig(
            count=int(spread["far_count"]),
            seed=derived_seed(self.seed, index),
            noise_scale=float(spread["far_noise_scale"]),
            initial_state_spread=[float(v) for v in spread["far_initial_state_spread"]],
        )

    def op(self, index: int) -> Outcome:
        far = self.far_config(index)
        attempted = len(self.synthesis.algorithms)
        with CallCounter("repro.core.session", "SynthesisSession.solve") as solves:
            started = time.perf_counter()
            try:
                report = repro.run_pipeline(self.problem, self.synthesis, far)
            except Exception:  # a raised pipeline fails every algorithm it ran
                elapsed = time.perf_counter() - started
                return Outcome([elapsed], 0, elapsed, attempted, attempted,
                               data={"error": traceback.format_exc()})
            elapsed = time.perf_counter() - started
        failed = sum(
            result.status is SolveStatus.UNKNOWN for result in report.synthesis.values()
        )
        failed += attempted - len(report.synthesis)
        return Outcome(
            [elapsed], 1, elapsed, attempted, failed,
            data={"report": report, "solve_calls": solves.calls},
        )

    @staticmethod
    def summary(report, solve_calls: int) -> dict:
        """The exact outcome a run must reproduce (see ``reference/``)."""
        summary = {
            "vulnerability": report.vulnerability.status.value,
            "solve_calls": solve_calls,
            "synthesis": {},
            "relaxation": {},
        }
        for name, result in sorted(report.synthesis.items()):
            summary["synthesis"][name] = {
                "status": result.status.value,
                "rounds": result.rounds,
                "converged": result.converged,
                "threshold": [float(v) for v in result.threshold.values],
            }
        for name, result in sorted(report.relaxation.items()):
            summary["relaxation"][name] = {
                "rounds": result.rounds,
                "certified": result.certified,
                "threshold": [float(v) for v in result.threshold.values],
            }
        return summary

    @staticmethod
    def certified_vectors(report) -> dict:
        """Every vector the report claims admits no stealthy attack."""
        vectors = {}
        for name, result in report.synthesis.items():
            if result.converged and result.threshold is not None:
                vectors[name] = result.threshold
        for name, result in report.relaxation.items():
            if result.certified:
                vectors[name + ":relaxed"] = result.threshold
        return vectors

    def check(self, outcome: Outcome) -> list[str]:
        if "error" in outcome.data:
            return [f"paper-vsc: run_pipeline raised\n{outcome.data['error']}"]
        errors = []
        report = outcome.data["report"]
        summary = self.summary(report, outcome.data["solve_calls"])
        if summary != self.reference:
            errors.append("paper-vsc: thresholds/statuses/rounds/solve calls differ from reference")
        study = report.far_study
        for label, (low, high) in self.FAR_BANDS.items():
            rate = None if study is None else study.rates.get(label)
            if rate is None or not low <= rate <= high:
                errors.append(f"paper-vsc: FAR[{label}]={rate} outside [{low}, {high}]")
        if self.certified is None:
            self.certified = self.certified_vectors(report)
        return errors

    def final_check(self) -> list[str]:
        return recheck_certified(self.problem, self.certified or {})


def recheck_certified(problem, vectors: dict) -> list[str]:
    """Re-solve each certified vector in a fresh session: no attack may exist."""
    errors = []
    if not vectors:
        errors.append("paper-vsc: no certified vector to re-check")
    for label, threshold in sorted(vectors.items()):
        answer = SynthesisSession(problem).solve(threshold)
        if answer.status is not SolveStatus.UNSAT:
            errors.append(
                f"paper-vsc: certified vector {label!r} admits an attack in a fresh "
                f"session (status {answer.status.value})"
            )
    return errors


# ----------------------------------------------------------------------
# explore-sweep
# ----------------------------------------------------------------------
PLATEAU = tuple(round(0.05 + 0.05 * i, 4) for i in range(25))
TAIL = (1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


class ExploreSweep(Workload):
    """Adaptive-bisection exploration of the DC-motor noise-scale space.

    Each operation explores cold into a fresh store (timed), then re-runs
    warm against it (untimed, checked).  Many tiny LPs: per-call wrapper
    cost dominates.
    """

    name = "explore-sweep"

    def __init__(self, seed: int, tiny: bool = False, work_dir: Path | None = None):
        self.seed = seed
        self.work_dir = Path(work_dir) if work_dir is not None else Path.cwd()

    def space(self, seed: int, noise_scales=PLATEAU + TAIL, max_rounds: int = 100):
        return SearchSpace(
            case_studies=("dcmotor",),
            synthesizers=("stepwise",),
            horizons=(8,),
            min_thresholds=(0.02,),
            noise_scales=noise_scales,
            far_count=40,
            probe_instances=6,
            max_rounds=max_rounds,
            far_seed=seed,
            probe_seed=seed,
        )

    def setup(self) -> None:
        # Warm-up: one single-point exploration into a throwaway store.
        store = self.work_dir / "store-setup"
        shutil.rmtree(store, ignore_errors=True)
        space = self.space(self.seed, noise_scales=(1.0,), max_rounds=5)
        Explorer(space, "adaptive-bisection", store=store, workers=1).run()
        shutil.rmtree(store, ignore_errors=True)

    def op(self, index: int) -> Outcome:
        space = self.space(derived_seed(self.seed, index))
        store = self.work_dir / f"store-{index}"
        shutil.rmtree(store, ignore_errors=True)
        try:
            with CallCounter("repro.core.session", "SynthesisSession.solve") as solves:
                started = time.perf_counter()
                cold = Explorer(space, "adaptive-bisection", store=store, workers=1).run()
                elapsed = time.perf_counter() - started
                cold_calls = solves.take()
                with self.span("bench.explore_warm"):
                    warm = Explorer(space, "adaptive-bisection", store=store, workers=1).run()
                warm_calls = solves.take()
        finally:
            shutil.rmtree(store, ignore_errors=True)
        failed = sum(row.get("error") is not None for row in cold.rows)
        return Outcome(
            [elapsed], cold.stats["units_executed"], elapsed, len(cold.rows), failed,
            data={"cold": cold, "warm": warm, "cold_calls": cold_calls, "warm_calls": warm_calls},
        )

    def check(self, outcome: Outcome) -> list[str]:
        errors = []
        cold, warm = outcome.data["cold"], outcome.data["warm"]
        if outcome.data["cold_calls"] <= 0:
            errors.append("explore-sweep: the cold pass made no solver calls")
        if outcome.data["warm_calls"] != 0:
            errors.append(
                f"explore-sweep: warm re-run made {outcome.data['warm_calls']} solver calls"
            )
        if warm.stats["units_executed"] != 0:
            errors.append("explore-sweep: warm re-run executed units")
        if warm.summary_rows() != cold.summary_rows():
            errors.append("explore-sweep: warm rows differ from cold rows")
        if warm.front_signature() != cold.front_signature():
            errors.append("explore-sweep: warm front differs from cold front")
        return errors


# ----------------------------------------------------------------------
# fleet-deploy
# ----------------------------------------------------------------------
class FleetDeploy(Workload):
    """``run_fleet`` on DC-motor with static and CUSUM detectors under attack."""

    name = "fleet-deploy"
    #: Benign per-instance FAR bands: the benign envelope (+-1 sigma bounded
    #: noise) sits far below both detectors, so a working bank never alarms
    #: on a benign instance and a detector stuck high alarms on all of them.
    FAR_BANDS = {"static": (0.0, 0.01), "cusum": (0.0, 0.01)}

    def __init__(self, seed: int, tiny: bool = False, work_dir: Path | None = None):
        self.seed = seed
        self.n_instances = 400 if tiny else 4000
        self.horizon = 200

    def config(self, seed: int, n_instances: int):
        return repro.RuntimeConfig(
            n_instances=n_instances,
            horizon=self.horizon,
            static_thresholds={"static": 0.1},
            detectors={"cusum": {"name": "cusum", "options": {"bias": 0.02, "threshold": 0.5}}},
            attacks=[{"template": "bias", "options": {"bias": 0.5}, "fraction": 0.1, "start": 50}],
            include_mdc=False,
            seed=seed,
        )

    def setup(self) -> None:
        self.problem = repro.get_case_study("dcmotor").problem
        # Warm-up: a small deployment of the same bank.
        repro.run_fleet(self.config(self.seed, 100), self.problem)

    def op(self, index: int) -> Outcome:
        config = self.config(derived_seed(self.seed, index), self.n_instances)
        started = time.perf_counter()
        try:
            report = repro.run_fleet(config, self.problem)
        except Exception:  # a raised run is the workload's failed operation
            elapsed = time.perf_counter() - started
            return Outcome([elapsed], 0, elapsed, 1, 1, data={"error": traceback.format_exc()})
        elapsed = time.perf_counter() - started
        return Outcome(
            [elapsed], report.instance_steps, elapsed, 1, 0, data={"report": report}
        )

    def check(self, outcome: Outcome) -> list[str]:
        report = outcome.data.get("report")
        if report is None:
            return [f"fleet-deploy: run_fleet raised\n{outcome.data.get('error')}"]
        errors = []
        expected_steps = self.n_instances * self.horizon
        if report.instance_steps != expected_steps:
            errors.append(
                f"fleet-deploy: instance_steps {report.instance_steps} != {expected_steps}"
            )
        if report.n_attacked != round(0.1 * self.n_instances):
            errors.append(f"fleet-deploy: {report.n_attacked} attacked instances")
        if report.stats("static").detection_rate != 1.0:
            errors.append(
                f"fleet-deploy: static detection rate {report.stats('static').detection_rate}"
            )
        for label, (low, high) in self.FAR_BANDS.items():
            rate = report.stats(label).false_alarm_rate
            if rate is None or not low <= rate <= high:
                errors.append(f"fleet-deploy: benign FAR[{label}]={rate} outside [{low}, {high}]")
        return errors


# ----------------------------------------------------------------------
# serve-stream
# ----------------------------------------------------------------------
STATIC_VALUES = (0.1, 0.12)
CUSUM = {"bias": 0.02, "threshold": 0.5}
ATTACK_BIAS = 0.5
#: Share of a service lifetime before the attack starts.  Rounds with alarms
#: cost ~1.5x quiet ones; starting at 70% keeps the reported p90 among
#: alarming rounds, away from the step between the two kinds, where a
#: percentile would jump from run to run.
ATTACK_START = 0.7


class ServeStream(Workload):
    """A ``MonitorService`` fed one sample at a time, with churn and hot swaps.

    One operation is one service lifetime of ``rounds`` lockstep rounds: a
    fresh service (built outside the timed region) with ``members``
    attached instances.  Every ``churn_every`` rounds ~5% of the members are
    detached, as many fresh ones attached, and the static threshold is
    hot-swapped.  The service is rebuilt per operation because its default
    in-memory event log grows with every sample; a fixed lifetime keeps the
    peak memory independent of how fast the machine is.

    The measurements are generated here, outside every timed region: noise
    and a late-run bias attack on 10% of the initial members come from the
    benchmark's own ``numpy`` Generator and pass to ``batch_simulate`` as
    explicit arrays, so the inputs do not depend on the library's random
    streams.
    """

    name = "serve-stream"

    def __init__(self, seed: int, tiny: bool = False, work_dir: Path | None = None):
        self.seed = seed
        self.members = 20 if tiny else 100
        self.rounds = 300 if tiny else 1000
        self.churn_every = 100 if tiny else 250
        self.churn = max(1, self.members // 20)
        self._prepare_inputs()

    # ------------------------------------------------------------------
    def _prepare_inputs(self) -> None:
        """Schedule, measurements and the offline expected alarms (untimed)."""
        rng = np.random.default_rng(self.seed)
        problem = repro.get_case_study("dcmotor").problem
        system = problem.system
        members = list(range(self.members))
        next_id = self.members
        attach_round = {i: 0 for i in members}
        detach_round: dict[int, int] = {}
        schedule = []  # (round, detached ids, attached ids, static value)
        for index, when in enumerate(range(self.churn_every, self.rounds, self.churn_every)):
            chosen = sorted(int(i) for i in rng.choice(members, size=self.churn, replace=False))
            fresh = list(range(next_id, next_id + self.churn))
            next_id += self.churn
            for identity in chosen:
                members.remove(identity)
                detach_round[identity] = when
            for identity in fresh:
                members.append(identity)
                attach_round[identity] = when
            schedule.append((when, chosen, fresh, STATIC_VALUES[(index + 1) % len(STATIC_VALUES)]))
        self.schedule = schedule
        self.attach_round = attach_round
        n_ids = next_id
        m = system.plant.n_outputs
        T = self.rounds
        bounds = problem.system.plant.measurement_noise_std()
        noise = rng.uniform(-1.0, 1.0, size=(n_ids, T, m)) * bounds
        attacks = np.zeros((n_ids, T, m))
        attacked = rng.choice(self.members, size=max(1, self.members // 10), replace=False)
        for identity in attacked:
            attacks[identity, int(ATTACK_START * T) :, :] = ATTACK_BIAS
        trace = repro.batch_simulate(
            system, T, x0=problem.x0, measurement_noise=noise, attacks=attacks
        )
        self.measurements = trace.measurements
        self.lifetimes = {
            identity: detach_round.get(identity, T) - start
            for identity, start in attach_round.items()
        }
        self.expected = self._offline_alarms(problem, trace.residues)
        self.expected_samples = sum(self.lifetimes.values())
        self.problem = problem

    def _static_value(self, global_round: int) -> float:
        value = STATIC_VALUES[0]
        for when, _, _, swapped in self.schedule:
            if when <= global_round:
                value = swapped
        return value

    def _offline_alarms(self, problem, residues) -> set:
        """The offline detector bank on each instance's residues since attach."""
        expected = set()
        values = {v: problem.static_threshold(v) for v in STATIC_VALUES}
        cusum = CusumDetector(**CUSUM)
        for identity, lifetime in self.lifetimes.items():
            start = self.attach_round[identity]
            z = residues[identity, :lifetime]
            static_alarm = np.zeros(lifetime, dtype=bool)
            in_force = np.array([self._static_value(start + k) for k in range(lifetime)])
            for value, threshold in values.items():
                static_alarm |= (in_force == value) & threshold.alarms(z)
            cusum_alarm = cusum.statistics(z) >= cusum.threshold
            for label, alarms in (("static", static_alarm), ("cusum", cusum_alarm)):
                steps = np.flatnonzero(alarms)
                for position, step in enumerate(steps):
                    expected.add((identity, int(step), label, position == 0))
        return expected

    # ------------------------------------------------------------------
    def build(self):
        """A running service with the initial members attached."""
        config = repro.ServiceConfig(
            case_study="dcmotor",
            static_thresholds={"static": STATIC_VALUES[0]},
            detectors={"cusum": {"name": "cusum", "options": dict(CUSUM)}},
            include_mdc=False,
        )
        sink = InMemorySink()
        service = repro.run_service(config, self.problem, sinks=[sink])
        for identity in range(self.members):
            service.attach(identity)
        return service, sink

    def setup(self) -> None:
        service, _ = self.build()
        # Warm-up: a few rounds through a throwaway service.
        for k in range(3):
            for identity in range(self.members):
                service.ingest(identity, self.measurements[identity, k])
        service.close()

    def op(self, index: int) -> Outcome:
        with self.span("bench.serve_build"):
            service, sink = self.build()
        measurements = self.measurements
        local = {identity: 0 for identity in range(self.members)}
        order = list(range(self.members))
        churn = {when: (gone, fresh, value) for when, gone, fresh, value in self.schedule}
        round_latencies = []
        rejected = 0
        clock = time.perf_counter
        started = clock()
        for k in range(self.rounds):
            change = churn.get(k)
            if change is not None:
                gone, fresh, value = change
                for identity in gone:
                    service.detach(identity)
                    order.remove(identity)
                for identity in fresh:
                    service.attach(identity)
                    order.append(identity)
                    local[identity] = 0
                service.swap_thresholds({"static": self.problem.static_threshold(value)})
            last = order[-1]
            for identity in order:
                sample = measurements[identity, local[identity]]
                local[identity] += 1
                if identity == last:
                    t0 = clock()
                    accepted = service.ingest(identity, sample)
                    round_latencies.append(clock() - t0)
                else:
                    accepted = service.ingest(identity, sample)
                rejected += not accepted
        busy = clock() - started
        stats = service.stats()
        events = [(e.instance, e.step, e.detector, e.first) for e in sink.events]
        service.close()
        dropped = stats["samples_dropped"] + rejected
        return Outcome(
            round_latencies, self.expected_samples, busy, self.expected_samples, dropped,
            data={"stats": stats, "events": events},
        )

    def check(self, outcome: Outcome) -> list[str]:
        errors = []
        stats = outcome.data["stats"]
        if stats["samples_ingested"] != self.expected_samples:
            errors.append(
                f"serve-stream: ingested {stats['samples_ingested']} != {self.expected_samples}"
            )
        if stats["samples_dropped"] != 0 or outcome.failed:
            errors.append(f"serve-stream: {outcome.failed} samples dropped or rejected")
        if stats["rounds_processed"] != self.rounds:
            errors.append(f"serve-stream: {stats['rounds_processed']} rounds != {self.rounds}")
        events = outcome.data["events"]
        if len(events) != len(set(events)) or set(events) != self.expected:
            errors.append(
                f"serve-stream: {len(events)} alarm events differ from the offline "
                f"bank's {len(self.expected)}"
            )
        return errors


WORKLOADS = {
    cls.name: cls for cls in (PaperVsc, ExploreSweep, FleetDeploy, ServeStream)
}
