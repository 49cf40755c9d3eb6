"""Differential equivalence layer: fused float64 vs the legacy fleet engine.

This is the gate behind ``engine="fused"``: for every packaged case study,
every deployed detector family (static threshold, CUSUM, chi-square, plant
monitors) and both attack modes, a fused run must be *bit-identical*
(``np.array_equal``, no tolerance) to the legacy engine — traces, alarm
events (including their order), report statistics and every deployed
core's post-run state alike.  Both engines drive the same run body; only
the stepper differs.  A seeded
randomized property test extends the same check to arbitrary stable LTI
closed loops, including plants with a nonzero feed-through ``D`` (a path no
packaged case study exercises).

The fused engine is allowed to *choose* the legacy stepper when its
differential probe rejects the BLAS at the run's width — the gate here is
about observable output, not about which kernel ran.  That fallback is
forced and checked on every host, and a separate guard asserts that the
fused kernel path is genuinely exercised on this host, so a silently
always-falling-back build cannot pass the suite vacuously.
"""

import numpy as np
import pytest

from repro.attacks.templates import BiasAttack, RampAttack
from repro.detectors.chi_square import ChiSquareDetector
from repro.detectors.cusum import CusumDetector
from repro.lti.model import StateSpace
from repro.lti.simulate import ClosedLoopSystem
from repro.registry import CASE_STUDIES
from repro.runtime.engine import _innovation_covariance
from repro.runtime.events import InMemorySink
from repro.runtime.fleet import FleetSimulator, ScheduledAttack
from repro.runtime.kernel import probe_fused_equivalence, runner

CASE_STUDY_NAMES = ("cruise", "dcmotor", "pendulum", "quadtank", "trajectory", "vsc")

TRACE_FIELDS = (
    "states",
    "estimates",
    "inputs",
    "measurements",
    "true_outputs",
    "residues",
    "attacks",
)


@pytest.fixture(scope="module")
def problems():
    return {name: CASE_STUDIES.create(name).problem for name in CASE_STUDY_NAMES}


def _detector_bank(problem) -> dict:
    """One detector of every family the runtime deploys."""
    bank = {
        "static": problem.static_threshold(0.1),
        "cusum": CusumDetector(bias=0.05, threshold=0.5),
        "chi2": ChiSquareDetector.from_false_alarm_probability(
            _innovation_covariance(problem), 0.05
        ),
    }
    if len(problem.mdc) > 0:
        bank["mdc"] = problem.mdc
    return bank


def _simulate(system, engine, **kwargs):
    """One recorded fleet run: ``(report, trace, alarm events, core states)``."""
    sink = InMemorySink()
    simulator = FleetSimulator(
        system,
        sinks=[sink],
        record_traces=True,
        metrics=False,
        engine=engine,
        **kwargs,
    )
    report = simulator.run()
    states = {label: core.state for label, core in simulator.detectors.items()}
    return report, simulator.trace, list(sink.events), states


def _run(problem, engine, *, attacked, n_instances=37, horizon=60, seed=11):
    attacks = (
        [ScheduledAttack(BiasAttack(bias=0.4), fraction=0.3, start=horizon // 4)]
        if attacked
        else []
    )
    return _simulate(
        problem.system,
        engine,
        n_instances=n_instances,
        horizon=horizon,
        detectors=_detector_bank(problem),
        x0=problem.x0,
        attacks=attacks,
        seed=seed,
    )


def _assert_bit_identical(legacy, fused):
    report_l, trace_l, events_l, states_l = legacy
    report_f, trace_f, events_f, states_f = fused
    for field in TRACE_FIELDS:
        left, right = getattr(trace_l, field), getattr(trace_f, field)
        assert np.array_equal(left, right), f"trace field {field!r} diverged"
    assert events_l == events_f, "alarm event streams diverged"
    assert report_l.n_attacked == report_f.n_attacked
    assert set(report_l.detectors) == set(report_f.detectors)
    for label in report_l.detectors:
        assert (
            report_l.detectors[label].to_dict() == report_f.detectors[label].to_dict()
        ), f"detector stats for {label!r} diverged"
    assert set(states_l) == set(states_f)
    for label, state in states_l.items():
        assert set(state) == set(states_f[label]), f"core state keys of {label!r}"
        for key, value in state.items():
            assert np.array_equal(value, states_f[label][key]), (
                f"post-run state {key!r} of core {label!r} diverged"
            )


class TestCaseStudyEquivalence:
    """Fused ≡ legacy on every case study and detector family."""

    @pytest.mark.parametrize("attacked", [False, True], ids=["benign", "attacked"])
    @pytest.mark.parametrize("name", CASE_STUDY_NAMES)
    def test_fused_float64_is_bit_identical(self, problems, name, attacked):
        problem = problems[name]
        legacy = _run(problem, "legacy", attacked=attacked)
        fused = _run(problem, "fused", attacked=attacked)
        _assert_bit_identical(legacy, fused)

    def test_single_instance_fleet_pads_without_divergence(self, problems):
        # Nothing is padded any more: a width-1 run is probed at width 1,
        # and whichever stepper the probe picks there (the GEMM may dispatch
        # differently for a single column) must be bit-identical.
        problem = problems["dcmotor"]
        legacy = _run(problem, "legacy", attacked=True, n_instances=1)
        fused = _run(problem, "fused", attacked=True, n_instances=1)
        _assert_bit_identical(legacy, fused)

    def test_engine_metadata_reports_the_chosen_path(self, problems):
        report, _, _, _ = _run(problems["quadtank"], "fused", attacked=False)
        engine = report.metadata["engine"]
        assert set(engine) == {"name", "fused_path"}
        assert engine["name"] == "fused"
        assert isinstance(engine["fused_path"], bool)

    def test_fused_kernel_path_is_exercised_on_this_host(self, problems):
        # The equivalence cells above pass even if every probe rejects the
        # BLAS (the engine then runs the legacy stepper).  Guard against that
        # vacuous pass: at least one case study must take the fused GEMM
        # path at at least one of the widths this suite uses.
        verdicts = [
            probe_fused_equivalence(problem.system, width)
            for problem in problems.values()
            for width in (37, 64)
        ]
        assert any(verdicts), (
            "no (case study, width) pair passed the fused probe on this host; "
            "the differential suite would not be exercising the fused kernel"
        )


class TestProbeFallback:
    """A rejected probe must leave the output untouched, on every host."""

    @pytest.mark.parametrize("n_instances", [64, 1])
    def test_rejected_probe_falls_back_bit_identically(
        self, problems, monkeypatch, n_instances
    ):
        # dcmotor takes the fused GEMM path at these widths on common BLAS
        # builds, so the fallback branch runs here only because the probe is
        # forced to reject it; the fused stepper must then never be built.
        consulted = []

        def reject(system, n_instances=64):
            consulted.append(n_instances)
            return False

        def forbidden(*args, **kwargs):
            raise AssertionError("a rejected probe must not build the fused stepper")

        monkeypatch.setattr(runner, "probe_fused_equivalence", reject)
        monkeypatch.setattr(runner, "FusedStepper", forbidden)
        problem = problems["dcmotor"]
        legacy = _run(problem, "legacy", attacked=True, n_instances=n_instances)
        fused = _run(problem, "fused", attacked=True, n_instances=n_instances)
        assert consulted == [n_instances]
        assert fused[0].metadata["engine"]["fused_path"] is False
        _assert_bit_identical(legacy, fused)


def _random_closed_loop(rng: np.random.Generator, with_feedthrough: bool):
    """A random stable discrete-time closed loop (spectral radius < 1)."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 4))
    p = int(rng.integers(1, 4))
    A = rng.standard_normal((n, n))
    radius = np.max(np.abs(np.linalg.eigvals(A)))
    A *= 0.85 / max(radius, 1e-9)
    plant = StateSpace(
        A,
        rng.standard_normal((n, p)),
        rng.standard_normal((m, n)),
        rng.standard_normal((m, p)) * 0.2 if with_feedthrough else None,
        Q_w=np.eye(n) * 1e-6,
        R_v=np.eye(m) * 1e-4,
        dt=0.1,
    )
    return ClosedLoopSystem(
        plant,
        K=rng.standard_normal((p, n)) * 0.05,
        L=rng.standard_normal((n, m)) * 0.05,
        reference=rng.standard_normal(m) * 0.1,
        feedforward=rng.standard_normal((p, m)) * 0.1,
    )


class TestRandomizedSystems:
    """Seeded property test: fused ≡ legacy on arbitrary stable LTI loops."""

    @pytest.mark.parametrize("case", range(6))
    def test_random_stable_lti_is_bit_identical(self, case):
        rng = np.random.default_rng(900 + case)
        system = _random_closed_loop(rng, with_feedthrough=case % 2 == 1)
        N, T = int(rng.integers(3, 24)), 50
        kwargs = dict(
            n_instances=N,
            horizon=T,
            detectors={"cusum": CusumDetector(bias=0.03, threshold=0.2)},
            include_process_noise=True,
            x0=rng.standard_normal((N, system.plant.n_states)) * 0.1,
            # Overlapping entries exercise the schedule's accumulation order.
            attacks=[
                ScheduledAttack(BiasAttack(bias=0.01), fraction=0.5, start=10),
                ScheduledAttack(RampAttack(slope=1e-3), fraction=0.3, start=25),
            ],
            seed=900 + case,
        )
        legacy = _simulate(system, "legacy", **kwargs)
        fused = _simulate(system, "fused", **kwargs)
        _assert_bit_identical(legacy, fused)

    def test_feedthrough_plants_take_the_output_feed_rows(self):
        # No packaged case study has D != 0; make sure the fused kernel's
        # feed-through block both exists and matches the legacy output feed.
        rng = np.random.default_rng(1234)
        system = _random_closed_loop(rng, with_feedthrough=True)
        assert np.any(system.plant.D)
        _, legacy, _, _ = _simulate(system, "legacy", n_instances=9, horizon=40, seed=3)
        _, fused, _, _ = _simulate(system, "fused", n_instances=9, horizon=40, seed=3)
        assert np.array_equal(legacy.measurements, fused.measurements)
        assert np.array_equal(legacy.residues, fused.residues)
