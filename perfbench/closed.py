"""The two search workloads: one caller, one round at a time.

``search-single``
    The paper's measure -> search -> actuate round on wall-sized arrays.
    Three rounds in four run ``greedy`` on one of two N=256 arrays, one in
    four runs ``rfocus`` on an N=1024 array, each with a fresh searcher
    seed, through ``serve.work.search_task``.  The round ends by actuating
    the winner through ``ScenarioSession.snr_rows``.
``joint-moving``
    Eight users at fresh positions within 1 m of the RX anchor of an N=64
    scene: their bases are traced with ``Testbed.bases_for_points``, then
    ``serve.work.joint_task`` runs the ``joint`` strategy with ``greedy``
    and the ``mean`` aggregate, and the winner is actuated on every link.

Each round's latency runs from the start of the round to the end of its
actuation.  Between rounds, untimed, the benchmark re-scores the
returned configuration from the actuated SNR, which went through the full
``ChannelBasis.evaluate`` path.  After the phase it re-runs a sample of
rounds serially, in reverse order, and requires identical results.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from repro.core.objectives import MeanSnrObjective
from repro.em.channel import snr_db_from_cfr
from repro.em.geometry import Point
from repro.serve.scenarios import ScenarioSpec, build_session
from repro.serve.work import joint_task, search_task

from .phase import Phase

#: Rounds whose gain counts towards ``gain_db``; a phase always runs
#: them all, so the metric is a function of the seed alone.
GAIN_ROUNDS = 100
#: Fewest rounds a phase runs: p90 needs ten samples beyond it.
MIN_ROUNDS = 110
#: Rounds re-run serially after the phase.
RERUN_SAMPLE = 12
#: Largest gap allowed between a returned score and its re-scoring.
SCORE_TOLERANCE = 1e-9

NUM_USERS = 8
USER_SPREAD_M = 1.0


@dataclass
class Round:
    index: int
    inputs: tuple
    output: tuple
    latency_s: float
    search_s: float
    evaluate_s: float
    #: What the actuation observed, for the check; dropped after it.
    actuated: object = None
    ok: bool = False


def mean_used_score(snr_row: np.ndarray, mask: np.ndarray) -> float:
    return MeanSnrObjective()(snr_row[mask])


def actuated_snr(basis, configuration, tx_power_dbm: float, noise_figure_db: float) -> np.ndarray:
    """Per-subcarrier SNR of one configuration via ``ChannelBasis.evaluate``."""
    cfr = basis.evaluate(np.asarray([configuration], dtype=np.int64))
    return snr_db_from_cfr(
        cfr, basis.num_subcarriers, basis.bandwidth_hz,
        tx_power_dbm=tx_power_dbm, noise_figure_db=noise_figure_db,
    )[0]


class SearchSingle:
    name = "search-single"

    def __init__(self, seed: int) -> None:
        self.specs = (
            ScenarioSpec(kind="large", placement=0, num_elements=256),
            ScenarioSpec(kind="large", placement=1, num_elements=256),
            ScenarioSpec(kind="large", placement=0, num_elements=1024),
        )
        self._rng = np.random.default_rng(seed)
        self._plan: list[tuple] = []
        self.sessions: list = []
        self._zeros: list[float] = []

    def build(self) -> None:
        self.sessions = [build_session(spec) for spec in self.specs]

    def after_build(self) -> None:
        self._zeros = [
            mean_used_score(actuated_snr(s.basis, np.zeros(s.basis.num_elements, dtype=np.int64),
                                s.tx_power_dbm, s.noise_figure_db), s.mask)
            for s in self.sessions
        ]

    def plan(self, index: int) -> tuple:
        """``(searcher, session index, searcher seed)`` of round ``index``."""
        while len(self._plan) <= index:
            i = len(self._plan)
            seed = int(self._rng.integers(0, 2**31 - 1))
            if i % 4 == 3:
                self._plan.append(("rfocus", 2, seed))
            else:
                self._plan.append(("greedy", (i - i // 4) % 2, seed))
        return self._plan[index]

    def warm_plans(self) -> list[tuple]:
        return [("greedy", 0, 2**31 - 1), ("rfocus", 2, 2**31 - 2)]

    def _search(self, plan: tuple) -> tuple:
        searcher, which, seed = plan
        s = self.sessions[which]
        return search_task(s.basis, searcher, seed, s.tx_power_dbm, s.noise_figure_db, s.mask)

    def round(self, index: int, plan: tuple) -> Round:
        s = self.sessions[plan[1]]
        t0 = time.perf_counter()
        output = self._search(plan)
        t1 = time.perf_counter()
        snr = actuated_snr(s.basis, output[0], s.tx_power_dbm, s.noise_figure_db)
        t2 = time.perf_counter()
        return Round(index, plan, output, t2 - t0, t1 - t0, t2 - t1, snr)

    def check(self, done: Round) -> tuple[str, float]:
        """``(failure or "", gain)`` of a finished round."""
        s = self.sessions[done.inputs[1]]
        score = done.output[1]
        if abs(mean_used_score(done.actuated, s.mask) - score) > SCORE_TOLERANCE:
            return f"round {done.index}: score does not re-score", 0.0
        return "", score - self._zeros[done.inputs[1]]

    def rerun(self, done: Round) -> tuple:
        return self._search(done.inputs)


class JointMoving:
    name = "joint-moving"

    def __init__(self, seed: int) -> None:
        self.spec = ScenarioSpec(kind="large", placement=0, num_elements=64)
        self._rng = np.random.default_rng(seed)
        self._plan: list[tuple] = []
        self.session = None
        self.names = tuple(f"user{i}" for i in range(NUM_USERS))

    def build(self) -> None:
        self.session = build_session(self.spec)

    def after_build(self) -> None:
        pass

    def plan(self, index: int) -> tuple:
        """``(user offsets as ((dx, dy), ...), searcher seed)`` of a round."""
        while len(self._plan) <= index:
            offsets = self._rng.uniform(-USER_SPREAD_M, USER_SPREAD_M, size=(NUM_USERS, 2))
            seed = int(self._rng.integers(0, 2**31 - 1))
            self._plan.append((tuple(map(tuple, offsets.tolist())), seed))
        return self._plan[index]

    def warm_plans(self) -> list[tuple]:
        offsets = np.random.default_rng(2**31 - 1).uniform(
            -USER_SPREAD_M, USER_SPREAD_M, size=(NUM_USERS, 2)
        )
        return [(tuple(map(tuple, offsets.tolist())), 2**31 - 1)]

    def _bases(self, offsets) -> list:
        setup = self.session.setup
        rx0 = setup.rx_device.position
        points = [Point(rx0.x + dx, rx0.y + dy) for dx, dy in offsets]
        return setup.testbed.bases_for_points(
            setup.tx_device, points, setup.rx_device.chains[0].antenna
        )

    def _joint(self, bases, seed: int) -> tuple:
        s = self.session
        return joint_task(
            tuple(bases), self.names, (1.0,) * NUM_USERS, "joint", "greedy", seed,
            "mean", 1.0, s.tx_power_dbm, s.noise_figure_db, s.mask,
        )

    def round(self, index: int, plan: tuple) -> Round:
        s = self.session
        t0 = time.perf_counter()
        bases = self._bases(plan[0])
        t1 = time.perf_counter()
        output = self._joint(bases, plan[1])
        t2 = time.perf_counter()
        snrs = [actuated_snr(b, output[1][0], s.tx_power_dbm, s.noise_figure_db) for b in bases]
        t3 = time.perf_counter()
        return Round(index, plan, output, t3 - t0, t2 - t1, t3 - t2, (bases, snrs))

    def check(self, done: Round) -> tuple[str, float]:
        s = self.session
        bases, snrs = done.actuated
        configurations, scores, aggregate = done.output[1], done.output[2], done.output[3]
        if any(c != configurations[0] for c in configurations):
            return f"round {done.index}: joint returned several configurations", 0.0
        rescored = [mean_used_score(snr, s.mask) for snr in snrs]
        if max(abs(a - b) for a, b in zip(rescored, scores)) > SCORE_TOLERANCE:
            return f"round {done.index}: link scores do not re-score", 0.0
        if abs(float(np.mean(rescored)) - aggregate) > SCORE_TOLERANCE:
            return f"round {done.index}: aggregate does not re-score", 0.0
        zeros = np.zeros(bases[0].num_elements, dtype=np.int64)
        baseline = np.mean([
            mean_used_score(actuated_snr(b, zeros, s.tx_power_dbm, s.noise_figure_db), s.mask)
            for b in bases
        ])
        return "", aggregate - float(baseline)

    def rerun(self, done: Round) -> tuple:
        return self._joint(self._bases(done.inputs[0]), done.inputs[1])


WORKLOADS = {cls.name: cls for cls in (SearchSingle, JointMoving)}


def run_phase(
    workload, seconds: float, min_rounds: int = MIN_ROUNDS, suspend=nullcontext
) -> tuple[Phase, list]:
    """Run rounds for ``seconds`` (and at least ``min_rounds``); check them.

    ``suspend`` is entered around the benchmark's own untimed work, so a
    layer tracer does not count it.
    """
    phase = Phase()
    rounds: list[Round] = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    index = 0
    while index < min_rounds or time.perf_counter() < deadline:
        plan = workload.plan(index)
        done = workload.round(index, plan)
        with suspend():
            why, gain = workload.check(done)
        done.actuated = None
        phase.attempted += 1
        phase.wall_s += done.latency_s
        if why:
            phase.fail(why)
        else:
            done.ok = True
            phase.ok += 1
            phase.latency_s.append(done.latency_s)
            phase.search_s.append(done.search_s)
            phase.evaluate_s.append(done.evaluate_s)
            if index < GAIN_ROUNDS:
                phase.gains_db.append(gain)
        rounds.append(done)
        index += 1
    return phase, rounds


def rerun_check(workload, phase: Phase, rounds: list) -> None:
    """Re-run a spread of rounds serially, newest first; outputs must match."""
    picks = sorted({int(i) for i in np.linspace(0, len(rounds) - 1, RERUN_SAMPLE)}, reverse=True)
    for i in picks:
        if workload.rerun(rounds[i]) != rounds[i].output:
            phase.fail(f"round {i}: serial re-run differs")
            if rounds[i].ok:
                rounds[i].ok = False
                phase.ok -= 1


def warm_up(workload) -> None:
    """One untimed round of each kind, outside the measured seed stream."""
    for plan in workload.warm_plans():
        done = workload.round(-1, plan)
        workload.check(done)
