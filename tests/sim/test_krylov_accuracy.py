"""Krylov-vs-exact accuracy and factorization-reuse guarantees.

``TestKrylovAccuracySmoke`` is the CI-gating accuracy smoke: a small
``thermal_params`` sweep run through both solver tiers must agree
within the documented :data:`KRYLOV_TEMPERATURE_TOLERANCE`, and the
krylov campaign must perform strictly fewer LU factorizations than it
has design points (the whole point of the tier).
``TestKrylovCharacterizationGate`` gates the same properties on a
Var-cooled TALB sweep, whose flow-table characterization is multi-RHS
work the krylov tier factorizes for rather than iterating.
"""

import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runner import BatchRunner
from repro.sim.cache import CharacterizationCache, clear_system_memo
from repro.sim.config import CoolingMode, SimulationConfig
from repro.sim.system import ThermalSystem
from repro.thermal.rc_network import ThermalParams
from repro.thermal.solver import (
    KRYLOV_TEMPERATURE_TOLERANCE,
    KrylovSteadySolver,
    KrylovTransientSolver,
    SteadyStateSolver,
    TransientSolver,
    clear_neighbor_cache,
)
from repro.telemetry import metrics

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import counter_deltas

N_POINTS = 6


def _sweep_configs(solver: str) -> list:
    """A thermal-parameter sweep where every design point is a distinct
    network: RR policy + Max cooling keep characterization out of the
    picture, so the factorization counters measure the solvers alone."""
    return [
        SimulationConfig(
            policy="RR",
            cooling=CoolingMode.LIQUID_MAX,
            nx=16,
            ny=16,
            duration=2.0,
            solver=solver,
            thermal_params=ThermalParams(resistance_scale=4.0 + 0.1 * i),
        )
        for i in range(N_POINTS)
    ]


def _talb_sweep_configs(solver: str) -> list:
    """The same design points under Var cooling and TALB: every point
    characterizes a flow table, a burst floor and per-setting weights."""
    return [
        SimulationConfig(
            policy="TALB",
            cooling=CoolingMode.LIQUID_VARIABLE,
            nx=16,
            ny=16,
            duration=1.0,
            solver=solver,
            thermal_params=ThermalParams(resistance_scale=4.0 + 0.1 * i),
        )
        for i in range(N_POINTS)
    ]


class Campaign(NamedTuple):
    results: list
    counters: Counter  # registry counter deltas over the whole campaign
    warm_counters: Counter  # ... over characterization alone
    cache: CharacterizationCache

    @property
    def factorizations(self) -> int:
        return self.counters["solver.factorizations"]


def _campaign(solver: str, configs=_sweep_configs) -> Campaign:
    """Warm, then run, the sweep cold."""
    clear_system_memo()
    clear_neighbor_cache()
    before = metrics.snapshot()
    cache = CharacterizationCache().warm(configs(solver))
    warm_counters = counter_deltas(before)
    batch = BatchRunner(configs(solver), cache=cache)
    results = [run.result for run in batch.run().runs]
    return Campaign(results, counter_deltas(before), warm_counters, cache)


def _worst_difference(exact: Campaign, krylov: Campaign) -> float:
    worst = 0.0
    for e, k in zip(exact.results, krylov.results):
        worst = max(worst, float(np.abs(e.tmax - k.tmax).max()))
        worst = max(
            worst,
            float(np.abs(e.unit_temperatures - k.unit_temperatures).max()),
        )
    return worst


class TestKrylovAccuracySmoke:
    """CI-gating: krylov agrees with exact and reuses factorizations."""

    @pytest.fixture(scope="class")
    def campaigns(self):
        exact = _campaign("exact")
        krylov = _campaign("krylov")
        clear_system_memo()
        clear_neighbor_cache()
        return exact, krylov

    def test_max_temperature_within_documented_tolerance(self, campaigns):
        assert _worst_difference(*campaigns) < KRYLOV_TEMPERATURE_TOLERANCE

    def test_krylov_factorizes_fewer_than_design_points(self, campaigns):
        exact, krylov = campaigns
        exact_f, krylov_f, counters = (
            exact.factorizations, krylov.factorizations, krylov.counters
        )
        # Exact pays steady + transient per distinct network.
        assert exact_f == 2 * N_POINTS
        # Krylov factorizes the first design point only; every later
        # point preconditions off it.
        assert krylov_f < N_POINTS
        assert counters["solver.krylov.preconditioner_hits"] > 0
        assert counters["solver.krylov.fallbacks"] == 0

    def test_exact_campaign_never_iterates(self, campaigns):
        exact_counters = campaigns[0].counters
        assert exact_counters["solver.krylov.gmres_solves"] == 0
        assert exact_counters["solver.krylov.direct_solves"] == 0


class TestKrylovCharacterizationGate:
    """CI-gating: under Var cooling the krylov tier factorizes once per
    characterized setting instead of iterating the flow-table sweep, so
    it never factorizes more than exact and stays within tolerance."""

    @pytest.fixture(scope="class")
    def campaigns(self):
        exact = _campaign("exact", _talb_sweep_configs)
        krylov = _campaign("krylov", _talb_sweep_configs)
        clear_system_memo()
        clear_neighbor_cache()
        return exact, krylov

    def test_max_temperature_within_documented_tolerance(self, campaigns):
        assert _worst_difference(*campaigns) < KRYLOV_TEMPERATURE_TOLERANCE

    def test_krylov_factorizes_no_more_than_exact(self, campaigns):
        exact, krylov = campaigns
        assert krylov.factorizations <= exact.factorizations
        assert krylov.counters["solver.krylov.preconditioner_hits"] > 0
        assert krylov.counters["solver.krylov.fallbacks"] == 0

    def test_characterization_does_not_iterate(self, campaigns):
        # Every multi-RHS batch factorizes, so the flow-table sweep
        # runs no GMRES solve at all.
        _, krylov = campaigns
        assert krylov.cache.tables
        assert krylov.warm_counters["solver.krylov.gmres_solves"] == 0
        assert krylov.warm_counters["solver.krylov.direct_solves"] > 0


class TestKrylovVariableFlow:
    def test_var_controller_stays_close_to_exact(self):
        # The controller quantizes pump settings, so bitwise agreement
        # is not guaranteed under Var — but the trajectories must stay
        # well inside the 2 K hysteresis band of each other.
        def run(solver):
            clear_system_memo()
            clear_neighbor_cache()
            config = SimulationConfig(
                policy="RR", nx=16, ny=16, duration=2.0, solver=solver
            )
            batch = BatchRunner([config], cache=CharacterizationCache())
            return batch.run().runs[0].result

        exact, krylov = run("exact"), run("krylov")
        assert float(np.abs(exact.tmax - krylov.tmax).max()) < 0.5
        np.testing.assert_array_equal(exact.flow_setting, krylov.flow_setting)


class TestSolverModeSelection:
    def test_config_validates_solver(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(solver="superlu")

    def test_system_validates_solver(self):
        with pytest.raises(ConfigurationError):
            ThermalSystem(nx=4, ny=4, solver="superlu")

    def test_system_returns_mode_matched_solvers(self):
        clear_neighbor_cache()
        exact_sys = ThermalSystem(nx=4, ny=4)
        assert isinstance(exact_sys.transient_solver(0, 0.1), TransientSolver)
        assert isinstance(exact_sys.steady_solver(0), SteadyStateSolver)
        krylov_sys = ThermalSystem(nx=4, ny=4, solver="krylov")
        assert isinstance(
            krylov_sys.transient_solver(0, 0.1), KrylovTransientSolver
        )
        assert isinstance(krylov_sys.steady_solver(0), KrylovSteadySolver)
        clear_neighbor_cache()
