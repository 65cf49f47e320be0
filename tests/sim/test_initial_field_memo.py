"""The steady initial field lives in the system memo.

It is solved once per (system, utilization, initial pump setting),
stored read-only, dropped with its memo entry, and a run that reuses
it is bitwise equal to one that solved it cold.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.runner import BatchRunner, group_cohorts
from repro.sim import cache as sim_cache
from repro.sim.cache import (
    CharacterizationCache,
    clear_system_memo,
    steady_initial_field,
    system_for,
)
from repro.sim.config import CoolingMode, SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.system import ThermalSystem
from repro.thermal.rc_network import ThermalParams
from repro.thermal.solver import KRYLOV_TEMPERATURE_TOLERANCE, clear_neighbor_cache

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import assert_results_identical

CONFIG = SimulationConfig(nx=8, ny=8, duration=0.3)

#: The pump setting a liquid-cooled run starts from (the top one).
TOP = 4


@pytest.fixture
def steady_calls(monkeypatch):
    """Counts ``ThermalSystem.initial_temperatures`` calls."""
    calls = []
    original = ThermalSystem.initial_temperatures

    def counted(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ThermalSystem, "initial_temperatures", counted)
    clear_system_memo()
    yield calls
    clear_system_memo()


def _field(config=CONFIG, setting=TOP):
    system, power_model = system_for(config)
    return steady_initial_field(config, system, power_model, setting)


class TestInitialFieldMemo:
    def test_warm_batch_solves_no_initial_field(self, steady_calls):
        configs = [
            replace(CONFIG, policy=policy, seed=seed)
            for policy in ("TALB", "RR")
            for seed in (0, 1)
        ]
        cache = CharacterizationCache()
        BatchRunner(configs, cache=cache).run()
        assert len(steady_calls) == 1
        BatchRunner(configs, cache=cache).run()
        assert len(steady_calls) == 1

    def test_field_is_read_only_and_shared(self, steady_calls):
        field = _field()
        assert not field.flags.writeable
        with pytest.raises(ValueError):
            field[0] = 0.0
        assert _field() is field
        assert len(steady_calls) == 1

    def test_keyed_by_initial_setting(self, steady_calls):
        assert _field(setting=0) is not _field(setting=TOP)
        assert len(steady_calls) == 2

    def test_clear_system_memo_drops_field(self, steady_calls):
        field = _field()
        clear_system_memo()
        again = _field()
        assert again is not field
        np.testing.assert_array_equal(again, field)
        assert len(steady_calls) == 2

    def test_lru_eviction_drops_field(self, steady_calls):
        system, power_model = system_for(CONFIG)
        field = steady_initial_field(CONFIG, system, power_model, TOP)
        for i in range(sim_cache._SYSTEM_MEMO_CAPACITY):
            system_for(
                replace(
                    CONFIG,
                    thermal_params=ThermalParams(resistance_scale=2.0 + i),
                )
            )
        # The re-memoized system solves a new field, and the evicted one
        # never reads the new entry: it solves afresh on every request.
        fresh = _field()
        assert fresh is not field
        assert steady_initial_field(CONFIG, system, power_model, TOP) is not fresh
        assert len(steady_calls) == 3

    def test_memo_hit_run_is_bitwise_cold_run(self, steady_calls):
        other = replace(CONFIG, benchmark_name="Web-high")
        assert other.spec.utilization != CONFIG.spec.utilization
        cold = []
        for config in (CONFIG, other):
            clear_system_memo()
            cold.append(Simulator(config).run())
        # One memo entry, two utilizations: each run gets its own field.
        warm = [Simulator(config).run() for config in (CONFIG, other, CONFIG)]
        assert len(steady_calls) == 3
        for expected, result in zip(cold + cold[:1], warm):
            assert_results_identical(expected, result)

    def test_krylov_neighbor_cohort_within_tolerance(self, steady_calls):
        def campaign(solver):
            configs = [
                replace(
                    CONFIG,
                    cooling=CoolingMode.LIQUID_MAX,
                    nx=12,
                    ny=12,
                    seed=seed,
                    solver=solver,
                    thermal_params=ThermalParams(resistance_scale=4.0 + 0.1 * i),
                )
                for i in range(3)
                for seed in (0, 1)
            ]
            clear_system_memo()
            clear_neighbor_cache()
            runs = BatchRunner(configs, cache=CharacterizationCache()).run().runs
            return configs, [run.result for run in runs]

        configs, krylov = campaign("krylov")
        assert group_cohorts(configs) == [list(range(6))]
        # One steady solve per design point: the second seed reuses it.
        assert len(steady_calls) == 3
        _, exact = campaign("exact")
        clear_neighbor_cache()
        for k, e in zip(krylov, exact):
            assert np.abs(k.tmax - e.tmax).max() <= KRYLOV_TEMPERATURE_TOLERANCE
