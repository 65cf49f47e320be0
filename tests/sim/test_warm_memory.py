"""``CharacterizationCache.warm`` keeps memory bounded.

Warming walks the configs one thermal system at a time and drops each
system before building the next, so a campaign with more distinct
systems than the system memo holds never pins them all (nor their LU
factorizations). The artifacts it derives are bitwise those of a cold,
per-config derivation.
"""

import gc
import pickle
import weakref
from dataclasses import replace

import pytest

from repro.sim.cache import (
    _SYSTEM_MEMO_CAPACITY,
    CharacterizationCache,
    clear_system_memo,
)
from repro.sim.config import CoolingMode, SimulationConfig
from repro.sim.system import ThermalSystem
from repro.thermal.rc_network import ThermalParams

#: More distinct systems than the memo holds, so eviction matters.
N_SYSTEMS = 6


def _configs() -> list:
    """Six design points that differ only in ``thermal_params``; every
    one characterizes a flow table, a burst floor and TALB weights."""
    return [
        SimulationConfig(
            nx=8,
            ny=8,
            duration=0.2,
            cooling=CoolingMode.LIQUID_VARIABLE,
            policy="TALB",
            thermal_params=ThermalParams(resistance_scale=4.0 + 0.1 * i),
        )
        for i in range(N_SYSTEMS)
    ]


@pytest.fixture
def live_systems(monkeypatch):
    """Records how many ``ThermalSystem`` instances are reachable each
    time a new one is built."""
    live = weakref.WeakSet()
    peaks = []
    original = ThermalSystem.__init__

    def tracked(self, *args, **kwargs):
        gc.collect()
        peaks.append(len(live) + 1)
        live.add(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ThermalSystem, "__init__", tracked)
    clear_system_memo()
    yield peaks
    clear_system_memo()


def _pickled(cache: CharacterizationCache) -> dict:
    return {
        name: {key: pickle.dumps(value) for key, value in getattr(cache, name).items()}
        for name in ("tables", "floors", "weight_sets")
    }


class TestWarmMemory:
    def test_never_holds_more_than_memo_capacity_plus_one(self, live_systems):
        CharacterizationCache().warm(_configs())
        assert len(live_systems) == N_SYSTEMS
        assert max(live_systems) <= _SYSTEM_MEMO_CAPACITY + 1

    def test_artifacts_bitwise_equal_cold_per_config(self):
        clear_system_memo()
        warmed = CharacterizationCache().warm(_configs())
        cold = CharacterizationCache()
        for config in _configs():
            clear_system_memo()
            cold.merge(CharacterizationCache().warm([config]))
        clear_system_memo()
        got, want = _pickled(warmed), _pickled(cold)
        assert all(got[name] for name in got)
        assert got == want

    def test_shared_system_configs_build_once(self, live_systems):
        # Each system's second config comes after the memo has evicted
        # it; grouping still builds every system exactly once.
        configs = _configs()
        reseeded = [replace(c, seed=c.seed + 1) for c in configs]
        cache = CharacterizationCache().warm(configs + reseeded)
        assert len(live_systems) == N_SYSTEMS
        assert cache.stats()["tables"] == N_SYSTEMS
