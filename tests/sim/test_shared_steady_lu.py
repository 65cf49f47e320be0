"""One steady LU per pump setting, one system build per design point.

The TALB weights (Eq. 8) derive from the system's own cached steady
solver, so a system factorizes each (setting, kind) matrix exactly
once in either solver tier; and a serial batch characterizes lazily on
the system each run already holds, so a cold design sweep with more
points than the system memo holds builds every system exactly once.
"""

import sys
from pathlib import Path

import pytest

from repro.runner import BatchRunner
from repro.sched.weights import ThermalWeights
from repro.sim.cache import CharacterizationCache, clear_system_memo, system_for
from repro.sim.config import CoolingMode, SimulationConfig
from repro.sim.engine import Simulator
from repro.telemetry import metrics
from repro.thermal.rc_network import ThermalParams
from repro.thermal.solver import clear_neighbor_cache

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import assert_results_identical

#: More design points than the system memo holds (capacity 4).
N_POINTS = 8


def _point(i: int = 0, solver: str = "exact", duration: float = 0.3):
    """A TALB, variable-flow design point on an 8x8 grid."""
    return SimulationConfig(
        nx=8,
        ny=8,
        duration=duration,
        cooling=CoolingMode.LIQUID_VARIABLE,
        policy="TALB",
        solver=solver,
        thermal_params=ThermalParams(resistance_scale=round(4.0 + 0.1 * i, 6)),
    )


def _count(name: str) -> int:
    return metrics.counter(name).value()


def _weights(cache, config):
    """Weights for every pump setting of ``config``'s system."""
    system, _ = system_for(config)
    return [
        cache.thermal_weights(system, k, config, system.cooling).as_dict()
        for k in range(system.pump.n_settings)
    ]


@pytest.fixture(autouse=True)
def cold():
    clear_system_memo()
    clear_neighbor_cache()
    yield
    clear_system_memo()
    clear_neighbor_cache()


class TestOneSteadyLuPerSetting:
    def test_cold_point_factorizes_once_per_solver(self):
        # (a) Every factorization of a cold run is one of the solvers
        # its system holds; nothing else factorizes.
        config = _point()
        cache = CharacterizationCache()
        before = _count("solver.factorizations")
        sim = Simulator(config, cache=cache)
        sim.run()
        delta = _count("solver.factorizations") - before
        system = sim.system
        assert delta == len(system._steadies) + len(system._transients)
        assert len(system._steadies) == system.pump.n_settings

    def test_weights_add_no_factorization(self):
        # (a) Once the flow table has factorized every setting, the
        # weights for every setting reuse those LUs.
        config = _point()
        cache = CharacterizationCache()
        system, power_model = system_for(config)
        cache.table(system, power_model, config)
        before = _count("solver.factorizations")
        assert all(_weights(cache, config))
        assert _count("solver.factorizations") == before

    def test_cached_weights_equal_one_shot_derivation(self):
        # (b) The shared solver changes no bit of the weights.
        config = _point()
        cache = CharacterizationCache()
        system, _ = system_for(config)
        for k, cached in enumerate(_weights(cache, config)):
            network = system.network(k)
            kwargs = dict(
                target_temperature=config.talb_weight_target,
                background_power=1.0,
            )
            assert cached == ThermalWeights.from_network(network, **kwargs).as_dict()
            shared = ThermalWeights.from_network(
                network, solver=system.steady_solver(k), **kwargs
            )
            assert cached == shared.as_dict()

    def test_krylov_weights_equal_exact_from_own_lu(self):
        # (c) A krylov system whose steady solvers precondition with a
        # neighbor's LU still answers the weight probes from an LU of
        # each setting's own matrix, never from GMRES.
        exact = _weights(CharacterizationCache(), _point(1))
        _weights(CharacterizationCache(), _point(0, solver="krylov"))
        target = _point(1, solver="krylov")
        system, _ = system_for(target)
        gmres = _count("solver.krylov.gmres_solves")
        factorized = _count("solver.factorizations")
        krylov = _weights(CharacterizationCache(), target)
        assert krylov == exact
        assert _count("solver.krylov.gmres_solves") == gmres
        assert _count("solver.factorizations") - factorized == len(krylov)
        # The LUs are the system's own steady solvers', not side copies.
        steadies = system._steadies.values()
        assert len(steadies) == len(krylov)
        assert all(solver._core._lu is not None for solver in steadies)


class TestSerialBatchBuildsOnce:
    @pytest.fixture(scope="class")
    def configs(self):
        return [_point(i, duration=0.2) for i in range(N_POINTS)]

    @pytest.fixture(scope="class")
    def serial(self, configs):
        clear_system_memo()
        misses = _count("cache.system.misses")
        batch = BatchRunner(configs, cache=CharacterizationCache()).run()
        return batch, _count("cache.system.misses") - misses

    def test_each_system_built_once(self, serial):
        # (d) Warming all eight up front would leave each one evicted
        # by the time its run starts, and rebuilt (16 misses).
        batch, misses = serial
        assert misses == N_POINTS
        assert batch.warm_time == 0.0

    def test_equals_simulator_loop(self, configs, serial):
        # (e) Lazy characterization changes no result bit.
        batch, _ = serial
        for config, result in zip(configs, batch.results):
            clear_system_memo()
            assert_results_identical(
                result, Simulator(config, cache=CharacterizationCache()).run()
            )

    def test_equals_parallel_batch(self, configs, serial):
        # (e) Parallel batches still pre-warm in the parent.
        batch, _ = serial
        clear_system_memo()
        parallel = BatchRunner(
            configs, max_workers=2, cache=CharacterizationCache()
        ).run()
        assert parallel.warm_time > 0.0
        for a, b in zip(batch.results, parallel.results):
            assert_results_identical(a, b)
