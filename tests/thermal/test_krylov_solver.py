"""Krylov solver tier: neighbor preconditioning, fallbacks, failures."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from repro import units
from repro.errors import SolverError
from repro.geometry.stack import build_stack
from repro.power.components import PowerModel
from repro.power.leakage import LeakageModel
from repro.sim.system import ThermalSystem
from repro.telemetry import metrics, trace
from repro.thermal.grid import ThermalGrid
from repro.thermal.rc_network import ThermalParams, build_network
from repro.thermal.solver import (
    KRYLOV_TEMPERATURE_TOLERANCE,
    KrylovSteadySolver,
    KrylovTransientSolver,
    NeighborFactorCache,
    SteadyStateSolver,
    TransientSolver,
    clear_neighbor_cache,
    params_distance,
    structure_signature,
    _params_vector,
)

FLOW = units.ml_per_minute(400.0)


@pytest.fixture(scope="module")
def grid():
    return ThermalGrid(build_stack(2), nx=8, ny=8)


def _network(grid, **param_overrides):
    return build_network(
        grid, ThermalParams(**param_overrides), cavity_flows=[FLOW]
    )


def _factorizations() -> int:
    return metrics.counter("solver.factorizations").value()


def _krylov(key: str) -> int:
    return metrics.counter("solver.krylov." + key).value()


@pytest.fixture(scope="module")
def net(grid):
    return _network(grid)


@pytest.fixture(scope="module")
def power(net):
    return net.grid.power_vector({(0, f"core{i}"): 3.0 for i in range(8)})


def _singular(net, zero_capacitance=False):
    """A structurally intact but numerically singular network."""
    singular = sp.csr_matrix(net.conductance.shape)
    capacitance = (
        np.zeros_like(net.capacitance) if zero_capacitance else net.capacitance
    )
    return replace(net, conductance=singular, capacitance=capacitance)


class TestNeighborFactorCache:
    def test_capacity_validated(self):
        with pytest.raises(SolverError):
            NeighborFactorCache(capacity=0)

    def test_exact_hit_and_miss(self, net):
        cache = NeighborFactorCache()
        structure = structure_signature(net)
        params = ThermalParams()
        assert cache.exact(structure, params) is None
        solver = TransientSolver(net, dt=0.1)
        cache.retain(structure, params, solver._lu)
        assert cache.exact(structure, params) is solver._lu
        assert cache.exact(structure, ThermalParams(resistance_scale=2.0)) is None

    def test_nearest_picks_closest(self, net):
        cache = NeighborFactorCache()
        structure = structure_signature(net)
        lu_far = TransientSolver(net, dt=0.1)._lu
        lu_near = TransientSolver(net, dt=0.1)._lu
        cache.retain(structure, ThermalParams(resistance_scale=9.0), lu_far)
        cache.retain(structure, ThermalParams(resistance_scale=5.0), lu_near)
        hit = cache.nearest(structure, _params_vector(ThermalParams()))
        assert hit is not None
        lu, dist = hit
        assert lu is lu_near
        assert dist == pytest.approx(
            params_distance(
                _params_vector(ThermalParams(resistance_scale=5.0)),
                _params_vector(ThermalParams()),
            )
        )

    def test_nearest_respects_structure(self, net):
        cache = NeighborFactorCache()
        cache.retain(("other",), ThermalParams(), TransientSolver(net, dt=0.1)._lu)
        assert cache.nearest(structure_signature(net), _params_vector(ThermalParams())) is None

    def test_lru_eviction(self, net):
        cache = NeighborFactorCache(capacity=2)
        structure = structure_signature(net)
        lu = TransientSolver(net, dt=0.1)._lu
        oldest = ThermalParams(resistance_scale=1.0)
        cache.retain(structure, oldest, lu)
        cache.retain(structure, ThermalParams(resistance_scale=2.0), lu)
        # Touch the oldest so the middle entry becomes LRU.
        assert cache.exact(structure, oldest) is lu
        cache.retain(structure, ThermalParams(resistance_scale=3.0), lu)
        assert len(cache) == 2
        assert cache.exact(structure, oldest) is lu
        assert cache.exact(structure, ThermalParams(resistance_scale=2.0)) is None

    def test_distance_is_scale_free(self):
        a = _params_vector(ThermalParams())
        assert params_distance(a, a) == 0.0
        b = _params_vector(ThermalParams(resistance_scale=2.0))
        c = _params_vector(ThermalParams(inlet_temperature=120.0))
        assert params_distance(a, b) > 0.0
        assert params_distance(a, c) > 0.0


class TestKrylovTransient:
    def test_first_point_factorizes_and_matches_exact(self, net, power):
        cache = NeighborFactorCache()
        before = _factorizations()
        krylov = KrylovTransientSolver(net, 0.1, ThermalParams(), cache=cache)
        assert _factorizations() - before == 1
        assert len(cache) == 1
        exact = TransientSolver(net, 0.1)
        state = np.full(net.n_nodes, 60.0)
        # With its own LU the krylov solver solves directly: bitwise.
        np.testing.assert_array_equal(
            krylov.step(state, power), exact.step(state, power)
        )

    def test_neighbor_preconditioning_avoids_factorization(self, grid, power):
        cache = NeighborFactorCache()
        seed_params = ThermalParams(resistance_scale=4.2)
        KrylovTransientSolver(_network(grid, resistance_scale=4.2), 0.1,
                              seed_params, cache=cache)
        target = _network(grid)
        before = _factorizations()
        hits_before = _krylov("preconditioner_hits")
        krylov = KrylovTransientSolver(target, 0.1, ThermalParams(), cache=cache)
        assert _factorizations() - before == 0
        assert krylov.neighbor_distance is not None
        assert _krylov("preconditioner_hits") == hits_before + 1
        exact = TransientSolver(target, 0.1)
        state = np.full(target.n_nodes, 60.0)
        out_k, out_e = krylov.step(state, power), exact.step(state, power)
        assert krylov.fallback_count == 0
        assert np.abs(out_k - out_e).max() < KRYLOV_TEMPERATURE_TOLERANCE

    def test_exact_design_point_reuses_lu_bitwise(self, net, power):
        cache = NeighborFactorCache()
        first = KrylovTransientSolver(net, 0.1, ThermalParams(), cache=cache)
        before = _factorizations()
        again = KrylovTransientSolver(net, 0.1, ThermalParams(), cache=cache)
        assert _factorizations() - before == 0
        state = np.full(net.n_nodes, 60.0)
        np.testing.assert_array_equal(
            again.step(state, power), first.step(state, power)
        )

    def test_step_many_matches_per_column(self, grid, power):
        cache = NeighborFactorCache()
        KrylovTransientSolver(_network(grid, resistance_scale=4.2), 0.1,
                              ThermalParams(resistance_scale=4.2), cache=cache)
        target = _network(grid)
        krylov = KrylovTransientSolver(target, 0.1, ThermalParams(), cache=cache)
        temps = np.stack(
            [np.full(target.n_nodes, 60.0), np.full(target.n_nodes, 65.0)], axis=1
        )
        powers = np.stack([power, 0.5 * power], axis=1)
        block = krylov.step_many(temps, powers)
        for c in range(2):
            single = krylov.step(temps[:, c], powers[:, c])
            assert np.abs(block[:, c] - single).max() < KRYLOV_TEMPERATURE_TOLERANCE

    def test_fallback_records_and_matches_exact(self, grid, power):
        # A distant neighbor plus a one-iteration budget cannot reach
        # the residual floor: the solver must fall back to its own
        # exact factorization, record it, and answer bitwise-exactly.
        cache = NeighborFactorCache()
        KrylovTransientSolver(_network(grid, resistance_scale=12.0), 0.1,
                              ThermalParams(resistance_scale=12.0), cache=cache)
        target = _network(grid)
        krylov = KrylovTransientSolver(
            target, 0.1, ThermalParams(), cache=cache, max_iterations=1
        )
        assert krylov.fallback_count == 0
        before = _factorizations()
        fallbacks_before = _krylov("fallbacks")
        state = np.full(target.n_nodes, 60.0)
        out = krylov.step(state, power)
        assert krylov.fallback_count == 1
        assert _factorizations() - before == 1
        assert _krylov("fallbacks") == fallbacks_before + 1
        np.testing.assert_array_equal(
            out, TransientSolver(target, 0.1).step(state, power)
        )
        # The fallback LU is retained: subsequent steps are direct and
        # do not fall back again.
        krylov.step(state, power)
        assert krylov.fallback_count == 1

    def test_run_converges_to_steady_state(self, grid, power):
        cache = NeighborFactorCache()
        KrylovTransientSolver(_network(grid, resistance_scale=4.2), 0.1,
                              ThermalParams(resistance_scale=4.2), cache=cache)
        target = _network(grid)
        krylov = KrylovTransientSolver(target, 0.1, ThermalParams(), cache=cache)
        steady = SteadyStateSolver(target).solve(power)
        final = krylov.run(np.full(target.n_nodes, 60.0), power, 100)
        assert np.allclose(final, steady, atol=0.05)

    def test_validations(self, net):
        cache = NeighborFactorCache()
        with pytest.raises(SolverError):
            KrylovTransientSolver(net, 0.0, ThermalParams(), cache=cache)
        with pytest.raises(SolverError):
            KrylovTransientSolver(net, 0.1, ThermalParams(), cache=cache,
                                  tolerance=0.0)
        with pytest.raises(SolverError):
            KrylovTransientSolver(net, 0.1, ThermalParams(), cache=cache,
                                  max_iterations=0)
        solver = KrylovTransientSolver(net, 0.1, ThermalParams(), cache=cache)
        with pytest.raises(SolverError):
            solver.step(np.zeros(3), np.zeros(3))
        with pytest.raises(SolverError):
            solver.step_many(np.zeros((3, 2)), np.zeros((3, 2)))


class TestKrylovSteady:
    def test_matches_exact_solver(self, grid, power):
        cache = NeighborFactorCache()
        seed_net = _network(grid, resistance_scale=4.2)
        KrylovSteadySolver(seed_net, ThermalParams(resistance_scale=4.2),
                           cache=cache)
        target = _network(grid)
        before = _factorizations()
        krylov = KrylovSteadySolver(target, ThermalParams(), cache=cache)
        assert _factorizations() - before == 0
        exact = SteadyStateSolver(target)
        diff = np.abs(krylov.solve(power) - exact.solve(power)).max()
        assert diff < KRYLOV_TEMPERATURE_TOLERANCE
        # Warm-started second solve stays within tolerance too.
        diff = np.abs(krylov.solve(0.5 * power) - exact.solve(0.5 * power)).max()
        assert diff < KRYLOV_TEMPERATURE_TOLERANCE

    def test_solve_many_matches_solve(self, grid, power):
        cache = NeighborFactorCache()
        KrylovSteadySolver(_network(grid, resistance_scale=4.2),
                           ThermalParams(resistance_scale=4.2), cache=cache)
        target = _network(grid)
        krylov = KrylovSteadySolver(target, ThermalParams(), cache=cache)
        exact = SteadyStateSolver(target)
        powers = np.stack([power, 0.25 * power], axis=1)
        block = krylov.solve_many(powers)
        expected = exact.solve_many(powers)
        assert np.abs(block - expected).max() < KRYLOV_TEMPERATURE_TOLERANCE

    def test_shape_check(self, net):
        krylov = KrylovSteadySolver(net, ThermalParams(),
                                    cache=NeighborFactorCache())
        with pytest.raises(SolverError):
            krylov.solve(np.zeros(3))
        with pytest.raises(SolverError):
            krylov.solve_many(np.zeros((3, 2)))


def _neighbor_steady(grid, cache, **solver_kwargs):
    """A steady solver for the default params, preconditioned by the
    LU of a nearby design point."""
    KrylovSteadySolver(_network(grid, resistance_scale=4.2),
                       ThermalParams(resistance_scale=4.2), cache=cache)
    solver = KrylovSteadySolver(
        _network(grid), ThermalParams(), cache=cache, **solver_kwargs
    )
    assert solver._core.neighbor_distance is not None
    return solver


class TestBatchFactorization:
    """Multi-RHS work factorizes the solver's own matrix once; single-RHS
    streams keep iterating."""

    def test_characterization_factorizes_at_most_once_per_setting(self):
        clear_neighbor_cache()
        try:
            seed = ThermalSystem(
                nx=8, ny=8, solver="krylov",
                params=ThermalParams(resistance_scale=4.2),
            )
            krylov = ThermalSystem(nx=8, ny=8, solver="krylov")
            exact = ThermalSystem(nx=8, ny=8)
            power_model = PowerModel(krylov.stack, leakage=LeakageModel())
            utils = np.linspace(0.0, 1.0, 11)
            for k in range(krylov.pump.n_settings):
                seed.steady_solver(k)
                before = _factorizations()
                fields = krylov.steady_temperature_fields(
                    power_model, utils, setting_index=k
                )
                assert _factorizations() - before <= 1
                assert krylov.steady_solver(k)._core.neighbor_distance is not None
                reference = exact.steady_temperature_fields(
                    power_model, utils, setting_index=k
                )
                assert np.abs(fields - reference).max() < KRYLOV_TEMPERATURE_TOLERANCE
        finally:
            clear_neighbor_cache()

    def test_batch_factorizes_once_and_matches_exact(self, grid, power):
        # A one-iteration budget would stall every GMRES solve; once the
        # batch has factorized, no solve iterates or falls back again.
        cache = NeighborFactorCache()
        krylov = _neighbor_steady(grid, cache, max_iterations=1)
        powers = np.stack([power, 0.5 * power], axis=1)
        expected = SteadyStateSolver(_network(grid)).solve_many(powers)
        before_f, before_a = _factorizations(), _krylov("amortized")
        before_g = _krylov("gmres_solves")
        block = krylov.solve_many(powers)
        assert _factorizations() - before_f == 1
        assert _krylov("amortized") - before_a == 1
        assert _krylov("gmres_solves") == before_g
        assert np.abs(block - expected).max() < KRYLOV_TEMPERATURE_TOLERANCE
        # The LU is retained for neighbors and answers later calls
        # directly.
        assert cache.exact(krylov._core.structure, ThermalParams()) is not None
        krylov.solve_many(powers)
        krylov.solve(power)
        assert _factorizations() - before_f == 1
        assert _krylov("gmres_solves") == before_g
        assert krylov.fallback_count == 0

    def test_factorizing_releases_the_neighbor_lu(self, grid, power):
        # A one-entry pool evicts the neighbor when the solver retains
        # its own LU; the solver must not keep the neighbor alive.
        cache = NeighborFactorCache(capacity=1)
        krylov = _neighbor_steady(grid, cache)
        neighbor = krylov._core._precond
        krylov.solve_many(np.stack([power, 0.5 * power], axis=1))
        assert cache.exact(krylov._core.structure, ThermalParams()) is not None
        assert krylov._core._precond is None
        # Only this frame's name (and getrefcount's argument) remain.
        assert sys.getrefcount(neighbor) == 2

    def test_transient_stream_never_factorizes(self, grid, power):
        cache = NeighborFactorCache()
        KrylovTransientSolver(_network(grid, resistance_scale=4.2), 0.1,
                              ThermalParams(resistance_scale=4.2), cache=cache)
        target = _network(grid)
        krylov = KrylovTransientSolver(target, 0.1, ThermalParams(), cache=cache)
        before_f, before_a = _factorizations(), _krylov("amortized")
        state = np.full(target.n_nodes, 60.0)
        for _ in range(30):
            state = krylov.step(state, power)
        assert _factorizations() == before_f
        assert _krylov("amortized") == before_a
        assert krylov.fallback_count == 0

    def test_batch_after_fallback_does_not_factorize_again(self, grid, power):
        cache = NeighborFactorCache()
        krylov = _neighbor_steady(grid, cache, max_iterations=1)
        before_f, before_a = _factorizations(), _krylov("amortized")
        krylov.solve(power)
        assert krylov.fallback_count == 1
        krylov.solve_many(np.stack([power, 0.5 * power], axis=1))
        assert _factorizations() - before_f == 1
        assert _krylov("amortized") == before_a

    def test_factorize_spans_carry_their_reason(self, grid, power):
        trace.enable(capacity=1024)
        trace.clear()
        try:
            cache = NeighborFactorCache()
            krylov = _neighbor_steady(grid, cache)
            krylov.solve_many(np.stack([power, 0.5 * power], axis=1))
            stalled = KrylovSteadySolver(
                _network(grid, resistance_scale=12.0),
                ThermalParams(resistance_scale=12.0),
                cache=cache, max_iterations=1,
            )
            stalled.solve(power)
            reasons = [
                event["attrs"]["reason"]
                for event in trace.events()
                if event["name"] == "factorize"
            ]
        finally:
            trace.disable()
            trace.clear()
        assert reasons == ["miss", "amortize", "fallback"]


class TestSingularNetworks:
    """Failure paths: a singular system must raise SolverError, never
    return garbage, in every solver tier."""

    def test_steady_exact_raises(self, net):
        with pytest.raises(SolverError):
            SteadyStateSolver(_singular(net))

    def test_transient_exact_raises(self, net):
        with pytest.raises(SolverError):
            TransientSolver(_singular(net, zero_capacitance=True), dt=0.1)

    def test_steady_krylov_raises(self, net):
        with pytest.raises(SolverError):
            KrylovSteadySolver(_singular(net), ThermalParams(),
                               cache=NeighborFactorCache())

    def test_transient_krylov_raises(self, net):
        with pytest.raises(SolverError):
            KrylovTransientSolver(
                _singular(net, zero_capacitance=True), 0.1, ThermalParams(),
                cache=NeighborFactorCache(),
            )

    def test_negative_capacitance_raises(self, net):
        bad = replace(net, capacitance=-np.ones_like(net.capacitance))
        with pytest.raises(SolverError):
            KrylovTransientSolver(bad, 0.1, ThermalParams(),
                                  cache=NeighborFactorCache())


class TestCounterThreadSafety:
    def test_concurrent_factorizations_all_counted(self, grid):
        # Each thread factorizes its own fresh network; the counter
        # must account for every one (the increment is lock-guarded).
        n_threads = 8
        nets = [_network(grid, resistance_scale=1.0 + 0.01 * i)
                for i in range(n_threads)]
        before = _factorizations()
        barrier = threading.Barrier(n_threads)

        def build(net):
            barrier.wait()
            TransientSolver(net, dt=0.1)

        threads = [threading.Thread(target=build, args=(n,)) for n in nets]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert _factorizations() - before == n_threads
