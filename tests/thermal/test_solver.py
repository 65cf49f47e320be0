"""Steady-state and transient solvers."""

import numpy as np
import pytest

from repro import units
from repro.errors import SolverError
from repro.geometry.stack import build_stack
from repro.telemetry import metrics
from repro.thermal.grid import ThermalGrid
from repro.thermal.rc_network import ThermalParams, build_network
from repro.thermal.solver import (
    SteadyStateSolver,
    TransientSolver,
    initial_state,
)

FLOW = units.ml_per_minute(400.0)


@pytest.fixture(scope="module")
def net():
    grid = ThermalGrid(build_stack(2), nx=8, ny=8)
    return build_network(grid, ThermalParams(), cavity_flows=[FLOW])


@pytest.fixture(scope="module")
def power(net):
    return net.grid.power_vector({(0, f"core{i}"): 3.0 for i in range(8)})


class TestSteadyState:
    def test_shape_check(self, net):
        with pytest.raises(SolverError):
            SteadyStateSolver(net).solve(np.zeros(3))

    def test_finite(self, net, power):
        temps = SteadyStateSolver(net).solve(power)
        assert np.all(np.isfinite(temps))

    def test_initial_state_zero_power(self, net):
        temps = initial_state(net)
        assert np.allclose(temps, 60.0, atol=1e-6)

    def test_initial_state_repeatable(self, net):
        np.testing.assert_array_equal(initial_state(net), initial_state(net))


class TestTransient:
    def test_converges_to_steady_state(self, net, power):
        steady = SteadyStateSolver(net).solve(power)
        solver = TransientSolver(net, dt=0.1)
        temps = np.full(net.n_nodes, 60.0)
        temps = solver.run(temps, power, 100)
        assert np.allclose(temps, steady, atol=0.05)

    def test_steady_state_is_fixed_point(self, net, power):
        steady = SteadyStateSolver(net).solve(power)
        solver = TransientSolver(net, dt=0.1)
        after = solver.step(steady, power)
        assert np.allclose(after, steady, atol=1e-8)

    def test_monotone_heating_from_cold(self, net, power):
        solver = TransientSolver(net, dt=0.1)
        temps = np.full(net.n_nodes, 60.0)
        tmax_series = []
        for _ in range(20):
            temps = solver.step(temps, power)
            tmax_series.append(net.grid.max_die_temperature(temps))
        diffs = np.diff(tmax_series)
        assert np.all(diffs >= -1e-9)

    def test_stable_with_large_dt(self, net, power):
        """Backward Euler is unconditionally stable: even a huge step
        must land near the steady state, not blow up."""
        solver = TransientSolver(net, dt=100.0)
        temps = solver.step(np.full(net.n_nodes, 60.0), power)
        steady = SteadyStateSolver(net).solve(power)
        assert np.all(np.isfinite(temps))
        assert np.abs(temps - steady).max() < 1.0

    def test_cooling_after_power_off(self, net, power):
        solver = TransientSolver(net, dt=0.1)
        hot = SteadyStateSolver(net).solve(power)
        cooled = solver.run(hot, np.zeros(net.n_nodes), 200)
        assert np.allclose(cooled, 60.0, atol=0.05)

    def test_rejects_bad_dt(self, net):
        with pytest.raises(SolverError):
            TransientSolver(net, dt=0.0)

    def test_rejects_shape_mismatch(self, net, power):
        solver = TransientSolver(net, dt=0.1)
        with pytest.raises(SolverError):
            solver.step(np.zeros(3), power)

    def test_rejects_negative_steps(self, net, power):
        solver = TransientSolver(net, dt=0.1)
        with pytest.raises(SolverError):
            solver.run(np.full(net.n_nodes, 60.0), power, -1)

    def test_thermal_time_constant_under_1s(self, net, power):
        """The paper quotes a stack thermal time constant below 100 ms;
        our liquid stack must equilibrate within about a second."""
        solver = TransientSolver(net, dt=0.1)
        steady = SteadyStateSolver(net).solve(power)
        temps = np.full(net.n_nodes, 60.0)
        temps = solver.run(temps, power, 10)  # 1 s.
        gap = np.abs(temps - steady).max()
        initial_gap = np.abs(60.0 - steady).max()
        assert gap < 0.05 * initial_gap


class TestStepMany:
    def test_columns_match_single_steps(self, net, power):
        solver = TransientSolver(net, dt=0.1)
        t0 = initial_state(net, power)
        temps = np.stack([t0, t0 + 1.0, t0 - 2.0], axis=1)
        powers = np.stack([power, 0.5 * power, 2.0 * power], axis=1)
        block = solver.step_many(temps, powers)
        assert block.shape == temps.shape
        for j in range(3):
            single = solver.step(temps[:, j], powers[:, j])
            # SuperLU's blocked multi-RHS kernels round differently
            # than the single-vector path: equivalent to LU roundoff,
            # documented as such (the cohort runner's bitwise default
            # therefore steps per column).
            np.testing.assert_allclose(block[:, j], single, rtol=0, atol=1e-9)

    def test_single_column_block_is_exact(self, net, power):
        solver = TransientSolver(net, dt=0.1)
        t0 = initial_state(net, power)
        block = solver.step_many(t0[:, None], power[:, None])
        np.testing.assert_array_equal(block[:, 0], solver.step(t0, power))

    def test_shape_mismatch_raises(self, net, power):
        solver = TransientSolver(net, dt=0.1)
        t0 = initial_state(net, power)
        with pytest.raises(SolverError):
            solver.step_many(t0, power)  # 1-D inputs
        with pytest.raises(SolverError):
            solver.step_many(t0[:, None], np.stack([power, power], axis=1))


class TestFactorizationCounter:
    def test_counts_each_factorization_once(self, net):
        factorizations = metrics.counter("solver.factorizations")
        before = factorizations.value()
        solver = TransientSolver(net, dt=0.05)
        assert factorizations.value() == before + 1
        # Stepping never factorizes.
        state = np.full(net.n_nodes, 40.0)
        solver.step(state, np.zeros(net.n_nodes))
        assert factorizations.value() == before + 1
        SteadyStateSolver(net)
        assert factorizations.value() == before + 2
