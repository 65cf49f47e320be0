"""Cohort planning: grouping partitions any expansion, runs that
execute back to back share kernels (no re-factorization), and a batch
is byte-identical to a plain ``Simulator.run`` loop (through the sweep
layer too, in ``tests/sweep/test_cohort_sweep.py``)."""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import BatchRunner, cohort_signature, group_cohorts
from repro.runner.cohort import split_cohort
from repro.sim import engine
from repro.sim.cache import CharacterizationCache, clear_system_memo
from repro.sim.config import CoolingMode, SimulationConfig
from repro.sweep import SweepSpec
from repro.telemetry import metrics

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import assert_results_identical


def policy_seed_configs(n=4, duration=0.5, **overrides):
    """n same-network configs differing only in policy/seed."""
    kwargs = dict(nx=12, ny=12, duration=duration)
    kwargs.update(overrides)
    configs = [
        SimulationConfig(policy=policy, seed=seed, **kwargs)
        for seed in (0, 1)
        for policy in ("TALB", "LB", "Mig", "RR")
    ]
    return configs[:n]


# Axis values the property test draws sweep grids from — all jointly
# valid, spanning every field of the cohort signature plus fields that
# must NOT affect it (policy, seed, benchmark).
AXES = {
    "policy": ("TALB", "LB", "RR"),
    "benchmark_name": ("gzip", "Web-med"),
    "nx": (6, 8),
    "n_layers": (2, 4),
    "cooling": ("Var", "Max", "Air"),
    "sampling_interval": (0.1, 0.2),
    "seed": (0, 1),
}


@st.composite
def sweep_grids(draw):
    names = draw(
        st.lists(
            st.sampled_from(sorted(AXES)), unique=True, min_size=1, max_size=4
        )
    )
    return {
        name: draw(
            st.lists(
                st.sampled_from(AXES[name]),
                unique=True,
                min_size=1,
                max_size=len(AXES[name]),
            )
        )
        for name in names
    }


class TestGroupingPartition:
    @given(grid=sweep_grids())
    @settings(max_examples=30, deadline=None)
    def test_grouping_partitions_any_expansion(self, grid):
        """Every run lands in exactly one cohort, cohorts agree on
        their thermal signature, and distinct cohorts differ."""
        spec = SweepSpec(
            base=SimulationConfig(duration=0.3, nx=8, ny=8),
            grid=grid,
            name="prop",
        )
        configs = [point.config for point in spec.iter_points()]
        cohorts = group_cohorts(configs)
        flat = sorted(i for members in cohorts for i in members)
        assert flat == list(range(len(configs)))
        for members in cohorts:
            assert members == sorted(members)
            signatures = {cohort_signature(configs[i]) for i in members}
            assert len(signatures) == 1
        firsts = [cohort_signature(configs[members[0]]) for members in cohorts]
        assert len(set(firsts)) == len(firsts)

    def test_signature_ignores_non_thermal_fields(self):
        base = SimulationConfig(duration=0.5)
        same = SimulationConfig(
            duration=9.0, policy="RR", seed=7, benchmark_name="gzip"
        )
        assert cohort_signature(base) == cohort_signature(same)
        for override in (
            {"nx": 8}, {"ny": 8}, {"n_layers": 4},
            {"cooling": CoolingMode.AIR}, {"sampling_interval": 0.2},
        ):
            other = SimulationConfig(duration=0.5, **override)
            assert cohort_signature(base) != cohort_signature(other)

    def test_singletons_fall_back_to_serial_groups(self):
        """An all-distinct-signature batch plans one group per run."""
        configs = [
            SimulationConfig(nx=nx, ny=nx, duration=0.3) for nx in (6, 8, 10)
        ]
        batch = BatchRunner(configs)
        assert batch._plan_groups() == [[0], [1], [2]]

    def test_split_cohort_is_balanced_and_ordered(self):
        members = list(range(10))
        for parts in (1, 2, 3, 4, 10, 99):
            slices = split_cohort(members, parts)
            assert [i for part in slices for i in part] == members
            sizes = [len(part) for part in slices]
            assert max(sizes) - min(sizes) <= 1
            assert len(slices) == min(parts, len(members))


def simulator_runs(configs):
    """The plain reference: one ``Simulator(config).run()`` per config."""
    return [engine.Simulator(config).run() for config in configs]


class TestCohortByteIdentity:
    def test_exact_cohort_equals_serial(self):
        configs = policy_seed_configs(6)
        expected = simulator_runs(configs)
        batch = BatchRunner(configs).run()
        assert [r.index for r in batch.runs] == list(range(len(configs)))
        for result, run in zip(expected, batch.runs):
            assert_results_identical(result, run.result)

    def test_exact_cohort_equals_serial_parallel(self):
        configs = policy_seed_configs(4, duration=0.3)
        expected = simulator_runs(configs)
        batch = BatchRunner(configs, max_workers=2).run()
        assert [r.index for r in batch.runs] == list(range(len(configs)))
        for result, run in zip(expected, batch.runs):
            assert_results_identical(result, run.result)

    def test_mixed_networks_partition_and_match(self):
        """Two interleaved cohorts plus a singleton, batch vs plain loop."""
        configs = []
        for seed in (0, 1):
            configs.append(SimulationConfig(seed=seed, nx=12, ny=12, duration=0.4))
            configs.append(SimulationConfig(seed=seed, nx=8, ny=8, duration=0.4))
        configs.append(SimulationConfig(cooling=CoolingMode.AIR, nx=8, ny=8, duration=0.4))
        assert [len(c) for c in group_cohorts(configs)] == [2, 2, 1]
        expected = simulator_runs(configs)
        batch = BatchRunner(configs).run()
        for result, run in zip(expected, batch.runs):
            assert_results_identical(result, run.result)


class TestFactorizationSharing:
    def test_warm_cohort_adds_no_factorizations(self):
        """The algorithmic perf gate: a warm cohort campaign performs
        zero LU factorizations — every (network, dt) system is hit at
        most once per process, however many runs step through it."""
        configs = policy_seed_configs(8, duration=0.3)
        factorizations = metrics.counter("solver.factorizations")
        BatchRunner(configs).run()
        before = factorizations.value()
        BatchRunner(configs).run()
        assert factorizations.value() == before

    def test_cold_factorizations_independent_of_cohort_size(self):
        """<=1 factorization per network: 8 runs through one network
        factorize exactly as much as 2 runs (cooling Max pins the pump,
        so the visited settings cannot differ)."""

        factorizations = metrics.counter("solver.factorizations")

        def cold_count(n):
            clear_system_memo()
            configs = policy_seed_configs(n, duration=0.3, cooling=CoolingMode.LIQUID_MAX)
            before = factorizations.value()
            BatchRunner(configs, cache=CharacterizationCache()).run()
            return factorizations.value() - before

        assert cold_count(8) == cold_count(2)
