"""The ``solver`` config axis: signatures, sweeps, neighbor cohorts."""

import pytest

from repro.errors import ConfigurationError
from repro.runner import cohort_signature, group_cohorts, structural_signature
from repro.sim.config import SimulationConfig
from repro.sweep import SweepSpec
from repro.sweep.spec import config_signature
from repro.thermal.rc_network import ThermalParams


class TestSolverSignature:
    def test_default_solver_omitted_from_signature(self):
        # Pre-solver fingerprints, checkpoints, and dist ledgers must
        # keep validating, so the default tier never appears.
        assert "solver" not in config_signature(SimulationConfig())

    def test_krylov_solver_recorded_in_signature(self):
        signature = config_signature(SimulationConfig(solver="krylov"))
        assert signature["solver"] == "krylov"

    def test_fingerprint_discriminates_solver(self):
        exact = SweepSpec(base=SimulationConfig(duration=2.0))
        krylov = SweepSpec(base=SimulationConfig(duration=2.0, solver="krylov"))
        assert exact.fingerprint() != krylov.fingerprint()


class TestSolverAxis:
    def test_solver_is_sweepable(self):
        spec = SweepSpec(grid={"solver": ["exact", "krylov"]})
        points = list(spec.iter_points())
        assert [p.config.solver for p in points] == ["exact", "krylov"]
        assert "solver=krylov" in points[1].key

    def test_bad_solver_rejected_at_declaration(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(grid={"solver": ["superlu"]})

    def test_validate_all_names_bad_later_solver(self):
        spec = SweepSpec(grid={"solver": ["exact", "superlu"]})
        with pytest.raises(ConfigurationError, match="solver"):
            spec.validate_all()


def _configs(solver, scales=(4.0, 4.4)):
    return [
        SimulationConfig(
            duration=2.0,
            solver=solver,
            thermal_params=ThermalParams(resistance_scale=scale),
        )
        for scale in scales
    ]


class TestNeighborCohorts:
    def test_structural_signature_ignores_thermal_params(self):
        a, b = _configs("krylov")
        assert cohort_signature(a) != cohort_signature(b)
        assert structural_signature(a) == structural_signature(b)

    def test_structural_signature_respects_geometry(self):
        a, b = _configs("krylov")
        wide = SimulationConfig(
            duration=2.0, solver="krylov", nx=32,
            thermal_params=ThermalParams(resistance_scale=4.0),
        )
        assert structural_signature(a) != structural_signature(wide)

    def test_default_grouping_unchanged_by_neighbors_flag(self):
        # Exact-tier configs partition by their full signature whatever
        # neighbor grouping does for krylov configs: byte-identity of
        # the default path rides on this.
        assert group_cohorts(_configs("exact")) == [[0], [1]]

    def test_krylov_configs_form_neighbor_cohorts(self):
        assert group_cohorts(_configs("krylov")) == [[0, 1]]

    def test_mixed_tiers_never_share_a_cohort(self):
        configs = _configs("exact", scales=(4.0,)) + _configs(
            "krylov", scales=(4.0,)
        )
        groups = group_cohorts(configs)
        assert len(groups) == 2
