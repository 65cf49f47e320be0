"""Batch orchestration: run many simulations, serially or in parallel.

See :mod:`repro.runner.batch` for the design; the experiments layer
(:func:`repro.experiments.common.run_matrix`), the ``repro batch`` CLI
command, and ``benchmarks/bench_batch.py`` all route multi-run work
through :class:`BatchRunner`, which orders every batch by thermal
cohort (:mod:`repro.runner.cohort`) so runs sharing one network reuse
its memoized kernel back to back.
"""

from repro.runner.batch import (
    BatchResult,
    BatchRun,
    BatchRunner,
    ReducedRun,
    reseeded,
)
from repro.runner.cohort import (
    cohort_signature,
    group_cohorts,
    structural_signature,
)

__all__ = [
    "BatchRunner",
    "BatchResult",
    "BatchRun",
    "ReducedRun",
    "cohort_signature",
    "group_cohorts",
    "structural_signature",
    "reseeded",
]
