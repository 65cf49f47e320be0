"""Repository benchmark: campaign throughput, set-up, memory and accuracy.

Run from the repository root::

    python3 perfbench/run.py --workload policy_sweep --seed 3 --seconds 10 --trace 0

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(``intervals_per_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1``
it reports the per-layer metrics of one traced campaign, measured from
outside the program (see ``layers.py``). The line before it is a JSON
detail record: provenance, every sample with its quartiles, check
results. ``--write-reference`` re-records ``reference.json`` at the
default seed; ``smoke.py`` runs every workload at a tiny size.

See NOTES.md for why each workload exists and what dominates it.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: BLAS/OpenMP threads. Campaigns run serially; one BLAS thread keeps
#: the measurement free of thread spin on a shared box.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

#: glibc's mmap threshold, fixed at its initial default. Left dynamic,
#: glibc raises it after large frees and then keeps freed LU factors on
#: the heap, so peak RSS swung by 100+ MB between identical runs.
MMAP_THRESHOLD = 128 * 1024


def _fix_mmap_threshold() -> bool:
    import ctypes

    try:
        # The interpreter's own symbols include the C library's.
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_mmap_threshold = -3
    return mallopt(m_mmap_threshold, MMAP_THRESHOLD) == 1


MMAP_THRESHOLD_FIXED = _fix_mmap_threshold()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    # Never fall back to some other installed copy of the package.
    sys.exit(f"perfbench: no src/repro in {ROOT}; run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

#: Times set-up is repeated in one run; setup_s reports the median.
SETUP_REPEATS = 3

#: Fewest timed campaigns per run, whatever ``--seconds`` says.
MIN_CAMPAIGNS = 3

#: Where campaigns write checkpoints, journals and exports.
WORK_DIR = ROOT / ".perfbench_work"


def remove_workdir(workdir: Path) -> None:
    """Delete this run's scratch directory, and the shared parent once
    no other run is using it."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "values": values}


def provenance(seed: int, tiny: bool) -> dict:
    import numpy
    import scipy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "malloc_mmap_threshold": MMAP_THRESHOLD if MMAP_THRESHOLD_FIXED else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "tiny": tiny,
    }


COUNT_METRICS = (
    "sim.intervals",
    "thermal.transient.solves",
    "thermal.factorize.count",
    "thermal.steady.solves",
    "thermal.gmres.solves",
    "thermal.gmres.iterations",
    "thermal.krylov.fallbacks",
    "sched.calls",
    "control.forecaster.retrains",
    "facility.advance.calls",
    "runner.cohorts",
    "runner.steady_inits",
    "io.fsync.calls",
    "io.rename.calls",
)

RATIO_METRICS = (
    "thermal.krylov.precond_hit_ratio",
    "sim.characterization.hit_ratio",
    "sim.system_memo.hit_ratio",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit."""
    from layers import TIME_LAYERS, metric_name

    names = [(metric_name(layer), "s") for layer in TIME_LAYERS]
    names += [("unattributed.s", "s")]
    names += [(name, "count") for name in COUNT_METRICS]
    names += [(name, "ratio") for name in RATIO_METRICS]
    names += [
        ("io.journal.bytes", "bytes"),
        ("trace.wall.s", "s"),
        ("trace.untraced_wall.s", "s"),
        ("trace.overhead.s", "s"),
        ("accuracy.max_dT_vs_ref_K", "K"),
    ]
    return names


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(record, output, untraced_walls, traced_walls, max_dt) -> tuple[dict, dict]:
    """Per-layer metrics of one traced campaign, plus trace diagnostics."""
    from layers import ROOT as ROOT_LAYER
    from layers import TIME_LAYERS, TRACE_CAPACITY, metric_name

    self_s, misnested = record.self_times()
    unknown = set(self_s) - set(TIME_LAYERS) - {ROOT_LAYER}
    values = {metric_name(layer): self_s.get(layer, 0.0) for layer in TIME_LAYERS}
    values["unattributed.s"] = self_s[ROOT_LAYER]
    counter = record.counter
    values.update({
        "sim.intervals": output.intervals,
        "thermal.transient.solves": record.calls["thermal.transient.solves"],
        "thermal.factorize.count": counter("solver.factorizations"),
        "thermal.steady.solves": record.span_count("steady", "n_rhs"),
        "thermal.gmres.solves": counter("solver.krylov.gmres_solves"),
        "thermal.gmres.iterations": counter("solver.krylov.iterations"),
        "thermal.krylov.fallbacks": counter("solver.krylov.fallbacks"),
        "sched.calls": record.calls["sched.calls"],
        "control.forecaster.retrains": sum(int(r["arma_retrains"]) for r in output.rows),
        "facility.advance.calls": record.span_count("facility.advance"),
        "runner.cohorts": record.span_count("cohort.execute"),
        "runner.steady_inits": record.calls["runner.steady_inits"],
        "io.fsync.calls": record.calls["io.fsync.calls"],
        "io.rename.calls": record.calls["io.rename.calls"],
        "thermal.krylov.precond_hit_ratio": _ratio(
            counter("solver.krylov.preconditioner_hits"),
            counter("solver.krylov.preconditioner_misses"),
        ),
        "sim.characterization.hit_ratio": _ratio(
            counter("cache.characterization.hits"),
            counter("cache.characterization.misses"),
        ),
        "sim.system_memo.hit_ratio": _ratio(
            counter("cache.system.hits"), counter("cache.system.misses")
        ),
        "io.journal.bytes": output.journal_bytes,
        "trace.wall.s": record.wall_s,
        "trace.untraced_wall.s": statistics.median(untraced_walls),
        "trace.overhead.s": statistics.median(traced_walls)
        - statistics.median(untraced_walls),
        "accuracy.max_dT_vs_ref_K": max_dt,
    })
    parts = sum(self_s.values())
    diagnostics = {
        "parts_sum_s": parts,
        "parts_sum_error_s": parts - record.wall_s,
        "misnested_intervals": misnested,
        "unmapped_spans": sorted(record.merged_intervals()[1]),
        "unknown_layers": sorted(unknown),
        "spans_recorded": len(record.spans),
        "ring_full": len(record.spans) >= TRACE_CAPACITY,
        "shares": {
            name: values[name] / record.wall_s
            for name in [metric_name(layer) for layer in TIME_LAYERS] + ["unattributed.s"]
            if values[name] / record.wall_s >= 0.005
        },
    }
    units = dict(per_layer_names())
    return {name: {"value": values[name], "unit": units[name]} for name in units}, diagnostics


def trace_consistent(diagnostics: dict, wall: float) -> bool:
    """Parts sum to the whole, nothing misnested, nothing dropped."""
    return (
        abs(diagnostics["parts_sum_error_s"]) <= 1.0e-6 * max(wall, 1.0)
        and diagnostics["misnested_intervals"] == 0
        and not diagnostics["unknown_layers"]
        and not diagnostics["ring_full"]
    )


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tiny: bool
) -> tuple[dict, dict]:
    import traceback

    import workloads as wl
    from layers import LayerTracer

    import_s = time.perf_counter() - _START
    workload = wl.WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir()
    probe = wl.OutputProbe()
    probe.install()
    ctx = wl.Context(workload=workload, seed=seed, tiny=tiny, workdir=workdir, probe=probe)
    try:
        setup_samples = []
        for _ in range(1 if tiny else SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(ctx)
            setup_samples.append(time.perf_counter() - start)
        n_runs = ctx.spec.run_count

        tracer = LayerTracer()
        untraced, traced = [], []  # (wall, output)
        records = []
        errors = []
        attempted = 0
        loop_start = time.perf_counter()
        min_campaigns = 1 if tiny else MIN_CAMPAIGNS
        while True:
            want_trace = trace and len(untraced) > len(traced)
            workload.prepare(ctx)
            attempted += n_runs
            try:
                if want_trace:
                    record = tracer.run_traced(lambda: workload.campaign(ctx))
                    records.append(record)
                    traced.append((record.wall_s, record.output))
                else:
                    start = time.perf_counter()
                    output = workload.campaign(ctx)
                    untraced.append((time.perf_counter() - start, output))
            except Exception:  # a broken program: count the runs, keep going
                errors.append(traceback.format_exc())
            elapsed = time.perf_counter() - loop_start
            done = len(untraced) + len(traced) + len(errors)
            enough = len(traced) >= 1 if trace else done >= min_campaigns
            if elapsed >= seconds and enough:
                break
            if errors and elapsed >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks = wl.Checks()
        outputs = [out for _, out in untraced + traced]
        for output in outputs:
            wl.check_physics(checks, ctx.spec, output)
        for output in outputs[1:]:
            wl.check_same_series(checks, outputs[0], output, workload.tolerance, "repeat")
        if outputs and seed == wl.DEFAULT_SEED and not tiny:
            reference = json.loads((HERE / "reference.json").read_text())[name]
            for output in outputs:
                wl.check_reference(checks, reference, output, workload.tolerance)
        if outputs:
            workload.cross_check(ctx, checks, outputs)
    finally:
        probe.uninstall()
        remove_workdir(workdir)

    if "campaign" in checks.failures or errors:
        failed = attempted
    else:
        failed = min(attempted, len(checks.failures) * len(outputs))

    walls_u = [wall for wall, _ in untraced]
    rates = [out.intervals / wall for wall, out in untraced]
    samples = {
        "setup_repeats_s": quartiles(setup_samples),
        "import_s": import_s,
        "campaign_s": quartiles(walls_u) if walls_u else None,
        "intervals_per_s": quartiles(rates) if rates else None,
    }
    correct = failed == 0 and not errors
    detail = {
        "workload": name,
        "provenance": dict(provenance(seed, tiny), samples=len(untraced) + len(traced)),
        "samples": samples,
        "runs_per_campaign": n_runs,
        "failed_share": failed / attempted,
        "max_dT_vs_ref_K": checks.max_dt,
        "failures": {key: reasons[:3] for key, reasons in list(checks.failures.items())[:10]},
        "errors": [e.splitlines()[-1] for e in errors[:3]],
        "notes": ctx.notes,
    }
    if errors:
        print(errors[0], file=sys.stderr)

    if trace:
        if not records:
            correct = False
            metrics = {}
        else:
            traced_walls = [wall for wall, _ in traced]
            order = sorted(range(len(records)), key=lambda i: records[i].wall_s)
            chosen = records[order[(len(order) - 1) // 2]]
            metrics, diagnostics = layer_metrics(
                chosen, chosen.output, walls_u or traced_walls, traced_walls, checks.max_dt
            )
            detail["trace"] = diagnostics
            if not trace_consistent(diagnostics, chosen.wall_s):
                correct = False
    else:
        metrics = {}
        if rates:
            metrics = {
                "intervals_per_s": {"value": statistics.median(rates), "unit": "intervals/s"},
                "setup_s": {
                    "value": import_s + statistics.median(setup_samples), "unit": "s"
                },
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
    return detail, {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def write_reference() -> None:
    """Record every workload's run summaries at the default seed."""
    import workloads as wl

    reference = {}
    probe = wl.OutputProbe()
    probe.install()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"reference-{os.getpid()}"
    workdir.mkdir()
    try:
        for name, workload in wl.WORKLOADS.items():
            ctx = wl.Context(
                workload=workload, seed=wl.DEFAULT_SEED, tiny=False,
                workdir=workdir, probe=probe,
            )
            workload.setup(ctx)
            workload.prepare(ctx)
            reference[name] = wl.reference_rows(workload.campaign(ctx))
            print(f"{name}: {len(reference[name])} runs", flush=True)
    finally:
        probe.uninstall()
        remove_workdir(workdir)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    (HERE / "reference.json").write_text(text)


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are >= 0")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=non_negative, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (smoke test)")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference()
        return 0
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    detail, result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
    )
    for metric, entry in result["metrics"].items():
        print(f"{args.workload} {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
