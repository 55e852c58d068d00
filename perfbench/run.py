"""Run one cvschmidt benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lowk-pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from its `src/`
directory, never from an installed copy.  The workloads, their inputs and
their closed-form checks are defined in `workloads.py`.

Set-up (import of cvschmidt plus a warm-up that starts the BLAS threads)
is measured in fresh child processes and in this one, and `setup_s` is the
median.  Then tasks run one after another for `--seconds`.  A task's wall
time spans its library calls only; parameters are drawn before it and the
outputs are checked after it.

With `--trace 0` the last stdout line carries the end-to-end metrics.  With
`--trace 1` every other task is traced and the last line carries the
per-layer metrics; the untraced tasks between them give the tracing
overhead, and the spans are written to `.perfbench/` at exit.  The process
exits with 1 when any task fails or misses a check, and with 2 when the
checkout has no `src/cvschmidt`.

End-to-end metrics: `tasks_per_s` (verified tasks over the summed task wall
time), `task_s_p50` (median task wall time; the sample count is printed),
`setup_s` and `peak_rss_mb` (peak resident memory of this process).
`fail_ratio` (failed over attempted tasks) is printed beside them and is
carried by `attempted` and `failed` in the result line.

Per-layer metrics are means per traced task.  `<span>.s` sums the span's
seconds, `<module>.self_s` sums the module's spans minus the child spans
they cover, and counts (`.bytes`, `.calls`, `epr_sim.draws`) and ratios are
taken at the same boundaries.  `task.unaccounted_share` is the part of task
wall time no top-level span covers; `trace.overhead_share` compares the
traced and untraced task medians.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from importlib import metadata
from pathlib import Path

from tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"tasks_per_s": "1/s", "task_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MODULES = ("gaussian_model", "discretize", "schmidt", "information", "epr_sim", "cli")
CLI_COMMANDS = ("decompose", "simulate", "table1", "mutual-info", "thermo", "info")
SPAN_METRICS = {
    "gaussian_model.wavefunction.s": ("gaussian_model.wavefunction",),
    "discretize.sample_state.s": ("discretize.sample_state",),
    "discretize.shannon_mi_numeric.s": ("discretize.shannon_mi_numeric",),
    "discretize.write_state_file.s": ("discretize.write_state_file",),
    "discretize.read_state_file.s": ("discretize.read_state_file",),
    "schmidt.decompose.s": ("schmidt.decompose",),
    "schmidt.scalars.s": ("schmidt.schmidt_number", "schmidt.entanglement_entropy"),
    "information.info_report.s": ("information.info_report",),
    "epr_sim.run_coincidence_experiment.s": ("epr_sim.run_coincidence_experiment",),
    **{f"cli.{command}.s": (f"cli.{command}",) for command in CLI_COMMANDS},
}
COUNT_UNITS = {
    "discretize.support_fraction": "ratio",
    "discretize.write_state_file.bytes": "bytes",
    "discretize.read_state_file.bytes": "bytes",
    "schmidt.useful_mode_ratio": "ratio",
    "epr_sim.draws": "count",
    "epr_sim.peak_alloc_mb": "MB",
    "cli.output_bytes": "bytes",
}


def blas_thread_limit() -> int:
    """Cap every BLAS pool at the CPUs this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def set_up(name: str, workdir: Path):
    """Import cvschmidt from the checkout and warm up; return (workload, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import cvschmidt
    import workloads

    if Path(cvschmidt.__file__).resolve().parent != (SRC / "cvschmidt").resolve():
        raise RuntimeError(f"cvschmidt imported from {cvschmidt.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[name]
    workload.warm_up(workdir)
    return workload, time.perf_counter() - start


def probe_setup(name: str) -> float:
    """Set-up seconds of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with {proc.returncode}:\n{proc.stderr}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


def blas_threads_reported():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_reported": blas_threads_reported(),
        "nproc": nproc,
        "seed": seed,
    }


def run_tasks(workload, seed: int, seconds: float, trace: bool, tracer, workdir: Path) -> list:
    """Closed loop with one caller; in a traced run every other task is traced."""
    from workloads import InputStream

    stream = InputStream(seed)
    records = []
    deadline = time.perf_counter() + seconds
    while len(records) < (2 if trace else 1) or time.perf_counter() < deadline:
        task_id = len(records)
        task = workload.draw(stream)
        traced = trace and task_id % 2 == 0
        record = {"task": task_id, "traced": traced, "wall_s": None, "failures": []}
        gc.collect()
        tracer.begin(task_id, traced)
        try:
            start = time.perf_counter()
            result = workload.run(task, tracer, workdir)
            record["wall_s"] = time.perf_counter() - start
            tracer.end()
            record["failures"] = workload.check(task, result, workdir)
            if traced:
                for name, value in workload.counts(task, result, workdir).items():
                    tracer.count(name, value)
        except Exception as exc:  # a task that raises is counted as failed, the loop goes on
            traceback.print_exc(file=sys.stderr)
            record["failures"].append(f"raised {type(exc).__name__}: {exc}")
        finally:
            tracer.end()
        for failure in record["failures"]:
            print(f"task {task_id} FAILED: {failure}", file=sys.stderr)
        records.append(record)
        result = None
    return records


def end_to_end(records: list, setups: list) -> dict:
    verified = [r for r in records if not r["failures"]]
    walls = [r["wall_s"] for r in records if r["wall_s"] is not None]
    busy = sum(walls)
    return {
        "tasks_per_s": len(verified) / busy if busy > 0 else 0.0,
        "task_s_p50": statistics.median(r["wall_s"] for r in verified) if verified else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(records: list, tracer: Tracer) -> dict:
    """Per-task means over the traced tasks, plus tracing overhead and coverage."""
    traced = [r for r in records if r["traced"] and r["wall_s"] is not None]
    untraced = [r for r in records if not r["traced"] and r["wall_s"] is not None]
    n = len(traced)
    spans = tracer.spans
    seconds, own, calls = Counter(), Counter(), Counter()
    top_level = 0.0
    for (name, start, end, parent, _), self_s in zip(spans, self_times(spans)):
        seconds[name] += end - start
        own[name] += self_s
        calls[name] += 1
        if parent < 0:
            top_level += end - start

    metrics = {m: (sum(seconds[x] for x in names) / n, "s") for m, names in SPAN_METRICS.items()}
    metrics["discretize.sample_state.self_s"] = (own["discretize.sample_state"] / n, "s")
    metrics["schmidt.decompose.calls"] = (calls["schmidt.decompose"] / n, "count")
    for module in MODULES:
        module_own = sum(v for k, v in own.items() if k.split(".")[0] == module)
        metrics[f"{module}.self_s"] = (module_own / n, "s")
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (sum(tracer.counts[r["task"]][name] for r in traced) / n, unit)

    traced_walls = [r["wall_s"] for r in traced]
    metrics["task.unaccounted_share"] = (1.0 - top_level / sum(traced_walls), "ratio")
    traced_p50 = statistics.median(traced_walls)
    untraced_p50 = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.task_s_p50"] = (traced_p50, "s")
    metrics["trace.untraced_task_s_p50"] = (untraced_p50, "s")
    metrics["trace.overhead_share"] = (traced_p50 / untraced_p50 - 1.0, "ratio")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="Only measure import plus warm-up and print it as JSON.")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cvschmidt" / "__init__.py").is_file():
        print(f"error: {SRC / 'cvschmidt'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    nproc = blas_thread_limit()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.setup_probe:
            _, seconds = set_up(args.workload, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        setups = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
        workload, seconds = set_up(args.workload, workdir)
        setups.append(seconds)
        tracer = Tracer()
        env = environment(args.seed, nproc)
        records = run_tasks(workload, args.seed, args.seconds, bool(args.trace), tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in records if r["failures"])
    print(f"workload {workload.name}: {workload.why}")
    print("environment " + json.dumps(env))
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    walls = [r["wall_s"] for r in records if r["wall_s"] is not None]
    print(f"task walls (s): {', '.join(f'{s:.4f}' for s in walls)}")
    if args.trace:
        metrics = per_layer(records, tracer)
        path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps({"environment": env, "tasks": records,
                                    "spans": tracer.spans}) + "\n", encoding="utf-8")
        print(f"spans of {sum(r['traced'] for r in records)} traced tasks written to {path}")
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(records, setups).items()}
    verified = len(records) - failed
    for name, (value, unit) in metrics.items():
        note = f"  (median of {verified} tasks)" if name == "task_s_p50" else ""
        print(f"{name:40s} {value:.6g} {unit}{note}")
    print(f"{'fail_ratio':40s} {failed / len(records):.6g} ratio  ({failed} of {len(records)})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
