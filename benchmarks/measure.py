"""Measurement loop, metrics and result output of the benchmark."""
from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
from workloads import WORKLOADS, CliRunner

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 7
# A fresh interpreter that imports the package and reports back.
IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import gpsdenoise; "
                "print('ready', flush=True)")


@dataclass
class Pass:
    """One pass of a workload: its units' latencies, operations and spans."""

    traced: bool
    latencies: list[float] = field(default_factory=list)
    ops: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def measure_setup(workload, work: Path) -> float:
    """Median of fresh-process import plus writing the workload's inputs."""
    samples = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            import_s = time.perf_counter() - t0
        if proc.returncode != 0 or ready.strip() != "ready":
            raise RuntimeError(f"import probe failed with exit code {proc.returncode}")
        t0 = time.perf_counter()
        workload.write_inputs(work / f"setup-{i}")
        samples.append(import_s + time.perf_counter() - t0)
    return statistics.median(samples)


def run_passes(workload, rec: tracer.Recorder, seconds: int, traced: bool) -> list[Pass]:
    """Closed loop of passes for about `seconds`; traced runs alternate passes.

    A pass is not started when it would likely end past `seconds`, unless
    the minimum (one pass, or one untraced and one traced) is not reached.
    """
    passes: list[Pass] = []
    index = 0
    t0 = time.perf_counter()
    while True:
        p = Pass(traced=traced and len(passes) % 2 == 1)
        for _ in range(workload.units_per_pass):
            rec.active = p.traced
            start = time.perf_counter()
            ops = workload.run_unit(index)
            p.latencies.append(time.perf_counter() - start)
            rec.active = False
            workload.verify(index, ops)
            for op in ops:
                op.release()
            p.ops.extend(ops)
            index += 1
        p.spans = rec.take()
        passes.append(p)
        elapsed = time.perf_counter() - t0
        if len(passes) >= 1 + traced and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def method_figures(p: Pass) -> dict[str, float]:
    """Training time, accuracy and speedup of one pass, from run_method results."""
    results = [r for op in p.ops for r in op.results]
    conv = [r for r in results if r.method == "conventional"]
    impr = [r for r in results if r.method == "improved"]
    conv_by_train = {r.train: r.train_s for r in conv}
    ratios = [conv_by_train[r.train] / r.train_s for r in impr
              if r.train in conv_by_train and r.train_s > 0]
    return {
        "conv_train_s": sum(r.train_s for r in conv),
        "impr_train_s": sum(r.train_s for r in impr),
        "conv_mse": max((r.output_mse for r in conv), default=0.0),
        "impr_mse": max((r.output_mse for r in impr), default=0.0),
        "pipeline.speedup_geomean": statistics.geometric_mean(ratios) if ratios else 0.0,
        "stages": sum(r.stages for r in results),
    }


def window_figures(workload, passes: list[Pass]) -> dict:
    """Per-window latency percentiles; only window_export has windows."""
    lat = [x for p in passes for x in p.latencies]
    if workload.units_per_pass == 1 or len(lat) < 2:
        return {"window_p50_s": 0.0, "window_p90_s": 0.0}
    p90 = statistics.quantiles(lat, n=10)[-1]
    return {
        "window_p50_s": statistics.median(lat),
        "window_p90_s": p90,
        "window_samples": len(lat),
        "window_beyond_p90": sum(x > p90 for x in lat),
    }


def median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]} if dicts else {}


def blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, when numpy ships one."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cache_bytes() -> dict[str, int]:
    """Data and unified cache sizes of cpu0, read from sysfs."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for d in sorted(base.glob("index*")):
            if (d / "type").read_text().strip() == "Instruction":
                continue
            text = (d / "size").read_text().strip()
            scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
            sizes[f"L{(d / 'level').read_text().strip()}"] = int(text.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return sizes


def fingerprint(nproc: int, workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    caches = cache_bytes()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "l2_bytes": caches.get("L2"),
        "l3_bytes": caches.get("L3"),
        # computed: one n*n float64 candidate kernel, beside the L3 size
        "kernel_bytes": 8 * workload.n_samples ** 2,
        "n_samples": workload.n_samples,
    }


def run(args, nproc: int, t_start: float) -> int:
    """Set up, measure, check and print the result line; returns the exit code."""
    imported_s = time.perf_counter() - t_start
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    WORK_ROOT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK_ROOT / f"{tag}-pid{os.getpid()}"
    rec = tracer.Recorder()
    runner = CliRunner(rec)
    workload = WORKLOADS[args.workload](runner, work, args.seed)
    try:
        setup_s = measure_setup(workload, work)
        t0 = time.perf_counter()
        workload.setup()
        inprocess_s = imported_s + time.perf_counter() - t0
        rec.install(runner.hooks())
        try:
            passes = run_passes(workload, rec, args.seconds, args.trace == 1)
        finally:
            rec.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    figures = {
        "setup_s": setup_s,
        "setup_inprocess_s": inprocess_s,
        "wall_s": statistics.median(p.wall for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": len(plain),
        "pass_wall_s": [p.wall for p in plain],
        **median_of([method_figures(p) for p in plain]),
        **window_figures(workload, plain),
    }
    # accuracy is deterministic at a fixed seed: take it from the first pass
    first = method_figures(passes[0])
    figures["conv_mse"], figures["impr_mse"] = first["conv_mse"], first["impr_mse"]
    if traced:
        figures.update(median_of([tracer.layer_metrics(p.spans) for p in traced]))
        figures["traced_passes"] = len(traced)
        figures["trace_overhead_s"] = (statistics.median(p.wall for p in traced)
                                       - figures["wall_s"])
        tracer.write_spans([p.spans for p in traced], WORK_ROOT / f"spans-{tag}.jsonl")

    ops = runner.ops
    failed = [op for op in ops if op.problems]
    for op in failed[:5]:
        print(f"run_bench: failed: {' '.join(op.argv)}: {'; '.join(op.problems)}",
              file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    listed = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in listed},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fingerprint(nproc, workload),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in figures.items() if k in units},
        "other": {k: v for k, v in figures.items() if k not in units},
    }
    (WORK_ROOT / f"result-{tag}.json").write_text(
        json.dumps({**details, "result": result}, indent=1), encoding="ascii")
    print(json.dumps(details))
    print(json.dumps(result))
    return 1 if failed else 0
