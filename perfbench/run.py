"""saldet benchmark: one workload, timed end to end, or traced per layer.

Run from the root of a saldet checkout:

    python3 perfbench/run.py --workload ablation --seed 0 --seconds 30 --trace 0

Workloads: ``ablation``, ``dense_proposals``, ``large_images`` (see
``workloads.py`` for what each stresses and why). The package is imported
from ``src/`` of the checkout, never from an installed copy; without it the
command exits 2 and prints no result.

Set-up (``import saldet`` plus making the inputs from ``--seed``) runs
``SETUP_REPEATS`` times and ``setup_s`` is the median. Workload runs then
repeat until ``--seconds`` have passed, at least ``MIN_RUNS`` times.
``run_s`` is the median run, and each throughput the median over runs
of a stage's images over its time in the run. Every end-to-end time is
wall time scaled to a reference host speed by a probe timed before and
after each timed call (see ``speed.py``); unscaled wall times are printed.
With ``--trace 1`` the last set-up and every second run are traced, and
only the per-layer metrics are reported: each is the value of one traced
set-up plus the mean over the traced runs. The spans are written to
``perfbench/out/trace-<workload>-seed<n>.jsonl.gz``.

A run fails when it raises, when ``saldet.cli.main`` returns non-zero,
when an evaluation value is non-finite or outside [0, 1], or when its
parameter digests differ from the first run's. On ``ablation`` at seed 0
the acceptance floors and CorLoc order are gated, and one grid pair per
variant must equal ``saldet.benchmark.run_variant``. Any failure makes
``correct`` false and the exit code 1. The last stdout line is the result
JSON: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread, set before numpy loads: the host gives the benchmark two
# shared cores, and a second BLAS thread on arrays this small made step
# times slower and twice as variable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import envinfo  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
MIN_RUNS = 2
# no run starts when it would likely end after this many seconds of runs,
# which keeps the whole process inside 180 s
RUN_DEADLINE_S = 140.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("train_images_per_s", "1/s"),
    ("eval_images_per_s", "1/s"),
    ("seeds_images_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("corloc", "fraction"),
    ("detection_map", "fraction"),
    ("success_frac", "fraction"),
)

SALDET_MODULES = (
    "core", "dataio", "seeds", "_accel", "model", "trainer", "evaluate", "cli", "benchmark",
)


def import_saldet():
    """Import ``saldet`` afresh (dropping any loaded copy); returns its modules."""
    for name in [n for n in sys.modules if n == "saldet" or n.startswith("saldet.")]:
        del sys.modules[name]
    modules = {
        name.lstrip("_"): importlib.import_module(f"saldet.{name}")
        for name in SALDET_MODULES
    }
    return SimpleNamespace(pkg=sys.modules["saldet"], **modules)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs for the smoke test; skips the standard-grid gates")
    p.add_argument("--inject-failure", action="store_true",
                   help="make the first run raise, to test failure accounting")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "saldet" / "__init__.py").is_file():
        print(f"error: no saldet package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, workdir: Path) -> int:
    setup_fn, run_fn = workloads.WORKLOADS[args.workload]

    tracer = tracing.Tracer() if args.trace else None
    clock = speed.Clock()
    setup_times, setup_walls = [], []
    for k in range(SETUP_REPEATS):
        gc.collect()
        raw_start, scaled_start = clock.mark()
        sd = import_saldet()
        if tracer is not None and k == SETUP_REPEATS - 1:
            tracer.run_id = tracing.SETUP_RUN_ID
            with tracer:
                inputs = setup_fn(sd, args.seed, workdir, args.tiny)
        else:
            inputs = setup_fn(sd, args.seed, workdir, args.tiny)
        raw_end, scaled_end = clock.mark()
        setup_times.append(scaled_end - scaled_start)
        setup_walls.append(raw_end - raw_start)
    pkg_file = Path(sd.pkg.__file__).resolve()
    if ROOT / "src" not in pkg_file.parents:
        print(f"error: saldet imported from {pkg_file}, not from the checkout",
              file=sys.stderr)
        return 2

    runs = []  # (traced, RunStats)
    begin = time.perf_counter()
    while True:
        # a run starts only if its expected midpoint falls inside the window
        elapsed = time.perf_counter() - begin
        typical = _median([s.wall_s for _, s in runs])
        if len(runs) >= MIN_RUNS and (
            elapsed + typical / 2 >= args.seconds or elapsed + typical > RUN_DEADLINE_S
        ):
            break
        traced = bool(args.trace) and len(runs) % 2 == 1
        stats = workloads.RunStats(clock=clock)
        gc.collect()
        raw_start, scaled_start = clock.mark()
        try:
            if args.inject_failure and not runs:
                raise RuntimeError("injected failure")
            if traced:
                tracer.run_id = len(runs)
                with tracer:
                    run_fn(sd, inputs, stats)
            else:
                run_fn(sd, inputs, stats)
        except Exception as exc:  # a failed run is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            stats.problems.append(f"raised {type(exc).__name__}: {exc}")
        raw_end, scaled_end = clock.mark()
        stats.wall_s = raw_end - raw_start
        stats.run_s = scaled_end - scaled_start
        runs.append((traced, stats))

    ok = [s for _, s in runs if not s.problems]
    reference = ok[0] if ok else runs[0][1]
    for stats in ok[1:]:
        if stats.digests != reference.digests:
            stats.problems.append("parameter digests differ from the first run's")

    attempted = len(runs)
    extra_problems = []
    gated = args.workload == "ablation" and not args.tiny and ok
    if gated and args.seed == workloads.DEFAULT_SEED:
        floor = workloads.floor_problems(reference.reports)
        for _, stats in runs:
            stats.problems += floor
    if gated:
        attempted += 1
        extra_problems = workloads.composition_problems(sd, inputs, reference.reports)
    failed = sum(1 for _, s in runs if s.problems) + (1 if extra_problems else 0)

    report_lines(args, sd, runs, setup_times, setup_walls, extra_problems)
    if args.trace:
        metrics = per_layer_metrics(args, tracer, runs, reference)
    else:
        metrics = end_to_end_metrics(runs, setup_times, reference, attempted, failed)
    for name, m in metrics.items():
        print(f"metric {name:<40} {m['value']:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def end_to_end_metrics(runs, setup_times, reference, attempted, failed):
    timed = [s for traced, s in runs if not traced and not s.problems] or [
        s for _, s in runs
    ]
    print(f"timed runs: {len(timed)}; run_s and each stage rate are their "
          f"medians, all scaled to the host speed at which the probe takes "
          f"{speed.PROBE_REF_S} s")

    def rate(count, seconds):
        return _median([_rate(getattr(s, count), getattr(s, seconds)) for s in timed])

    values = {
        "setup_s": _median(setup_times),
        "run_s": _median([s.run_s for s in timed]),
        "train_images_per_s": rate("train_steps", "train_s"),
        "eval_images_per_s": rate("eval_images", "eval_s"),
        "seeds_images_per_s": rate("seeds_images", "seeds_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "corloc": reference.corloc,
        "detection_map": reference.detection_map,
        "success_frac": 1.0 - failed / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer_metrics(args, tracer, runs, reference):
    n_traced = max(1, sum(1 for traced, _ in runs if traced))
    values = {}
    setup = tracer.layer_times(setup=True)
    run_self_s = {}
    for name, per_runs in tracer.layer_times(setup=False).items():
        for field, once, total in zip(("calls", "total_s", "self_s"), setup[name], per_runs):
            values[f"{name}.{field}"] = once + total / n_traced
        run_self_s[name] = per_runs[2] / n_traced
    steps = tracer.step_times_us()
    values["trainer.step_us_p50"] = float(np.percentile(steps, 50)) if steps else 0.0
    values["trainer.step_us_p99"] = float(np.percentile(steps, 99)) if steps else 0.0

    def count(key):
        return tracer.counters[True][key] + tracer.counters[False][key] / n_traced

    for key in [f"accel.{k}.bytes" for k in tracing.GRID_KERNELS] + [
        "accel.nms_keep.pairs", "dataio.load_dataset.bytes", "model.save_checkpoint.bytes",
    ]:
        values[key] = count(key)
    values["evaluate.nms.keep_ratio"] = _rate(
        count("evaluate.nms.kept"), count("evaluate.nms.in")
    )
    values["seeds.seed_hit_rate"] = _rate(*reference.seed_hits)
    values["seeds.negative_hit_rate"] = _rate(*reference.negative_hits)
    plain = _median([s.run_s for traced, s in runs if not traced])
    with_spans = _median([s.run_s for traced, s in runs if traced])
    values["trace_overhead_frac"] = with_spans / plain - 1.0 if plain and with_spans else 0.0

    out_path = BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(out_path)
    print(f"spans {len(tracer.spans)} written to {out_path.relative_to(ROOT)}")
    _print_module_shares(run_self_s, _median([s.wall_s for traced, s in runs if traced]))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in tracing.per_layer_names()}


def _print_module_shares(self_s, run_s):
    """Self time per saldet module in one traced run, as a share of its wall time."""
    shares = {}
    for module, functions in tracing.TARGETS.items():
        total = sum(self_s[tracing.metric_prefix(module, f)] for f in functions)
        shares[module.lstrip("_")] = total / run_s if run_s else 0.0
    print("self-time share of a traced run: " + ", ".join(
        f"{m} {v:.1%}" for m, v in sorted(shares.items(), key=lambda kv: -kv[1])
    ))


def report_lines(args, sd, runs, setup_times, setup_walls, extra_problems):
    """Human-readable lines printed before the result JSON."""
    record = envinfo.environment(sd.accel)
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": len(setup_times),
        "runs": len(runs),
        "traced_runs": sum(1 for traced, _ in runs if traced),
    })
    print("env " + json.dumps(record, sort_keys=True))
    print("setup " + json.dumps({
        "scaled_s": [round(t, 6) for t in setup_times],
        "wall_s": [round(t, 6) for t in setup_walls],
    }))
    for k, (traced, stats) in enumerate(runs):
        print("run " + json.dumps({
            "index": k,
            "traced": traced,
            "wall_s": round(stats.wall_s, 6),
            "run_s": round(stats.run_s, 6),
            "problems": stats.problems,
            "digests": stats.digests,
        }, sort_keys=True))
    for problem in extra_problems:
        print(f"problem: {problem}")
    for _, stats in runs:
        for problem in stats.problems:
            print(f"problem: {problem}", file=sys.stderr)
    if args.workload == "ablation":
        reference = next((s for _, s in runs if s.reports), None)
        if reference is not None and not args.tiny:
            means = workloads.variant_means(reference.reports)
            grid = f"seeds {min(s for _, s in reference.reports)}.."
            grid += f"{max(s for _, s in reference.reports)}"
            print(f"grid means ({grid}) vs README table (seeds 0..4), not gated:")
            for variant, (c, m) in means.items():
                rc, rm = workloads.README_TABLE[variant]
                print(f"  {variant:<9} CorLoc {c:.3f} (README {rc:.3f})  "
                      f"test mAP {m:.3f} (README {rm:.3f})")


if __name__ == "__main__":
    raise SystemExit(main())
