"""Benchmark of the sevpred library and CLI.

Run from the root of a source checkout:

    python3 bench/run.py --workload prep_cli --seed 1 --seconds 25 --trace 0

The benchmark generates its inputs from ``--seed`` (setup), runs one warm-up
iteration, then runs the workload's iterations until ``--seconds`` have
passed, checking every iteration's outputs outside the timed region. The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it restate the figures for
people, together with the machine facts and the payload digest.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed. With ``--trace 1`` iterations alternate between untraced
and traced, and the metrics are the per-layer ones from the traced
iterations plus the tracing overhead (traced minus untraced wall time).
Spans are written to ``.bench_out/`` when the run ends.

The sevpred package is imported from ``src/`` of the checkout and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
# one process, and no more BLAS threads than cores; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

from spans import Profile, Tracer  # noqa: E402
from workloads import WORKLOADS, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# set up at least SETUP_MIN times, and up to SETUP_MAX times while the
# set-ups have taken less than SETUP_SECONDS, so short set-ups get more samples
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 25, 2.0
MIN_ITERATIONS = 3
# printed for people on the workloads they apply to, but not gated: a gated
# metric must exist and be non-zero on every workload. The gated rows_per_s
# is each workload's throughput: CSV rows on prep_cli, train_samples_per_s
# (training rows x epochs) on train.
EXTRA_UNITS = {"train_samples_per_s": "samples/s", "predict_rows_per_s": "rows/s", "ber": "ratio",
               "cv_ber": "ratio", "error_rate": "ratio"}


def load_sevpred() -> dict:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sevpred  # noqa: F401
    from sevpred import association, cli, dataset, evaluation, models, neural, preprocess

    if Path(sevpred.__file__).resolve().parent != src / "sevpred":
        raise ImportError(f"sevpred imported from {sevpred.__file__}, not from {src}")
    return {
        "cli": cli, "dataset": dataset, "association": association, "preprocess": preprocess,
        "neural": neural, "models": models, "evaluation": evaluation,
    }


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        sp = load_sevpred()
    except ImportError as exc:
        print(f"bench: cannot import sevpred from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, WORKLOADS[args.workload](sp, ROOT, work, args.seed), Tracer(sp))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, workload, tracer: Tracer) -> int:
    setups = []
    while len(setups) < SETUP_MIN or (sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX):
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)

    attempted, failures, digests = 0, [], set()
    untraced, traced = [], []  # (wall, figures, facts) / (wall, profile, facts)

    def iteration(trace: bool) -> None:
        nonlocal attempted
        try:
            if trace:
                with tracer.installed():
                    root = len(tracer.spans)
                    t0 = perf_counter()
                    with tracer.span("bench.iteration"):
                        out = workload.iterate(tracer)
                    wall = perf_counter() - t0
            else:
                t0 = perf_counter()
                out = workload.iterate(None)
                wall = perf_counter() - t0
        except Exception as exc:  # a failed operation is counted, not fatal
            attempted += 1
            failures.append(f"{workload.name} iteration raised {exc!r}")
            return
        checks, digest, facts = workload.check(out)
        attempted += checks.attempted
        failures.extend(checks.failures)
        digests.add(digest)
        # keep only figures, not the outputs, so memory does not grow with
        # the iteration count
        if trace:
            traced.append((wall, Profile(tracer.spans, root), facts))
        else:
            untraced.append((wall, workload.figures(wall, out, facts), facts))

    iteration(False)  # warm-up: caches fill, lazy set-up finishes
    untraced.clear()
    start = perf_counter()
    while True:
        iteration(bool(args.trace) and len(traced) < len(untraced))
        elapsed = perf_counter() - start
        done = min(len(untraced), len(traced)) if args.trace else len(untraced)
        # a short --seconds or failing iterations stop at twice the time asked
        if elapsed >= args.seconds and (
                done >= MIN_ITERATIONS or (elapsed >= 2 * args.seconds and (done or failures))):
            break
    attempted += 1  # the determinism check across iterations
    if len(digests) > 1:
        failures.append(f"payload digest differs between iterations: {sorted(digests)}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    if not untraced or (args.trace and not traced):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": len(failures), "metrics": {}}))
        return 1

    facts = machine_facts()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [w for w, _, _ in untraced]
    print(f"# machine {json.dumps(facts)}")
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced)} traced iterations, digest {min(digests)}")
    q1, wall_s, q3 = quartiles(walls)
    print(f"# wall_s quartiles {q1:.4f} {wall_s:.4f} {q3:.4f} over {len(walls)} iterations "
          f"(min {min(walls):.4f}, max {max(walls):.4f}); setup_s median of {len(setups)} set-ups")
    print(f"# facts {json.dumps(untraced[-1][2])}")

    if args.trace:
        # one whole traced iteration, the median by wall time, so that the
        # layers' self times add up to its wall time exactly
        wall, profile, f = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
        metrics = layer_metrics(profile, f)
        metrics.update({
            "trace.wall_s": wall,
            "trace.untraced_wall_s": wall_s,
            # untraced and traced iterations alternate; differencing adjacent
            # pairs cancels most of the machine's slow drift in speed
            "trace.overhead_s": statistics.median(t[0] - u[0] for u, t in zip(untraced, traced)),
            "trace.span_cost_s": metrics["trace.spans"] * tracer.span_cost(),
        })
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{workload.name}-seed{args.seed}.json")
    else:
        figures = [f for _, f, _ in untraced]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall_s,
            "rows_per_s": statistics.median(f[workload.throughput] for f in figures),
            "peak_rss_mb": peak_rss_mb,
        }
        extras = {k: statistics.median(f[k] for f in figures) for k in figures[0] if k in EXTRA_UNITS}
        extras["error_rate"] = len(failures) / attempted
        for name, value in {**metrics, **extras}.items():
            print(f"# {name} = {value:.6g} {UNITS.get(name) or EXTRA_UNITS[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(v), "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
