"""Run the benchmark over many seeds and record the results in one file.

From the root of a source checkout:

    python3 bench/collect.py --label seed --seeds 1-10 --out bench/BENCH_seed.json

This runs ``bench/run.py`` untraced once per workload and seed, one process
at a time, going round the workloads for each seed in turn so that the
machine's slow drift in speed falls on every workload alike. Then it runs
each workload traced on the first seed. It records every run's
result and payload digest, the median and quartiles of each end-to-end
metric with the spread (q3 - q1) / median, the per-layer metrics of the
traced run, and each layer's share of the traced wall time: the most a
change to that layer alone can save on that workload. Two such files from
the same machine are a before/after pair.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# machine "):
            result["machine"] = json.loads(line[len("# machine "):])
        elif line.startswith("# workload "):
            result["digest"] = line.rsplit(" ", 1)[-1]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    report = {"label": args.label, "seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            r = run_once(name, seed, spec["run_seconds"], 0)
            report["machine"] = r.pop("machine")
            runs[name].append({"seed": seed, **r,
                               "metrics": {k: v["value"] for k, v in r["metrics"].items()}})
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={v:.5g}" for k, v in runs[name][-1]["metrics"].items()),
                  flush=True)
    for name in names:
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs[name]]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / median, "bound": metric["bound"]}
            print(f"{name} {metric['name']}: median {median:.5g}, spread {(q3 - q1) / median:.3f} "
                  f"(bound {metric['bound']})", flush=True)
        traced = run_once(name, seeds[0], spec["run_seconds"], 1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        shares = {k[: -len(".share")]: v for k, v in layer.items() if k.endswith(".share")}
        print(f"{name} layer shares of traced wall_s: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()),
              flush=True)
        report["workloads"][name] = {
            "runs": runs[name],
            "end_to_end": summary,
            "traced": {"seed": seeds[0], "digest": traced["digest"], "metrics": layer},
            "layer_shares": shares,
        }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
