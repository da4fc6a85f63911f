"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

    # ten seeds, every workload, runs interleaved across workloads
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10
    # the same twice, then how far the second set's medians moved
    python3 perfbench/spread.py --sets 2
    # one seed repeated: pure run-to-run noise, no seed-to-seed variation
    python3 perfbench/spread.py --same-seed 0 --runs 6 --workloads score_cli

Runs the benchmark once per (seed, workload), untraced, one process at a
time, visiting the workloads in turn so slow drifts of the machine hit all
of them alike. Per set, workload and metric it prints the median and the
distance between the first and third quartiles as a share of the median,
``setup_s`` included. A spread above a third of the metric's bound is marked
WIDE, above the bound OVER. With ``--sets 2`` it also marks DRIFT where the
second set's median is worse than the first's by more than the bound. Raw
results go to ``.perfbench_out/spread-<label>.json``. Exits 1 if a run
failed.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload: str, seed: int, seconds: int):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    return ok, wall, {k: v["value"] for k, v in (result or {}).get("metrics", {}).items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+")
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--same-seed", type=int, help="repeat this one seed instead")
    p.add_argument("--runs", type=int, default=10, help="repeats with --same-seed")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--label", default="local")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = [args.same_seed] * args.runs if args.same_seed is not None else args.seeds
    seconds = args.seconds or bench["run_seconds"]

    status = 0
    sets = []
    for s in range(args.sets):
        values = {w: {m["name"]: [] for m in bench["end_to_end"]} for w in workloads}
        for seed in seeds:
            for w in workloads:
                ok, wall, metrics = run_once(bench, w, seed, seconds)
                status |= 0 if ok else 1
                print(f"set {s + 1} {w} seed {seed} ({wall:.0f} s): " +
                      ("" if ok else "FAILED ") +
                      " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
                for name, v in metrics.items():
                    values[w][name].append(v)
        sets.append(values)

    for s, values in enumerate(sets):
        for w in workloads:
            for m in bench["end_to_end"]:
                vals = values[w][m["name"]]
                if len(vals) < 2:
                    continue
                med, sp = spread(vals)
                flag = "OVER" if sp > m["bound"] else "WIDE" if sp > m["bound"] / 3 else ""
                drift = ""
                if s > 0 and len(sets[0][w][m["name"]]) >= 2:
                    first = statistics.median(sets[0][w][m["name"]])
                    worse = (med - first if m["better"] == "lower" else first - med) / first
                    drift = f" vs set 1 {worse:+.4f}" + ("  DRIFT" if worse > m["bound"] else "")
                print(f"set {s + 1} {w:14s} {m['name']:16s} median {med:.6g} "
                      f"spread {sp:.4f} bound {m['bound']} {flag}{drift}")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"spread-{args.label}.json", "w", encoding="utf-8") as fh:
        json.dump({"seeds": seeds, "seconds": seconds, "sets": sets}, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
