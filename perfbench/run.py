"""Benchmark runner for the protoad pipeline.

One workload:

    python3 perfbench/run.py --workload acceptance --seed 0 --seconds 30 --trace 0

All three workloads, one process each, with a table of every metric:

    python3 perfbench/run.py --all --seed 0

The last line of a single-workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A failed correctness gate makes the run exit with code 1.
"""
from __future__ import annotations

import argparse
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("acceptance", "finetune_long", "score_cli")
HARD_STOP_S = 150.0     # stop starting ops here, whatever --seconds says
# What a user's process pays before protoad can run: interpreter, numpy, protoad.
IMPORT_PROGRAM = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                  "import protoad.cli, protoad.pipeline")


def spec():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    """Where the numbers came from. No thread variable is set, only recorded."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def blas_threads(np):
    """Thread count OpenBLAS uses, read from the library numpy loaded."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs one workload: repeated set-up, then timed ops, with the gates."""

    def __init__(self, workload, seed: int, tracer, workdir: str):
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.outcomes = {}

    def setup(self, pins, quality_seed: int):
        """Set up several times; each time is a fresh-interpreter import plus the set-up."""
        times, prints = [], set()
        for k in range(self.wl.setup_repeats):
            if self.tracer is not None:
                self.tracer.op = f"setup{k}"
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", IMPORT_PROGRAM], check=True, timeout=60)
            state = self.wl.setup(self.seed, quality_seed, self.workdir)
            times.append(time.perf_counter() - t0)
            prints.add(repr(state.fingerprint))
        if len(prints) != 1:
            self.problems.append("set-up is not deterministic: repeated set-ups differ")
        for seed, digest in state.split_hashes.items():
            pinned = pins.get(str(seed))
            if pinned is not None and pinned != digest:
                self.problems.append(f"seed {seed}: split hash {digest} != pinned {pinned}")
        return state, times

    def loop(self, state, budget_s: float, min_ops: int, tag: str, keys):
        """Ops on ``keys`` in turn until ``budget_s`` is spent and ``min_ops`` are done."""
        durations, index = [], 0
        start = time.perf_counter()
        while True:
            if self.tracer is not None:
                self.tracer.op = f"{tag}{index}"
            self.attempted += 1
            key = keys[index % len(keys)]
            try:
                seconds, outcome, problems = self.wl.op(state, key)
            except Exception:
                traceback.print_exc()
                seconds, outcome, problems = None, None, ["op raised"]
            if outcome is not None:
                first = self.outcomes.setdefault(key, outcome)
                if first != outcome:
                    problems.append(f"op {key!r} is not reproducible: {first} != {outcome}")
            if problems:
                self.failed += 1
                self.problems.extend(problems)
            if seconds is not None:
                durations.append(seconds)
            index += 1
            elapsed = time.perf_counter() - start
            typical = statistics.median(durations) if durations else elapsed / index
            if index >= min_ops and elapsed + typical > budget_s:
                break
            if elapsed > HARD_STOP_S or (self.failed and not durations):
                break
        return durations


def run_workload(args) -> int:
    import workloads

    meta = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    bench = spec()
    wl = workloads.WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer("protoad")
        tracer.install(layers.targets())

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env}
    try:
        runner = Runner(wl, args.seed, tracer, workdir)
        state, setup_times = runner.setup(meta["split_hash"], meta["quality_seed"])
        reference = durations = []
        traced = tracer is not None
        keys = wl.keys(state, traced)
        if runner.problems:
            # A set-up that fails its gates leaves nothing worth timing.
            runner.attempted = runner.failed = 1
        elif not traced:
            durations = runner.loop(state, args.seconds, wl.min_ops, "op", keys)
        else:
            # Untraced reference ops first, then the same ops traced: the
            # outcome gate compares them bit for bit.
            tracer.op = "save"
            runner.problems += wl.save_probe(state)
            tracer.uninstall()
            reference = runner.loop(state, args.seconds / 3, wl.min_reference_ops,
                                    "ref", keys)
            tracer.install(layers.targets())
            durations = runner.loop(state, args.seconds - sum(reference),
                                    wl.min_reference_ops, "op", keys)
            tracer.uninstall()
        peak = peak_rss_mb()
        try:
            values, named, facts, found = wl.summarize(state, durations,
                                                       runner.outcomes, traced)
            runner.problems += found
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            runner.problems.append(f"no result to summarize: {exc!r}")
            values, named, facts = {}, {}, {}
        if not traced:
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = peak
            wanted = bench["end_to_end"]
        else:
            ops = [f"op{i}" for i in range(len(durations))]
            values, record["layers"] = layers.derive(tracer, ops, ["save"],
                                                     state.rc.embed_dim)
            if durations and reference:
                # Noise-dominated on the training workloads (one op each).
                named["trace_overhead_measured_ms"] = (
                    1e3 * (statistics.median(durations) - statistics.median(reference)),
                    "ms")
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            wanted = bench["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            runner.problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    named["failed_frac"] = (runner.failed / runner.attempted, "ratio")
    named["peak_rss_mb"] = (peak, "MB")
    for name, (value, unit) in named.items():
        print(f"{args.workload:14s} {name:34s} {value:>16.6g} {unit}")
    for problem in runner.problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)

    record.update({"problems": runner.problems, "facts": facts,
                   "named": {k: v[0] for k, v in named.items()},
                   "setup_times": setup_times, "durations": durations,
                   "metrics": metrics})
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    correct = not runner.problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints one table, writes BENCH_<label>.json."""
    bench = spec()
    kinds = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    results, status = {}, 0
    OUT.mkdir(exist_ok=True)
    for name in WORKLOAD_NAMES:
        record = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.unlink(missing_ok=True)
        print(f"== {name}: {whys[name]}", flush=True)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            status = 1
        print("\n".join(lines[:-1]))
        results[name] = {"result": result,
                         "record": json.loads(record.read_text(encoding="utf-8"))
                         if record.is_file() else None}
        for metric, v in (result or {}).get("metrics", {}).items():
            better = kinds.get(metric, {}).get("better", "?")
            print(f"{name:14s} {metric:34s} {v['value']:>16.6g} {v['unit']:<10s} {better}")
    path = OUT / f"BENCH_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "results": results}, fh, indent=1, sort_keys=True)
    print(f"wrote {path}" + ("" if status == 0 else " (a correctness gate failed)"))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="measuring time per workload (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default="local", help="BENCH_<label>.json name (--all)")
    args = p.parse_args(argv)
    if not (SRC / "protoad" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload or --all")
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
