"""The three benchmark workloads and their correctness gates.

Each workload has a ``setup`` (repeated by the runner, so its time is a
median), an ``op`` (one timed operation on one key) and a ``summarize``.
``op`` returns ``(seconds, outcome, problems)``: the runner requires every op
with the same key to produce the same outcome, untraced and traced alike, and
counts an op with problems as failed.

Detection quality (``auroc``, ``pretrain_auroc``) is always measured at the
fixed quality seed of ``workloads.json``, whatever ``--seed`` is. At a fixed
seed the program is deterministic, so these two metrics repeat exactly from
run to run and their bounds can be tight; at the run's own seed they vary by
several percent from seed to seed. The run's own seed still sets every
timed input, and its quality figures are printed alongside.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import protoad
from protoad import checkpoint, cli, config, data, evalharness, pipeline

# Captured before the tracer wraps anything, so the benchmark's own checks
# never show up in the per-layer spans.
_auroc = evalharness.auroc
_load_checkpoint = checkpoint.load_checkpoint
_split_hash = evalharness.split_hash
_build_splits = pipeline.build_splits
SRC = Path(protoad.__file__).resolve().parent.parent


def _digest_split(rc) -> str:
    split = _build_splits(rc)
    return _split_hash(split.train, split.validation, split.test)


def _file_sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _seeds(state):
    """The run's seed and the quality seed, each once."""
    return list(dict.fromkeys((state.seed, state.quality_seed)))


def upper_percentile(values):
    """(percentile, value): p90, or the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    p = 90 if n >= 100 else int(100 * (n - 10) / n)
    return p, float(np.percentile(values, p))


class TrainingWorkload:
    """One ``pipeline.run_single`` per op on the acceptance geometry.

    Untraced ops alternate between the run's seed and the quality seed, so
    the run's seed repeats (the repeat gate) and the quality seed gives the
    quality metrics. Run time does not depend on the seed: the epoch counts
    are fixed.
    """

    min_ops = 3          # run seed, quality seed, run seed again
    min_reference_ops = 1
    setup_repeats = 7    # set-up is about 0.35 s, mostly interpreter start-up

    def __init__(self, **overrides):
        self.overrides = overrides

    def setup(self, seed: int, quality_seed: int, workdir: str):
        state = SimpleNamespace(seed=seed, quality_seed=quality_seed)
        state.rcs = {s: config.preset("acceptance").replace(seed=s, **self.overrides)
                     .validated() for s in _seeds(state)}
        state.split_hashes = {s: _digest_split(rc) for s, rc in state.rcs.items()}
        state.fingerprint = sorted(state.split_hashes.items())
        state.rc = state.rcs[seed]
        return state

    def keys(self, state, traced: bool):
        return [state.seed] if traced else _seeds(state)

    def save_probe(self, state):
        return []        # run_single saves no checkpoint

    def op(self, state, key):
        t0 = time.perf_counter()
        report = pipeline.run_single(state.rcs[key])
        seconds = time.perf_counter() - t0
        outcome = (report["final_auroc"], report["best_checkpoint_epoch"],
                   report["split_hash"], report["pretrain_baseline_auroc"])
        problems = []
        if report["split_hash"] != state.split_hashes[key]:
            problems.append(f"seed {key}: run_single split hash differs from the set-up split")
        for name in ("final_auroc", "pretrain_baseline_auroc"):
            if not 0.0 <= report[name] <= 1.0:
                problems.append(f"seed {key}: {name}={report[name]!r} is not an AUROC")
        return seconds, outcome, problems

    def summarize(self, state, durations, outcomes, traced: bool):
        final_auroc, best_epoch, split_hash, pretrain_auroc = outcomes[state.seed]
        named = {"run_s": (statistics.median(durations), "s"),
                 "final_auroc": (final_auroc, "auroc"),
                 "pretrain_auroc": (pretrain_auroc, "auroc"),
                 "best_epoch": (best_epoch, "epoch"),
                 "runs": (len(durations), "count")}
        e2e = {"op_p50_s": statistics.median(durations)}
        if not traced:
            q_final, q_epoch, _, q_pretrain = outcomes[state.quality_seed]
            e2e.update(auroc=q_final, pretrain_auroc=q_pretrain)
            named.update(quality_final_auroc=(q_final, "auroc"),
                         quality_pretrain_auroc=(q_pretrain, "auroc"),
                         quality_best_epoch=(q_epoch, "epoch"))
        return e2e, named, {"split_hash": split_hash}, []


class ScoreCliWorkload:
    """A closed loop with one client sending ``protoad score`` requests.

    Set-up trains a checkpoint with the ``protoad`` command (gen-data,
    pretrain, finetune), each step in its own interpreter as a user runs
    it, so the measuring process's peak memory covers only request files
    and scoring. It then writes request files drawn from the training
    geometry (same component means) with noise under a seed the model never
    saw.
    """

    n_requests = 10
    request_rows = 1000
    min_ops = min_reference_ops = n_requests    # every request file at least once
    setup_repeats = 3    # set-up trains a checkpoint: about 2.5 s
    train_args = ("--pretrain-epochs", "4", "--finetune-epochs", "4")

    @staticmethod
    def _cli(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _train(self, seed: int, workdir: str):
        """Checkpoint and request files for one seed."""
        prefix = os.path.join(workdir, "data")
        pre_ckpt = os.path.join(workdir, "pretrain.ckpt")
        ckpt = os.path.join(workdir, "finetune.ckpt")
        common = ["--preset", "acceptance", "--seed", str(seed), *self.train_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        for argv in (["gen-data", *common, "--out", prefix],
                     ["pretrain", *common, "--data", prefix, "--out", pre_ckpt],
                     ["finetune", "--checkpoint", pre_ckpt, "--data", prefix,
                      "--out", ckpt]):
            proc = subprocess.run([sys.executable, "-m", "protoad.cli", *argv], env=env,
                                  stdout=subprocess.DEVNULL, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"protoad {argv[0]} exited with {proc.returncode}")

        rc = config.preset("acceptance").replace(seed=seed)
        pool = data.generate(rc.synthetic_spec())
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5C0E]))
        fresh = pool.means[pool.cluster_id] + rc.within_spread * rng.standard_normal(
            pool.features.shape)
        order = rng.permutation(len(fresh))
        requests = []
        for r in range(self.n_requests):
            rows = order[r * self.request_rows:(r + 1) * self.request_rows]
            ds = data.Dataset(fresh[rows], np.zeros(len(rows), dtype=np.int64),
                              np.arange(len(rows)), pool.true_class[rows])
            path = os.path.join(workdir, f"request{r}.ds")
            data.write_dataset(path, ds)
            requests.append(SimpleNamespace(path=path, labels=ds.eval_normal_labels()))
        return SimpleNamespace(workdir=workdir, ckpt=ckpt, pre_ckpt=pre_ckpt,
                               prefix=prefix, requests=requests)

    def setup(self, seed: int, quality_seed: int, workdir: str):
        state = self._train(seed, workdir)
        state.seed, state.quality_seed = seed, quality_seed
        state.rc = config.preset("acceptance").replace(seed=seed)
        state.split_hashes = {
            s: _digest_split(config.preset("acceptance").replace(seed=s))
            for s in _seeds(state)}
        state.fingerprint = (sorted(state.split_hashes.items()), _file_sha(state.ckpt),
                             tuple(_file_sha(r.path) for r in state.requests))
        state.eval_seconds = []
        return state

    def keys(self, state, traced: bool):
        return list(range(self.n_requests))

    def save_probe(self, state):
        """Save the loaded set-up checkpoint again; it must come out byte for byte."""
        ck = _load_checkpoint(state.ckpt)
        path = os.path.join(state.workdir, "resaved.ckpt")
        checkpoint.save_checkpoint(path, config=ck.config, epoch=ck.epoch,
                                   params=ck.params, prototypes=ck.prototypes,
                                   rng_state=ck.rng_state)
        if _file_sha(path) != _file_sha(state.ckpt):
            return ["save_checkpoint of a loaded checkpoint changed its bytes"]
        return []

    @staticmethod
    def pretrain_auroc(state) -> float:
        """Pre-train-only test AUROC of a set-up checkpoint, as run_single reports it."""
        split = SimpleNamespace(train=data.read_dataset(f"{state.prefix}.train.ds"),
                                test=data.read_dataset(f"{state.prefix}.test.ds"))
        return pipeline.pretrain_uniformity_baseline(
            SimpleNamespace(split=split, pretrained=_load_checkpoint(state.pre_ckpt)))

    def op(self, state, r):
        req = state.requests[r]
        scores_path = os.path.join(state.workdir, f"scores{r}.jsonl")
        eval_path = os.path.join(state.workdir, f"eval{r}.json")
        t0 = time.perf_counter()
        code = self._cli(["score", "--checkpoint", state.ckpt, "--input", req.path,
                          "--out", scores_path])
        seconds = time.perf_counter() - t0
        if code != 0:
            return seconds, None, [f"protoad score exited with {code}"]
        t0 = time.perf_counter()
        code = self._cli(["eval", "--scores", scores_path, "--input", req.path,
                          "--out", eval_path])
        state.eval_seconds.append(time.perf_counter() - t0)
        if code != 0:
            return seconds, None, [f"protoad eval exited with {code}"]

        problems = []
        by_id = {}
        with open(scores_path, "r", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["id"] in by_id:
                    problems.append(f"request {r}: id {rec['id']} scored twice")
                by_id[rec["id"]] = rec["score"]
        if sorted(by_id) != list(range(len(req.labels))):
            problems.append(f"request {r}: scored ids are not exactly the request ids")
            return seconds, None, problems
        scores = np.array([by_id[i] for i in range(len(req.labels))])
        if not np.all(np.isfinite(scores)):
            problems.append(f"request {r}: non-finite scores")
        with open(eval_path, "r", encoding="utf-8") as fh:
            eval_auroc = json.load(fh)["auroc"]
        if eval_auroc != _auroc(scores, req.labels):
            problems.append(f"request {r}: protoad eval AUROC differs from auroc()")
        return seconds, (_file_sha(scores_path), eval_auroc), problems

    def _quality(self, state, outcomes):
        """Mean ``protoad eval`` AUROC over the request files, and the pretrain AUROC.

        Runs after timing ends, so neither the quality seed's scoring nor the
        pretrain AUROC's test x train similarity matrix sets ``peak_rss_mb``.
        """
        problems = []
        if state.quality_seed != state.seed:
            qdir = os.path.join(state.workdir, "quality")
            os.mkdir(qdir)
            qstate = self._train(state.quality_seed, qdir)
            qstate.eval_seconds = []
            outcomes = {}
            for r in range(self.n_requests):
                _, outcomes[r], found = self.op(qstate, r)
                problems += [f"quality seed: {p}" for p in found]
            state = qstate
        score_auroc = statistics.fmean(outcomes[r][1] for r in range(self.n_requests))
        return score_auroc, self.pretrain_auroc(state), problems

    def summarize(self, state, durations, outcomes, traced: bool):
        per_file = [outcomes[r][1] for r in range(self.n_requests)]
        rows_per_s = self.request_rows * len(durations) / sum(durations)
        e2e = {"op_p50_s": statistics.median(durations)}
        named = {"score_p50_ms": (1e3 * statistics.median(durations), "ms")}
        p, tail = upper_percentile(durations)
        if p is not None:
            named[f"score_p{p}_ms"] = (1e3 * tail, "ms")
        named.update({"score_rows_per_s": (rows_per_s, "rows/s"),
                      "score_auroc": (statistics.fmean(per_file), "auroc"),
                      "eval_p50_ms": (1e3 * statistics.median(state.eval_seconds), "ms"),
                      "requests": (len(durations), "count")})
        problems = []
        if not traced:
            score_auroc, pretrain_auroc, problems = self._quality(state, outcomes)
            e2e.update(auroc=score_auroc, pretrain_auroc=pretrain_auroc)
            named.update(quality_score_auroc=(score_auroc, "auroc"),
                         quality_pretrain_auroc=(pretrain_auroc, "auroc"))
        return e2e, named, {"split_hash": state.split_hashes[state.seed]}, problems


WORKLOADS = {
    "acceptance": TrainingWorkload(),
    "finetune_long": TrainingWorkload(pretrain_epochs=4, finetune_epochs=100),
    "score_cli": ScoreCliWorkload(),
}
