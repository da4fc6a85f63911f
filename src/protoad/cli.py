"""Command-line front end.

Subcommands: gen-data, pretrain, finetune, score, eval, scenario, ablation.
Every config key can come from a preset, a JSON config file, a dedicated
flag, or a generic --set key=value override (applied in that order). All
commands are deterministic under (inputs, seed); artifacts embed the
effective configuration.

Exit codes: 0 success, 2 usage, 3 validation, 4 IO, 5 numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import objective as obj
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ConfigError, PRESETS, RunConfig, preset
from .data import ValidationError, read_dataset, write_dataset
from .encoder import EncoderDims
from .evalharness import auroc, evaluate_scores
from .mathcore import NumericError
from .pipeline import (build_splits, finetune_stage, pretrain_stage, run_ablation,
                       run_grid, run_pollution_sweep, run_single)

ENV_SEED = "PROTOAD_SEED"
METRICS_SCHEMA = 1


# --------------------------------------------------------------------------
# Config plumbing
# --------------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", default="default", choices=sorted(PRESETS))
    p.add_argument("--config", help="JSON config file overriding the preset")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.add_argument("--seed", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--gamma-l", type=float, dest="gamma_l")
    p.add_argument("--gamma-p", type=float, dest="gamma_p")
    p.add_argument("--scenario", choices=("s1", "s2", "s3"))
    p.add_argument("--mode", choices=("elsa", "elsa_plus"))
    p.add_argument("--prototypes", type=int, dest="n_prototypes")
    p.add_argument("--loss", choices=obj.LOSSES, dest="loss_name")
    p.add_argument("--score", choices=obj.SCORES, dest="score_name")
    p.add_argument("--c-mode", choices=obj.C_MODES, dest="c_mode")
    p.add_argument("--pretrain-epochs", type=int, dest="pretrain_epochs")
    p.add_argument("--finetune-epochs", type=int, dest="finetune_epochs")
    p.add_argument("--samples-per-class", type=int, dest="samples_per_class")
    p.add_argument("--input-dim", type=int, dest="input_dim")
    p.add_argument("--n-ensemble", type=int, dest="n_ensemble")
    p.add_argument("--ensemble-mode", choices=obj.ENSEMBLE_MODES, dest="ensemble_mode")


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def resolve_config(args, base: Optional[dict] = None) -> RunConfig:
    """The effective configuration of one command.

    The preset is the starting point. A checkpoint snapshot (``base``)
    replaces it whole, and a ``--config`` file replaces either whole. Then
    dedicated flags apply, then ``--set`` pairs, so a ``--set`` beats its
    flag. ``PROTOAD_SEED`` applies last, and only when ``--seed`` is absent.
    """
    rc = preset(args.preset)
    if base:
        rc = RunConfig.from_dict(base)
    if args.config:
        rc = RunConfig.from_json_file(args.config)
    overrides = {}
    for field in dataclasses.fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            overrides[field.name] = value
    for pair in args.set:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        overrides[key.strip()] = _parse_value(raw.strip())
    if overrides:
        rc = RunConfig.from_dict({**rc.to_dict(), **overrides})
    if getattr(args, "seed", None) is None and ENV_SEED in os.environ:
        raw = os.environ[ENV_SEED]
        try:
            seed = int(raw)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {raw!r}") from None
        rc = rc.replace(seed=seed)
    return rc.validated()


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, header: List[str], rows: List[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _write_metrics(path, kind: str, records: List[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            line = {"schema": METRICS_SCHEMA, "kind": kind}
            line.update(rec)
            fh.write(json.dumps(line, sort_keys=True) + "\n")


def _dataset_paths(prefix: str):
    return (f"{prefix}.train.ds", f"{prefix}.valid.ds", f"{prefix}.test.ds")


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    rc = resolve_config(args)
    split = build_splits(rc)
    train_p, valid_p, test_p = _dataset_paths(args.out)
    write_dataset(train_p, split.train)
    write_dataset(valid_p, split.validation)
    write_dataset(test_p, split.test)
    _write_json(f"{args.out}.config.json", rc.to_dict())
    print(f"wrote {train_p} ({len(split.train)}), {valid_p} "
          f"({len(split.validation)}), {test_p} ({len(split.test)})")
    return 0


def _load_pair(prefix: str):
    train_p, valid_p, _ = _dataset_paths(prefix)
    return read_dataset(train_p), read_dataset(valid_p)


def cmd_pretrain(args) -> int:
    rc = resolve_config(args)
    train, _ = _load_pair(args.data)
    if train.dim != rc.input_dim:
        rc = rc.replace(input_dim=train.dim).validated()
    result = pretrain_stage(rc, train)
    save_checkpoint(args.out, config=rc.to_dict(), epoch=rc.pretrain_epochs,
                    params=result.params, rng_state={"seed": rc.seed})
    metrics_path = args.metrics or f"{args.out}.metrics.jsonl"
    _write_metrics(metrics_path, "pretrain",
                   [dataclasses.asdict(m) for m in result.metrics])
    if rc.pretrain_epochs:
        print(f"wrote {args.out}; final loss {result.metrics[-1].loss:.6f}")
    else:
        print(f"wrote {args.out}")
    return 0


def _check_weights(rc: RunConfig, ckpt: Checkpoint) -> None:
    """Reject a configuration that does not describe the checkpoint's weights."""
    p, wanted = ckpt.params, (rc.encoder_dims(), rc.n_prototypes)
    held = (EncoderDims(p.w1.shape[1], p.w1.shape[0], p.w3.shape[0], p.wh.shape[0]),
            wanted[1] if ckpt.prototypes is None else ckpt.prototypes.k)
    if held != wanted:
        raise ConfigError("checkpoint holds {} and {} prototypes, but the configuration "
                          "requests {} and {} prototypes".format(*held, *wanted))


def cmd_finetune(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    rc = resolve_config(args, base=ckpt.config)
    _check_weights(rc, ckpt)
    train, valid = _load_pair(args.data)
    outcome = finetune_stage(rc, ckpt.params, ckpt.prototypes, train, valid)
    save_checkpoint(args.out, config=rc.to_dict(),
                    epoch=outcome.best_checkpoint_epoch,
                    params=outcome.best_params,
                    prototypes=outcome.best_prototypes,
                    rng_state={"seed": rc.seed})
    metrics_path = args.metrics or f"{args.out}.metrics.jsonl"
    _write_metrics(metrics_path, "finetune",
                   [dataclasses.asdict(m) for m in outcome.trace])
    print(f"wrote {args.out}; best epoch {outcome.best_checkpoint_epoch} "
          f"(earlystop {max(m.earlystop_auroc for m in outcome.trace):.4f})")
    return 0


def _score_lines(ids, scores):
    """Score file lines, byte for byte as ``json.dumps`` writes ints and finite floats."""
    return [f'{{"id": {i}, "score": {s!r}}}\n' for i, s in zip(ids, scores)]


def cmd_score(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    rc = resolve_config(args, base=ckpt.config)
    _check_weights(rc, ckpt)
    ds = read_dataset(args.input)
    if ckpt.prototypes is None:
        raise ConfigError("checkpoint has no prototypes; run finetune first")
    weak, _ = rc.resolve_augs(ds.features)
    scores = evaluate_scores(rc.score_name, ckpt.params, ckpt.prototypes, ds, None,
                             weak, rc.shift_family(), rc.effective_score_tau,
                             rc.n_ensemble, rc.score_rng(), ensemble_mode=rc.ensemble_mode)
    order = np.argsort(ds.ids, kind="mergesort")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(_score_lines(ds.ids[order].tolist(), scores[order].tolist()))
    print(f"wrote {args.out} ({len(ds)} scores)")
    return 0


def cmd_eval(args) -> int:
    ds = read_dataset(args.input)
    by_id = {}
    with open(args.scores, "rb") as fh:
        for n, line in enumerate(fh, 1):
            try:
                rec = json.loads(line)
                key, score = rec["id"], rec["score"]
                if type(key) is not int or type(score) not in (int, float) \
                        or not math.isfinite(score):
                    raise TypeError
            except (ValueError, KeyError, TypeError, OverflowError):
                raise ValidationError(f"bad scores line {n}: expected a JSON object with "
                                      f"an integer id and a finite numeric score") from None
            if key in by_id:
                raise ValidationError(f"scores file repeats id {key} (line {n})")
            by_id[key] = float(score)
    ids = ds.ids.tolist()
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise ValidationError(f"scores file missing ids (first: {missing[:5]})")
    unknown = sorted(by_id.keys() - set(ids))
    if unknown:
        raise ValidationError(f"scores file has ids not in the dataset "
                              f"(first: {unknown[:5]})")
    scores = np.array([by_id[i] for i in ids])
    value = auroc(scores, ds.eval_normal_labels())
    payload = {"auroc": value, "count": len(ds)}
    if args.out:
        _write_json(args.out, payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_scenario(args) -> int:
    rc = resolve_config(args)
    if args.grid:
        report = run_grid(rc, workers=args.workers)
        print(f"grid mean_auroc={report['mean_auroc']:.6f} "
              f"stderr={report['stderr_auroc']:.6f}")
    elif args.sweep_gamma_p:
        try:
            levels = [float(x) for x in args.sweep_gamma_p.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--sweep-gamma-p expects numbers; {exc}") from None
        rows = run_pollution_sweep(rc, levels)
        report = {"config": rc.to_dict(), "rows": rows}
        for row in rows:
            print(f"gamma_p={row['gamma_p']:.2f} auroc={row['final_auroc']:.6f} "
                  f"baseline={row['pretrain_baseline_auroc']:.6f}")
        if args.csv:
            _write_csv(args.csv, ["gamma_p", "final_auroc", "pretrain_baseline_auroc"],
                       [[row["gamma_p"], row["final_auroc"],
                         row["pretrain_baseline_auroc"]] for row in rows])
    else:
        report = run_single(rc)
        print(f"final_auroc={report['final_auroc']:.6f} "
              f"(best epoch {report['best_checkpoint_epoch']})")
        if args.metrics:
            _write_metrics(args.metrics, "finetune", report["finetune_trace"])
    if args.out:
        _write_json(args.out, report)
    return 0


def cmd_ablation(args) -> int:
    pairs = []
    for token in args.pairs.split(","):
        if ":" not in token:
            raise ConfigError(f"--pairs expects score:loss tokens, got {token!r}")
        score_name, loss_name = token.split(":", 1)
        pairs.append((score_name.strip(), loss_name.strip()))
    rc = resolve_config(args)
    rows = run_ablation(rc, pairs)
    for row in rows:
        print(f"score={row['score_name']:<11} loss={row['loss_name']:<8} "
              f"auroc={row['final_auroc']:.6f}")
    if args.out:
        _write_json(args.out, {"config": rc.to_dict(), "rows": rows})
    if args.csv:
        _write_csv(args.csv, ["score", "loss", "auroc"],
                   [[row["score_name"], row["loss_name"], row["final_auroc"]]
                    for row in rows])
    return 0


# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoad",
        description="Energy-based semi-supervised anomaly detection on synthetic data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a scenario split on disk")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="contrastive pre-training")
    _add_config_flags(p)
    p.add_argument("--data", required=True, help="dataset path prefix")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--metrics", help="metrics JSONL path")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="energy fine-tuning from a checkpoint")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset path prefix")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--metrics", help="metrics JSONL path")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("score", help="write ensembled scores for a dataset")
    _add_config_flags(p)
    p.add_argument("--input", required=True, help="dataset file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="scores JSONL path")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="AUROC of a scores file against ground truth")
    p.add_argument("--scores", required=True)
    p.add_argument("--input", required=True, help="dataset file with ground truth")
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("scenario", help="full pipeline: single run, grid, or sweep")
    _add_config_flags(p)
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--metrics", help="metrics JSONL path (single run)")
    p.add_argument("--grid", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--sweep-gamma-p", dest="sweep_gamma_p",
                   help="comma-separated contamination levels")
    p.add_argument("--csv", help="CSV table path (sweep mode)")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("ablation", help="score x loss ablation table")
    _add_config_flags(p)
    p.add_argument("--pairs", required=True,
                   help="comma-separated score:loss pairs, e.g. energy:elsa")
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--csv", help="CSV table path")
    p.set_defaults(func=cmd_ablation)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 5
    except (ConfigError, ValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
