"""Command-line front end.

Subcommands: gen-data, pretrain, finetune, score, eval, scenario, ablation.
Every config key can come from a preset, a JSON config file, a dedicated
flag, or a generic --set key=value override (applied in that order). A flag
is only a spelling of its config key and holds no rule of its own: the
configuration judges its value (exit 3), as for the same ``--set``. All
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
import sys
from typing import List, Optional

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ConfigError, PRESETS, RunConfig, preset
from .data import ValidationError, read_dataset, write_dataset
from .encoder import EncoderDims
from .evalharness import auroc
from .mathcore import NumericError
from .pipeline import (build_splits, finetune_stage, pretrain_stage, run_ablation,
                       run_grid, run_pollution_sweep, run_single, score_stage)

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
    p.add_argument("--scenario")
    p.add_argument("--mode")
    p.add_argument("--prototypes", type=int, dest="n_prototypes")
    p.add_argument("--loss", dest="loss_name")
    p.add_argument("--score", dest="score_name")
    p.add_argument("--pretrain-epochs", type=int, dest="pretrain_epochs")
    p.add_argument("--finetune-epochs", type=int, dest="finetune_epochs")
    p.add_argument("--samples-per-class", type=int, dest="samples_per_class")
    p.add_argument("--input-dim", type=int, dest="input_dim")
    p.add_argument("--n-ensemble", type=int, dest="n_ensemble")


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
    flag. Nothing else, the environment included, sets a key.
    """
    rc = preset(args.preset)
    if base is not None:
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
    return rc.validated()


def _finite_or_null(value):
    """``value`` with every non-finite float, at any depth, replaced by None:
    strict JSON has no NaN or infinity, and writes null in their place."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(payload), fh, sort_keys=True, indent=2,
                  allow_nan=False)
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
            fh.write(json.dumps(_finite_or_null(line), sort_keys=True,
                                allow_nan=False) + "\n")


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


def cmd_pretrain(args) -> int:
    rc = resolve_config(args)
    train = read_dataset(_dataset_paths(args.data)[0])
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
    p, slots = ckpt.params, rc.shift_count
    wanted = (rc.encoder_dims(), slots, rc.n_prototypes // slots)
    held = (EncoderDims(p.w1.shape[1], p.w1.shape[0], p.w3.shape[0], p.wh.shape[0]),
            *(wanted[1:] if ckpt.prototypes is None else ckpt.prototypes.vectors.shape[:2]))
    if held != wanted:
        raise ConfigError("checkpoint holds {} and {} x {} prototypes, but the configuration "
                          "requests {} and {} x {} prototypes".format(*held, *wanted))


def cmd_finetune(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    rc = resolve_config(args, base=ckpt.config)
    _check_weights(rc, ckpt)
    train, valid = map(read_dataset, _dataset_paths(args.data)[:2])
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
    scores = score_stage(rc, ckpt.params, ckpt.prototypes, ds)
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
    if args.csv and not args.sweep_gamma_p:
        args.parser.error("argument --csv: only --sweep-gamma-p writes a CSV table")
    if args.metrics and (args.grid or args.sweep_gamma_p):
        args.parser.error("argument --metrics: only a single run writes metrics")
    rc = resolve_config(args)
    if args.grid:
        report = run_grid(rc)
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
    run_mode = p.add_mutually_exclusive_group()
    run_mode.add_argument("--grid", action="store_true")
    run_mode.add_argument("--sweep-gamma-p", dest="sweep_gamma_p",
                          help="comma-separated contamination levels")
    p.add_argument("--csv", help="CSV table path (sweep mode)")
    p.set_defaults(func=cmd_scenario, parser=p)

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
        # Every producer of a non-finite value checks for it and raises
        # NumericError; numpy's own overflow warning would only repeat it.
        with np.errstate(over="ignore"):
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
