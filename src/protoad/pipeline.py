"""End-to-end experiment drivers: scenarios, grids, ablations, sweeps.

Each driver runs pretraining -> prototype selection -> fine-tuning ->
ensembled test scoring from a single RunConfig and returns plain dicts ready
for JSON serialization. Ablation rows and prototype sweeps share one
prepared context (identical splits and pretrained encoder) so comparisons
are seed-paired.

``pretrain_stage`` and ``finetune_stage`` are the one wiring of the two
training stages, for these drivers and for the ``pretrain`` and
``finetune`` commands alike; ``stage_augs`` is the one place that derives
the augmentations and the shift family from a RunConfig.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import encoder as enc
from . import objective as obj
from .config import RunConfig
from .data import Dataset, Pool, ScenarioSplit, build_scenario, generate
from .evalharness import (RunResult, auroc, evaluate_scores, finetune_loop,
                          prototype_inputs, reference_embeddings, split_hash,
                          test_auroc_probe)
from .pretrain import PretrainResult, pretrain_loop
from .prototypes import PrototypeSet

_AUX_ID_OFFSET = 10_000_000
_OUT_ID_OFFSET = 20_000_000


def _shifted_pool(rc: RunConfig, seed_offset: int, direction: float,
                  class_offset: int, id_offset: int) -> Pool:
    """A second synthetic distribution: same geometry, displaced means; one build."""
    aux = generate(rc.synthetic_spec(seed_offset=seed_offset))
    aux.features += direction * rc.cluster_spread
    aux.true_class += class_offset
    aux.ids += id_offset
    aux.means = None
    return aux


def build_splits(rc: RunConfig) -> ScenarioSplit:
    pool = generate(rc.synthetic_spec())
    aux_pool = outlier_pool = None
    if rc.scenario == "s3":
        aux_pool = _shifted_pool(rc, 1000, +1.0, 100, _AUX_ID_OFFSET)
        outlier_pool = _shifted_pool(rc, 2000, -1.0, 200, _OUT_ID_OFFSET)
    return build_scenario(pool, rc.scenario_config(),
                          aux_pool=aux_pool, outlier_pool=outlier_pool)


def stage_augs(rc: RunConfig, train: Dataset):
    """The weak and strong augmentations, scaled to ``train``, and the shift family."""
    weak, strong = rc.resolve_augs(train.features)
    return weak, strong, rc.shift_family()


def pretrain_stage(rc: RunConfig, train: Dataset) -> PretrainResult:
    """Contrastive pre-training of ``rc``'s initial encoder on ``train``."""
    weak, _, shifts = stage_augs(rc, train)
    return pretrain_loop(train, rc.initial_params(), weak, shifts, rc.pretrain_config())


def finetune_stage(rc: RunConfig, params: enc.EncoderParams,
                   protos: Optional[PrototypeSet], train: Dataset, validation: Dataset,
                   eval_probe: Optional[Callable[..., float]] = None) -> RunResult:
    """Energy fine-tuning of ``params`` under ``rc``; with ``protos=None`` the
    prototypes are fit on the training embeddings first (a pre-train checkpoint)."""
    weak, strong, shifts = stage_augs(rc, train)
    if protos is None:
        protos = rc.fit_prototypes(prototype_inputs(params, train, shifts))
    return finetune_loop(params, protos, train, validation, weak, strong, shifts,
                         rc.finetune_config(), eval_probe=eval_probe)


@dataclass
class PipelineContext:
    """Everything shared between fine-tuning variants of one run."""

    rc: RunConfig
    split: ScenarioSplit
    pretrained: PretrainResult
    cluster_embeddings: np.ndarray
    split_digest: str


def prepare(rc: RunConfig, split: Optional[ScenarioSplit] = None) -> PipelineContext:
    """Pretrain the encoder and embed the clustering pool.

    The split is generated from ``rc`` unless the caller brings its own.
    """
    rc = rc.validated()
    if split is None:
        split = build_splits(rc)
    pre = pretrain_stage(rc, split.train)
    emb = prototype_inputs(pre.params, split.train, stage_augs(rc, split.train)[2])
    return PipelineContext(rc=rc, split=split, pretrained=pre, cluster_embeddings=emb,
                           split_digest=split_hash(split.train, split.validation,
                                                   split.test))


def pretrain_uniformity_baseline(ctx: PipelineContext) -> float:
    """Test AUROC of pre-train-only scoring: uniformity against the training set.

    The reference set is ``reference_embeddings``, as in ``evaluate_scores``.
    """
    params, test = ctx.pretrained.params, ctx.split.test
    scores = obj.score_uniformity(enc.embed(params, test.features),
                                  reference_embeddings(params, ctx.split.train))
    return auroc(scores, test.eval_normal_labels())


def finetune_and_eval(
    ctx: PipelineContext,
    loss_name: Optional[str] = None,
    score_name: Optional[str] = None,
    n_prototypes: Optional[int] = None,
) -> Tuple[RunResult, Dict]:
    """Fine-tune from the shared context and score the test set.

    Overrides allow seed-paired ablation rows (different loss or score on
    identical splits and pretraining) and prototype-count sweeps. When the
    prototype count cannot guarantee positive energy scores the loss runs in
    permissive mode, mirroring how an unguarded implementation behaves.
    """
    k = n_prototypes if n_prototypes is not None else ctx.rc.n_prototypes
    tau = ctx.rc.effective_score_tau
    rc = ctx.rc.replace(loss_name=loss_name or ctx.rc.loss_name,
                        score_name=score_name or ctx.rc.score_name,
                        strict_scores=ctx.rc.strict_scores and math.log(k) > 1.0 / tau)
    train, test = ctx.split.train, ctx.split.test
    outcome = finetune_stage(rc, ctx.pretrained.params,
                             rc.fit_prototypes(ctx.cluster_embeddings, k), train,
                             ctx.split.validation, eval_probe=test_auroc_probe(test, tau))
    weak, _, shifts = stage_augs(rc, train)
    scores = evaluate_scores(rc.score_name, outcome.best_params, outcome.best_prototypes,
                             test, train, weak, shifts, tau, rc.n_ensemble,
                             rc.score_rng(), ensemble_mode=rc.ensemble_mode)
    final = auroc(scores, test.eval_normal_labels())
    report = {
        "loss_name": rc.loss_name,
        "score_name": rc.score_name,
        "n_prototypes": k,
        "strict_scores": rc.strict_scores,
        "split_hash": ctx.split_digest,
        "best_checkpoint_epoch": outcome.best_checkpoint_epoch,
        "final_auroc": final,
        "earlystop_trace": [m.earlystop_auroc for m in outcome.trace],
        "test_auroc_trace": [m.test_auroc for m in outcome.trace],
    }
    return outcome, report


def run_single(rc: RunConfig) -> Dict:
    """One full pipeline run; the workhorse behind the scenario command."""
    ctx = prepare(rc)
    outcome, report = finetune_and_eval(ctx)
    report.update({
        "config": rc.to_dict(),
        "scenario": rc.scenario,
        "gamma_l": rc.gamma_l,
        "gamma_p": rc.gamma_p,
        "pretrain_baseline_auroc": pretrain_uniformity_baseline(ctx),
        "pretrain_trace": [dataclasses.asdict(m) for m in ctx.pretrained.metrics],
        "finetune_trace": [dataclasses.asdict(m) for m in outcome.trace],
    })
    return report


def _grid_cell(args) -> Dict:
    rc, normal_idx, mix_idx, n_mixes = args
    cell_rc = rc.replace(seed=rc.seed + 1000 * normal_idx + mix_idx)
    pool = generate(cell_rc.synthetic_spec())
    anomaly = sorted(int(c) for c in pool.classes() if c != 0)
    mix = [c for i, c in enumerate(anomaly) if i % n_mixes == mix_idx]
    split = build_scenario(pool, cell_rc.scenario_config(), anomaly_classes=mix)
    ctx = prepare(cell_rc, split)
    _, report = finetune_and_eval(ctx)
    report.update({"normal_config": normal_idx, "anomaly_mix": mix})
    return report


def run_grid(rc: RunConfig, n_normal_configs: int = 4, n_anomaly_mixes: int = 3,
             workers: int = 1) -> Dict:
    """The grid analogue of the paper-style (normal x anomaly) sweep."""
    rc = rc.validated()
    cells = [(rc, i, j, n_anomaly_mixes)
             for i in range(n_normal_configs) for j in range(n_anomaly_mixes)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            reports = list(ex.map(_grid_cell, cells))
    else:
        reports = [_grid_cell(c) for c in cells]
    aurocs = np.array([r["final_auroc"] for r in reports])
    return {
        "config": rc.to_dict(),
        "cells": reports,
        "mean_auroc": float(aurocs.mean()),
        "stderr_auroc": float(aurocs.std(ddof=1) / np.sqrt(len(aurocs)))
        if len(aurocs) > 1 else 0.0,
    }


def run_pollution_sweep(rc: RunConfig, gamma_ps: Sequence[float]) -> List[Dict]:
    """One row per contamination level, scenario s2, all else fixed."""
    rows = []
    for gp in gamma_ps:
        row_rc = rc.replace(scenario="s2", gamma_p=float(gp)).validated()
        report = run_single(row_rc)
        rows.append({"gamma_p": float(gp),
                     "final_auroc": report["final_auroc"],
                     "pretrain_baseline_auroc": report["pretrain_baseline_auroc"],
                     "best_checkpoint_epoch": report["best_checkpoint_epoch"],
                     "split_hash": report["split_hash"]})
    return rows


def run_ablation(rc: RunConfig, pairs: Sequence[Tuple[str, str]]) -> List[Dict]:
    """One row per (score_name, loss_name), seed-paired on one context."""
    ctx = prepare(rc)
    rows = []
    for score_name, loss_name in pairs:
        _, report = finetune_and_eval(ctx, loss_name=loss_name,
                                      score_name=score_name)
        rows.append(report)
    return rows


def prototype_count_sweep(rc: RunConfig, ks: Sequence[int],
                          seeds: Sequence[int]) -> List[Dict]:
    """AUROC and early-stop traces for each prototype count, over seeds."""
    rows = []
    for seed in seeds:
        ctx = prepare(rc.replace(seed=int(seed)))
        for k in ks:
            _, report = finetune_and_eval(ctx, n_prototypes=int(k))
            report["seed"] = int(seed)
            rows.append(report)
    return rows
