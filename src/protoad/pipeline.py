"""End-to-end experiment drivers: scenarios, grids, ablations, sweeps.

Each driver runs pretraining -> prototype selection -> fine-tuning ->
ensembled test scoring from a single RunConfig and returns plain dicts ready
for JSON serialization. Ablation rows and prototype sweeps share one
prepared context (identical splits and pretrained encoder) so comparisons
are seed-paired.

``pretrain_stage``, ``finetune_stage`` and ``score_stage`` are the one
wiring of the two training stages and of ensembled scoring, for these
drivers and for the ``pretrain``, ``finetune`` and ``score`` commands
alike; ``stage_augs`` is the one place that derives
the augmentations and the shift family from a RunConfig. ``finetune_stage``
with ``protos=None`` is the one place that fits the initial prototypes, on
the embeddings of the clustering pool; a prototype-count override reaches
it as ``n_prototypes`` in the RunConfig.

Each driver checks all of its input in one ``_check`` call before anything
trains: a single error names every distinct violation of its rows'
configurations (of ``rc`` itself when there are no rows, and always for the
ablation, which pre-trains under ``rc``) and every failing driver rule.
``build_splits`` is the one split builder, a grid cell's anomaly mix
included.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import data
from . import encoder as enc
from . import objective as obj
from .config import RunConfig, fits
from .data import Dataset, Pool, ScenarioSplit, build_scenario, generate, require
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
    aux.features += direction * data.CLUSTER_SPREAD
    aux.true_class += class_offset
    aux.ids += id_offset
    aux.means = None
    return aux


def build_splits(rc: RunConfig,
                 anomaly_classes: Optional[Sequence[int]] = None) -> ScenarioSplit:
    """The scenario split of ``rc``'s pool, which ``generate`` numbers 0 (normal)
    and 1..``rc.anomaly_classes``; ``anomaly_classes`` keeps only those, all by default."""
    pool = generate(rc.synthetic_spec())
    aux_pool = outlier_pool = None
    if rc.scenario == "s3":
        aux_pool = _shifted_pool(rc, 1000, +1.0, 100, _AUX_ID_OFFSET)
        outlier_pool = _shifted_pool(rc, 2000, -1.0, 200, _OUT_ID_OFFSET)
    return build_scenario(pool, rc.scenario_config(), anomaly_classes=anomaly_classes,
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


def score_stage(rc: RunConfig, params: enc.EncoderParams, protos: PrototypeSet,
                test: Dataset, train: Optional[Dataset] = None) -> np.ndarray:
    """The ensembled ``rc.score_name`` scores of ``test``; the weak noise is
    scaled to ``train``, or to ``test`` itself without one, as ``protoad
    score`` does until the augmentations are stored with the checkpoint."""
    weak, _, shifts = stage_augs(rc, test if train is None else train)
    return evaluate_scores(rc.score_name, params, protos, test, train, weak, shifts,
                           rc.tau, rc.n_ensemble, rc.score_rng())


@dataclass
class PipelineContext:
    """Everything shared between fine-tuning variants of one run."""

    rc: RunConfig
    split: ScenarioSplit
    pretrained: PretrainResult
    split_digest: str


def prepare(rc: RunConfig, split: Optional[ScenarioSplit] = None) -> PipelineContext:
    """Pretrain the encoder; the split is generated from ``rc`` unless the
    caller brings its own."""
    rc = rc.validated()
    if split is None:
        split = build_splits(rc)
    return PipelineContext(rc=rc, split=split, pretrained=pretrain_stage(rc, split.train),
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


def finetune_and_eval(ctx: PipelineContext, **overrides) -> Tuple[RunResult, Dict]:
    """Fine-tune from the shared context and score the test set.

    ``overrides`` replace RunConfig fields: seed-paired ablation rows (another
    loss or score on identical splits and pretraining) and prototype-count
    sweeps.
    """
    rc = ctx.rc.replace(**overrides)
    train, test = ctx.split.train, ctx.split.test
    outcome = finetune_stage(rc, ctx.pretrained.params, None, train, ctx.split.validation,
                             eval_probe=test_auroc_probe(test, rc.tau))
    scores = score_stage(rc, outcome.best_params, outcome.best_prototypes, test, train)
    final = auroc(scores, test.eval_normal_labels())
    report = {
        "loss_name": rc.loss_name,
        "score_name": rc.score_name,
        "n_prototypes": rc.n_prototypes,
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


def _grid_cell(rc: RunConfig, normal_idx: int, mix_idx: int, n_mixes: int) -> Dict:
    cell_rc = rc.replace(seed=rc.seed + 1000 * normal_idx + mix_idx)
    mix = list(range(1 + mix_idx, rc.anomaly_classes + 1, n_mixes))
    _, report = finetune_and_eval(prepare(cell_rc, build_splits(cell_rc, mix)))
    report.update({"normal_config": normal_idx, "anomaly_mix": mix})
    return report


def _check(rcs: Sequence[RunConfig], *rules: Tuple[bool, str]) -> None:
    """Every distinct violation of ``rcs`` in order, then each failing rule, in one error."""
    problems = dict.fromkeys(problem for row_rc in rcs for problem in row_rc.violations())
    require(*((False, problem) for problem in problems), *rules)


def run_grid(rc: RunConfig, n_normal_configs: int = 4, n_anomaly_mixes: int = 3) -> Dict:
    """The grid analogue of the paper-style (normal x anomaly) sweep; the cells run in
    turn in this process, as a pool of two-thread OpenBLAS workers was 3-4x slower
    on two vCPUs. Cell (i, j) draws its pool at seed ``rc.seed + 1000 i + j`` and
    keeps the anomaly classes j + 1, j + 1 + n_anomaly_mixes, ... Both sizes are
    ints, checked with the configuration in one error before any cell."""
    normals_typed, mixes_typed = fits(n_normal_configs, "int"), fits(n_anomaly_mixes, "int")
    _check([rc], (rc.scenario != "s3", "the grid draws every anomaly mix from one pool, "
                  "while scenario s3 takes its anomalies from two other pools"),
           (normals_typed, f"n_normal_configs must be int, got {n_normal_configs!r}"),
           (not normals_typed or n_normal_configs >= 1,
            f"n_normal_configs must be >= 1, got {n_normal_configs}"),
           (mixes_typed, f"n_anomaly_mixes must be int, got {n_anomaly_mixes!r}"),
           (not (mixes_typed and fits(rc.anomaly_classes, "int"))  # a mistyped one is named
            or 1 <= n_anomaly_mixes <= rc.anomaly_classes,
            f"n_anomaly_mixes must be between 1 and anomaly_classes={rc.anomaly_classes}, "
            f"got {n_anomaly_mixes}"))
    reports = [_grid_cell(rc, i, j, n_anomaly_mixes)
               for i in range(n_normal_configs) for j in range(n_anomaly_mixes)]
    aurocs = np.array([r["final_auroc"] for r in reports])
    return {
        "config": rc.to_dict(),
        "cells": reports,
        "mean_auroc": float(aurocs.mean()),
        "stderr_auroc": float(aurocs.std(ddof=1) / np.sqrt(len(aurocs)))
        if len(aurocs) > 1 else 0.0,
    }


def run_pollution_sweep(rc: RunConfig, gamma_ps: Sequence[float]) -> List[Dict]:
    """One row per contamination level, scenario s2, all else fixed; every
    row's configuration is checked before the first row trains. An s1 run
    becomes s2, and s3 is refused: its anomalies come from two other pools."""
    row_rcs = [rc.replace(scenario="s2", gamma_p=float(gp)) for gp in gamma_ps]
    _check(row_rcs or [rc], (rc.scenario != "s3", "the pollution sweep contaminates scenario "
                             "s2, while scenario s3 takes its anomalies from two other pools"))
    kept = ("final_auroc", "pretrain_baseline_auroc", "best_checkpoint_epoch", "split_hash")
    rows = []
    for row_rc in row_rcs:
        report = run_single(row_rc)
        rows.append({"gamma_p": row_rc.gamma_p, **{key: report[key] for key in kept}})
    return rows


def run_ablation(rc: RunConfig, pairs: Sequence[Tuple[str, str]]) -> List[Dict]:
    """One row per (score_name, loss_name), seed-paired on one context. ``rc``,
    which pre-trains, and every row's configuration are checked before
    pre-training; with no pairs nothing trains."""
    _check([rc, *(rc.replace(score_name=score, loss_name=loss) for score, loss in pairs)])
    if not pairs:
        return []
    ctx = prepare(rc)
    return [finetune_and_eval(ctx, loss_name=loss_name, score_name=score_name)[1]
            for score_name, loss_name in pairs]


def prototype_count_sweep(rc: RunConfig, ks: Sequence[int],
                          seeds: Sequence[int]) -> List[Dict]:
    """AUROC and early-stop traces for each prototype count, over seeds. Every
    (seed, count) row's configuration is checked in one error before
    pre-training, but a count above the training set's size only fails after
    the split."""
    _check([rc.replace(seed=s, n_prototypes=k) for s in seeds for k in ks] or [rc])
    rows = []
    for seed_rc in [rc.replace(seed=int(s)) for s in seeds]:
        ctx = prepare(seed_rc)
        for k in ks:
            _, report = finetune_and_eval(ctx, n_prototypes=int(k))
            report["seed"] = seed_rc.seed
            rows.append(report)
    return rows
