"""Which program functions the traced run wraps, and the per-layer metrics.

Every layer of ``src/protoad`` gets spans around its public functions;
``config`` and ``mathcore`` have none of their own. ``pretrain.probe`` is not
a function: it is derived from the spans of the per-epoch probe inside
``pretrain_loop`` (see ``_probe_seconds``).
"""
from __future__ import annotations

from protoad import (augment, checkpoint, cli, data, encoder, evalharness,
                     objective, pipeline, pretrain, prototypes)

from tracer import END, NAME, OP, PARENT, ROWS, START


def _first_rows(args) -> int:
    return len(args[0])


def _second_rows(args) -> int:
    return len(args[1]) if getattr(args[1], "ndim", 1) == 2 else 1


def _contrastive_rows(args) -> int:
    return 2 * len(args[0].view1)


def targets():
    """``(owner, attribute, span name, rows-of-args)`` for every wrapped function."""
    return [
        (pipeline, "build_splits", "data.build_splits", None),
        (data, "generate", "data.generate", None),
        (data, "build_scenario", "data.build_scenario", None),
        (data, "read_dataset", "data.read_dataset", None),
        (data, "write_dataset", "data.write_dataset", None),
        (augment, "weak_batch", "augment.weak_batch", _first_rows),
        (augment, "strong_batch", "augment.strong_batch", _first_rows),
        (augment.ShiftFamily, "expand", "augment.ShiftFamily.expand", _second_rows),
        (encoder, "forward", "encoder.forward", _second_rows),
        (encoder, "backward", "encoder.backward", None),
        (encoder, "embed", "encoder.embed", _second_rows),
        (encoder, "head_logits", "encoder.head_logits", None),
        (encoder, "shift_logits", "encoder.shift_logits", _second_rows),
        (pretrain, "pretrain_loop", "pretrain.pretrain_loop", None),
        (pretrain, "contrastive_loss", "pretrain.contrastive_loss", _contrastive_rows),
        (prototypes, "fit", "prototypes.fit", _first_rows),
        (prototypes, "refresh", "prototypes.refresh", None),
        (objective, "energy_score_grad", "objective.energy_score_grad", _first_rows),
        (objective, "loss_by_name", "objective.loss_by_name", None),
        (objective, "loss_shift", "objective.loss_shift", None),
        (objective, "score_ensemble", "objective.score_ensemble", _first_rows),
        (objective, "uniformity_scores_self", "objective.uniformity_scores_self", None),
        (evalharness, "finetune_loop", "evalharness.finetune_loop", None),
        (evalharness, "earlystop_score", "evalharness.earlystop_score", None),
        (evalharness, "auroc", "evalharness.auroc", None),
        (evalharness, "prototype_inputs", "evalharness.prototype_inputs", None),
        (evalharness, "evaluate_scores", "evalharness.evaluate_scores", None),
        (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint", None),
        (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", None),
        (cli, "main", "cli.main", None),
        (pipeline, "run_single", "pipeline.run_single", None),
    ]


# Spans of the per-epoch probe: its embeddings, shift logits and uniformity
# scores, plus the one contrastive_loss call not fed by encoder.forward.
_PROBE_PARTS = {"encoder.embed", "encoder.shift_logits",
                "objective.uniformity_scores_self"}


def _probe_seconds(spans, kids, index) -> float:
    total, previous = 0.0, None
    for c in kids.get(index, []):
        name = spans[c][NAME]
        if name in _PROBE_PARTS or (name == "pretrain.contrastive_loss"
                                    and previous != "encoder.forward"):
            total += spans[c][END] - spans[c][START]
        previous = name
    return total


def contrastive_cost(n: int, d: int):
    """Computed (not measured) FLOPs and bytes of one contrastive_loss call.

    ``n`` embeddings of dimension ``d``: three n x n x d products (the
    similarity matrix, ``g @ E`` and ``g.T @ E``) at 2 FLOPs per multiply-add,
    about 8 elementwise passes over the n x n matrix, and at least four dense
    n x n float64 arrays written (logits, exponentials, softmax, gradient).
    """
    return 6.0 * n * n * d + 8.0 * n * n, 4.0 * n * n * 8


def derive(tracer, ops, save_ops, embed_dim: int):
    """Per-layer metrics, averaged per timed operation in ``ops``.

    ``checkpoint.save_checkpoint.s`` comes from ``save_ops`` instead, where
    the runner re-saves the set-up checkpoint once.
    """
    ops = set(ops)
    n_ops = max(len(ops), 1)
    table = tracer.summary(ops)

    def get(name, field):
        return table.get(name, {}).get(field, 0)

    spans = tracer.spans
    kids = tracer.children()
    in_ops = [i for i, s in enumerate(spans) if s[OP] in ops]

    def named(name):
        return [i for i in in_ops if spans[i][NAME] == name]

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else None

    out = {}
    for name in ("pretrain.contrastive_loss", "encoder.forward", "encoder.backward",
                 "encoder.embed", "augment.weak_batch", "augment.strong_batch",
                 "objective.score_ensemble", "objective.energy_score_grad",
                 "objective.loss_by_name", "objective.loss_shift",
                 "evalharness.earlystop_score", "evalharness.auroc",
                 "prototypes.fit", "prototypes.refresh", "data.build_splits",
                 "data.read_dataset", "checkpoint.load_checkpoint"):
        out[f"{name}.s"] = get(name, "s") / n_ops
        out[f"{name}.calls"] = get(name, "calls") / n_ops
    for name in ("encoder.forward", "encoder.embed", "augment.weak_batch"):
        out[f"{name}.rows"] = get(name, "rows") / n_ops
    for name in ("pretrain.pretrain_loop", "evalharness.finetune_loop", "cli.main",
                 "pipeline.run_single"):
        out[f"{name}.self_s"] = get(name, "self_s") / n_ops

    losses = named("pretrain.contrastive_loss")
    costs = [contrastive_cost(spans[i][ROWS], embed_dim) for i in losses]
    out["pretrain.contrastive_loss.mflop"] = (
        sum(c[0] for c in costs) / len(costs) / 1e6 if costs else 0.0)
    out["pretrain.contrastive_loss.mbytes"] = (
        sum(c[1] for c in costs) / len(costs) / 1e6 if costs else 0.0)
    out["pretrain.probe.s"] = sum(_probe_seconds(spans, kids, i)
                                  for i in named("pretrain.pretrain_loop")) / n_ops

    ensembles = named("objective.score_ensemble")
    embeds = sum(1 for i in named("encoder.embed")
                 if parent_name(i) == "objective.score_ensemble")
    out["objective.score_ensemble.forwards_per_call"] = (
        embeds / len(ensembles) if ensembles else 0.0)

    refreshes = named("prototypes.refresh")
    refits = [i for i in refreshes
              if any(spans[c][NAME] == "prototypes.fit" for c in kids.get(i, []))]
    out["prototypes.refresh.refit_ratio"] = (
        len(refits) / len(refreshes) if refreshes else 0.0)
    finetune_inputs = [i for i in named("evalharness.prototype_inputs")
                       if parent_name(i) == "evalharness.finetune_loop"]
    finetune_refits = [i for i in refits
                       if parent_name(i) == "evalharness.finetune_loop"]
    out["evalharness.prototype_inputs.calls"] = (
        len(named("evalharness.prototype_inputs")) / n_ops)
    out["evalharness.prototype_inputs.useful_ratio"] = (
        len(finetune_refits) / len(finetune_inputs) if finetune_inputs else 0.0)

    out["checkpoint.save_checkpoint.s"] = (
        tracer.summary(save_ops).get("checkpoint.save_checkpoint", {}).get("s", 0.0))
    # Estimated, not measured: spans per op times the cost of one wrapper.
    # A traced-minus-untraced op time would be mostly run-to-run noise.
    out["trace.overhead_ms"] = 1e3 * len(in_ops) / n_ops * tracer.wrapper_cost_s()
    return out, table
