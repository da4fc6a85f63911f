"""Run configuration: every tunable of the pipeline in one validated bundle.

A RunConfig round-trips through JSON, echoes into every artifact for
provenance, and owns the derived objects (synthetic spec, scenario config,
augmentation configs, training configs). Validation collects *all*
violations instead of stopping at the first, and a valid configuration
builds every stage (augmentations at unit data scale).
"""
from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import encoder as enc
from . import prototypes as proto
from .augment import ShiftFamily, StrongAugConfig, WeakAugConfig
from .data import ScenarioConfig, SyntheticSpec, ValidationError
from .encoder import EncoderDims
from .evalharness import FinetuneConfig
from .objective import C_MODES, ENSEMBLE_MODES, LOSSES, SCORES
from .pretrain import PretrainConfig

MODES = ("elsa", "elsa_plus")


class ConfigError(ValidationError):
    """Invalid run configuration; the message lists every violation."""


_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool}


def _fits(value, annotation: str) -> bool:
    """Whether ``value`` has the type a RunConfig field is annotated with.

    An int fits a float field; a bool fits only a bool field.
    """
    if annotation.startswith("Optional["):
        return value is None or _fits(value, annotation[len("Optional["):-1])
    if annotation.startswith("Tuple["):
        kinds = annotation[len("Tuple["):-1].split(", ")
        return (isinstance(value, tuple) and len(value) == len(kinds)
                and all(map(_fits, value, kinds)))
    return (isinstance(value, _KINDS[annotation])
            and isinstance(value, bool) == (annotation == "bool"))


@dataclass
class RunConfig:
    # data geometry
    input_dim: int = 32
    normal_subclusters: int = 4
    anomaly_classes: int = 9
    cluster_spread: float = 1.0
    within_spread: float = 0.65
    samples_per_class: int = 1000

    # scenario
    scenario: str = "s1"
    gamma_l: float = 0.05
    gamma_p: float = 0.0
    test_fraction: float = 0.2
    val_fraction: float = 0.05

    # encoder
    hidden_dim: int = 64
    embed_dim: int = 16

    # mode and objectives
    mode: str = "elsa_plus"
    loss_name: str = "elsa"
    score_name: str = "energy"
    c_mode: str = "canonical"
    ensemble_mode: str = "scores"
    n_ensemble: int = 10
    n_prototypes: int = 16
    tau: float = 0.5
    pretrain_tau: Optional[float] = None
    score_tau: Optional[float] = None

    # augmentation
    weak_noise_scale: float = 0.05   # x data std
    weak_mask_fraction: float = 0.1
    weak_jitter: Tuple[float, float] = (0.9, 1.1)
    strong_noise_multiple: float = 6.0
    strong_n_ops: int = 3
    strong_apply_probability: float = 0.8
    shift_count: int = 4

    # training
    pretrain_epochs: int = 200
    pretrain_batch: int = 128
    pretrain_lr: float = 0.05
    pretrain_momentum: float = 0.9
    finetune_epochs: int = 50
    finetune_batch: int = 64
    finetune_lr: float = 1e-4
    refresh_period: Optional[int] = None  # default: 1 for elsa, 3 for elsa_plus
    strict_scores: bool = True

    seed: int = 0

    # ------------------------------------------------------------------
    def violations(self) -> List[str]:
        out = [f"{f.name} must be {f.type}, got {getattr(self, f.name)!r}"
               for f in dataclasses.fields(self) if not _fits(getattr(self, f.name), f.type)]
        if out:     # the checks below compare values of the declared types
            return out
        if self.tau <= 0:
            out.append(f"tau must be positive, got {self.tau}")
        for name in ("pretrain_tau", "score_tau"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                out.append(f"{name} must be positive, got {v}")
        if self.n_prototypes < 1:
            out.append(f"n_prototypes must be >= 1, got {self.n_prototypes}")
        elif self.effective_score_tau > 0 and self.strict_scores and \
                math.log(self.n_prototypes) <= 1.0 / self.effective_score_tau:
            out.append(
                f"ln(n_prototypes)={math.log(self.n_prototypes):.4f} must exceed "
                f"1/tau={1.0 / self.effective_score_tau:.4f} for positive scores")
        for name in ("gamma_l", "gamma_p"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                out.append(f"{name} must lie in [0, 1], got {v}")
        if self.scenario not in ("s1", "s2", "s3"):
            out.append(f"unknown scenario {self.scenario!r}")
        if self.scenario == "s1" and self.gamma_p > 0:
            out.append("scenario s1 forbids contamination (gamma_p must be 0)")
        if self.mode not in MODES:
            out.append(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "elsa_plus" and self.shift_count < 2:
            out.append(f"mode elsa_plus requires shift_count >= 2, got {self.shift_count}")
        if self.loss_name not in LOSSES:
            out.append(f"loss_name must be one of {LOSSES}, got {self.loss_name!r}")
        if self.score_name not in SCORES:
            out.append(f"score_name must be one of {SCORES}, got {self.score_name!r}")
        if self.c_mode not in C_MODES:
            out.append(f"c_mode must be one of {C_MODES}, got {self.c_mode!r}")
        if self.ensemble_mode not in ENSEMBLE_MODES:
            out.append(f"ensemble_mode must be one of {ENSEMBLE_MODES}")
        if self.n_ensemble < 1:
            out.append(f"n_ensemble must be >= 1, got {self.n_ensemble}")
        if self.refresh_period is not None and self.refresh_period < 1:
            out.append(f"refresh_period must be >= 1, got {self.refresh_period}")
        if out:     # the stages below are built only from otherwise valid values
            return out
        for stage, build in (("data", self.synthetic_spec),
                             ("scenario", self.scenario_config),
                             ("encoder", self.encoder_dims),
                             ("augmentation", lambda: self._augs_at(1.0)),
                             ("pretrain", self.pretrain_config),
                             ("finetune", self.finetune_config)):
            try:
                build()
            except ValidationError as exc:
                out.append(f"{stage} stage: {exc}")
        return out

    def validated(self) -> "RunConfig":
        problems = self.violations()
        if problems:
            raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(problems))
        return self

    # ------------------------------------------------------------------
    @property
    def shift_mode(self) -> bool:
        return self.mode == "elsa_plus"

    @property
    def effective_pretrain_tau(self) -> float:
        return self.pretrain_tau if self.pretrain_tau is not None else self.tau

    @property
    def effective_score_tau(self) -> float:
        return self.score_tau if self.score_tau is not None else self.tau

    @property
    def effective_refresh_period(self) -> int:
        if self.refresh_period is not None:
            return self.refresh_period
        return 3 if self.mode == "elsa_plus" else 1

    def synthetic_spec(self, seed_offset: int = 0) -> SyntheticSpec:
        return SyntheticSpec(
            input_dim=self.input_dim,
            normal_subclusters=self.normal_subclusters,
            anomaly_classes=self.anomaly_classes,
            cluster_spread=self.cluster_spread,
            within_spread=self.within_spread,
            samples_per_class=self.samples_per_class,
            seed=self.seed + seed_offset,
        )

    def scenario_config(self) -> ScenarioConfig:
        return ScenarioConfig(scenario=self.scenario, gamma_l=self.gamma_l,
                              gamma_p=self.gamma_p, seed=self.seed,
                              test_fraction=self.test_fraction,
                              val_fraction=self.val_fraction)

    def encoder_dims(self) -> EncoderDims:
        return EncoderDims(input=self.input_dim, hidden=self.hidden_dim,
                           embed=self.embed_dim,
                           shifts=self.shift_count if self.shift_mode else 1)

    def initial_params(self) -> enc.EncoderParams:
        """Encoder weights before pre-training."""
        return enc.init(self.seed + 2, self.encoder_dims())

    def fit_prototypes(self, embeddings, k: Optional[int] = None) -> proto.PrototypeSet:
        """Spherical k-means prototypes; ``k`` defaults to ``n_prototypes``."""
        return proto.fit(embeddings, self.n_prototypes if k is None else k,
                         seed=self.seed + 4)

    def score_rng(self) -> np.random.Generator:
        """The random stream of ensembled test-time scoring."""
        return np.random.default_rng(np.random.SeedSequence([self.seed, 6]))

    def resolve_augs(self, features) -> Tuple[WeakAugConfig, StrongAugConfig]:
        """Absolute augmentation magnitudes, scaled to the data spread."""
        return self._augs_at(float(features.std()) if len(features) else 1.0)

    def _augs_at(self, std: float) -> Tuple[WeakAugConfig, StrongAugConfig]:
        weak = WeakAugConfig(noise_sigma=self.weak_noise_scale * std,
                             mask_fraction=self.weak_mask_fraction,
                             scale_jitter=tuple(self.weak_jitter))
        strong = StrongAugConfig(
            noise_sigma=self.strong_noise_multiple * weak.noise_sigma,
            n_ops=self.strong_n_ops,
            apply_probability=self.strong_apply_probability)
        strong.validate_against(weak)
        return weak, strong

    def shift_family(self) -> ShiftFamily:
        """The shifting transforms; ELSA runs with the identity alone."""
        return ShiftFamily.random(self.input_dim, self.encoder_dims().shifts,
                                  seed=self.seed + 77)

    def pretrain_config(self) -> PretrainConfig:
        return PretrainConfig(epochs=self.pretrain_epochs,
                              batch_size=self.pretrain_batch,
                              lr=self.pretrain_lr,
                              momentum=self.pretrain_momentum,
                              tau=self.effective_pretrain_tau,
                              seed=self.seed + 3)

    def finetune_config(self) -> FinetuneConfig:
        return FinetuneConfig(epochs=self.finetune_epochs,
                              batch_size=self.finetune_batch,
                              lr=self.finetune_lr,
                              tau=self.effective_score_tau,
                              loss_name=self.loss_name,
                              refresh_period=self.effective_refresh_period,
                              c_mode=self.c_mode,
                              strict_scores=self.strict_scores,
                              seed=self.seed + 5)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["weak_jitter"] = list(d["weak_jitter"])
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if isinstance(kwargs.get("weak_jitter"), list):
            kwargs["weak_jitter"] = tuple(kwargs["weak_jitter"])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


PRESETS = {
    # The synthetic default: full desk-scale geometry and training lengths.
    "default": RunConfig(),
    # A tuned mid-length configuration used by the acceptance experiments.
    "acceptance": RunConfig(scenario="s2", gamma_l=0.05, gamma_p=0.05,
                            pretrain_epochs=40, finetune_epochs=24,
                            finetune_lr=1e-3),
    # Small everything; finishes in seconds. For smoke tests and demos.
    "smoke": RunConfig(samples_per_class=80, anomaly_classes=3,
                       normal_subclusters=2, input_dim=16, hidden_dim=32,
                       embed_dim=8, pretrain_epochs=4, finetune_epochs=3,
                       pretrain_batch=32, finetune_batch=32, n_prototypes=8,
                       n_ensemble=2, scenario="s2", gamma_l=0.1, gamma_p=0.05),
}


def preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return dataclasses.replace(PRESETS[name])
