"""Run configuration: every tunable of the pipeline in one validated bundle.

A RunConfig round-trips through JSON, echoes into every artifact for
provenance, and reads back exactly the keys it writes: a checkpoint
snapshot, a config file and ``--set`` pairs may name its fields and
nothing else. It owns the derived objects (synthetic spec, scenario config,
augmentation configs, training configs). Each rule has one home: a stage
config checks the single fields it receives, and ``violations`` checks the
types and the rules no one stage can see. It collects *all* violations: one
entry per failing stage names every rule of that stage that fails, and a
valid configuration builds every stage.
The augmentations read no field: their noise sigmas scale to the data spread
and the rest of their recipe is constants in ``augment``. Nor do the shift
slots, a fact of the mode (ELSA: one; ELSA+: one per shifting transform),
which own ``n_prototypes`` / slots prototypes each, or the refresh that follows
from them. The cluster spread of the synthetic data is ``data.CLUSTER_SPREAD``.
"""
from __future__ import annotations

import dataclasses
import json
import numbers
import sys
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import encoder as enc
from . import objective as obj
from . import prototypes as proto
from .augment import ShiftFamily, StrongAugConfig, WeakAugConfig
from .data import ScenarioConfig, SyntheticSpec, ValidationError
from .encoder import EncoderDims
from .evalharness import FinetuneConfig
from .pretrain import PretrainConfig

MODES = ("elsa", "elsa_plus")
SHIFT_COUNT = 4                # shifting transforms of ELSA+, identity included
WEAK_NOISE_SCALE = 0.05        # weak noise sigma, x data std
STRONG_NOISE_MULTIPLE = 6.0    # strong noise sigma, x weak noise sigma


class ConfigError(ValidationError):
    """Invalid run configuration; the message lists every violation."""


_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str}


def fits(value, annotation: str, finite: bool = True) -> bool:
    """Whether ``value`` has the type a RunConfig field is annotated with.

    An int fits a float field; a bool fits no field. A float field
    takes only finite values (an int too large for a float is not finite),
    unless ``finite`` is False.
    """
    return (isinstance(value, _KINDS[annotation])
            and not isinstance(value, bool)
            and (not finite or annotation != "float" or abs(value) <= sys.float_info.max))


def _type_violation(name: str, value, annotation: str) -> str:
    """The message for a field whose value does not fit its annotation.

    When the value fits but for a non-finite number, the message says so.
    """
    if fits(value, annotation, finite=False):
        annotation = "a finite float"
    return f"{name} must be {annotation}, got {value!r}"


@dataclass
class RunConfig:
    # data geometry
    input_dim: int = 32
    normal_subclusters: int = 4
    anomaly_classes: int = 9
    within_spread: float = 0.65
    samples_per_class: int = 1000

    # scenario
    scenario: str = "s1"
    gamma_l: float = 0.05
    gamma_p: float = 0.0

    # encoder
    hidden_dim: int = 64
    embed_dim: int = 16

    # mode and objectives
    mode: str = "elsa_plus"
    loss_name: str = "elsa"
    score_name: str = "energy"
    n_ensemble: int = 10
    n_prototypes: int = 16
    tau: float = 0.5

    # training
    pretrain_epochs: int = 200
    pretrain_batch: int = 128
    pretrain_lr: float = 0.05
    finetune_epochs: int = 50
    finetune_batch: int = 64
    finetune_lr: float = 1e-4

    seed: int = 0

    # ------------------------------------------------------------------
    def violations(self) -> List[str]:
        """Every problem, in one list: a failing stage's entry names all its failing rules."""
        out = [_type_violation(f.name, getattr(self, f.name), f.type)
               for f in dataclasses.fields(self) if not fits(getattr(self, f.name), f.type)]
        if out:     # the checks below compare values of the declared types
            return out
        if self.n_prototypes < 1:
            out.append(f"n_prototypes must be >= 1, got {self.n_prototypes}")
        elif self.n_prototypes % self.shift_count:
            out.append(f"n_prototypes must be a multiple of the {self.shift_count} shift "
                       f"slots, got {self.n_prototypes}")
        if self.mode not in MODES:
            out.append(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.score_name not in obj.SCORES:
            out.append(f"score_name must be one of {obj.SCORES}, got {self.score_name!r}")
        if self.n_ensemble < 1:
            out.append(f"n_ensemble must be >= 1, got {self.n_ensemble}")
        if self.seed < 0:     # every derived seed adds a non-negative offset
            out.append(f"seed must be >= 0, got {self.seed}")
        for stage, build in (("data", self.synthetic_spec),
                             ("scenario", self.scenario_config),
                             ("encoder", self.encoder_dims),
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
    def shift_count(self) -> int:
        """The shift slots: one per shifting transform for ELSA+, the identity for ELSA."""
        return SHIFT_COUNT if self.shift_mode else 1

    def synthetic_spec(self, seed_offset: int = 0) -> SyntheticSpec:
        return SyntheticSpec(
            input_dim=self.input_dim,
            normal_subclusters=self.normal_subclusters,
            anomaly_classes=self.anomaly_classes,
            within_spread=self.within_spread,
            samples_per_class=self.samples_per_class,
            seed=self.seed + seed_offset,
        )

    def scenario_config(self) -> ScenarioConfig:
        return ScenarioConfig(scenario=self.scenario, gamma_l=self.gamma_l,
                              gamma_p=self.gamma_p, seed=self.seed)

    def encoder_dims(self) -> EncoderDims:
        return EncoderDims(input=self.input_dim, hidden=self.hidden_dim,
                           embed=self.embed_dim,
                           shifts=self.shift_count)

    def initial_params(self) -> enc.EncoderParams:
        """Encoder weights before pre-training."""
        return enc.init(self.seed + 2, self.encoder_dims())

    def fit_prototypes(self, embeddings) -> proto.PrototypeSet:
        """The initial k-means prototypes, a (slots, ``n_prototypes`` / slots, d) stack:
        one fit per shift slot on that slot's block of ``embeddings``, concatenated."""
        slots = self.shift_count
        return proto.PrototypeSet(np.concatenate([
            proto.fit(block, self.n_prototypes // slots, seed=self.seed + 4).vectors
            for block in np.split(embeddings, slots)]))

    def score_rng(self) -> np.random.Generator:
        """The random stream of ensembled test-time scoring."""
        return np.random.default_rng(np.random.SeedSequence([self.seed, 6]))

    def resolve_augs(self, features) -> Tuple[WeakAugConfig, StrongAugConfig]:
        """Absolute augmentation magnitudes, scaled to the data spread."""
        std = float(features.std()) if len(features) else 1.0
        weak = WeakAugConfig(noise_sigma=WEAK_NOISE_SCALE * std)
        return weak, StrongAugConfig(noise_sigma=STRONG_NOISE_MULTIPLE * weak.noise_sigma)

    def shift_family(self) -> ShiftFamily:
        """The shifting transforms; ELSA runs with the identity alone."""
        return ShiftFamily.random(self.input_dim, self.encoder_dims().shifts,
                                  seed=self.seed + 77)

    def pretrain_config(self) -> PretrainConfig:
        return PretrainConfig(epochs=self.pretrain_epochs,
                              batch_size=self.pretrain_batch,
                              lr=self.pretrain_lr,
                              tau=self.tau,
                              seed=self.seed + 3)

    def finetune_config(self) -> FinetuneConfig:
        return FinetuneConfig(epochs=self.finetune_epochs,
                              batch_size=self.finetune_batch,
                              lr=self.finetune_lr,
                              tau=self.tau,
                              loss_name=self.loss_name,
                              seed=self.seed + 5)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The configuration ``data`` spells; every key must name a field."""
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path) -> "RunConfig":
        """The configuration a JSON file holds as one object."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:     # not JSON, or not UTF-8 text
            raise ConfigError(f"bad config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"bad config file {path}: not a JSON object")
        return cls.from_dict(data)

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
