"""Synthetic pools, scenario splits, and dataset persistence.

The synthetic generator stands in for an image benchmark: one heterogeneous
normal class (a mixture of well-separated Gaussian subclusters) plus several
unimodal anomaly classes. Scenario builders carve a pool into the three
semi-supervised sets (unlabeled / labeled-normal / labeled-anomaly), inject
contamination, and hold out a labeled test split.

Datasets and checkpoints share one file framing (``write_framed`` /
``read_framed``): a JSON-object header line, then a little-endian float32
payload.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .mathcore import NumericError, as_f64

# Wire encoding for semi-supervision labels (also used on disk).
UNLABELED = 0
LABELED_NORMAL = 1
LABELED_ANOMALY = -1

_MEAN_RETRIES = 200
CLUSTER_SPREAD = 1.0     # scale of the component means, and half their least distance


class ValidationError(ValueError):
    """Invalid configuration or precondition violation."""


def require(*rules: Tuple[bool, str]) -> None:
    """Configuration rules, each an ``(ok, message)`` pair: one ``ValidationError``
    joins the messages of every failing rule with "; ", in rule order."""
    failing = [message for ok, message in rules if not ok]
    if failing:
        raise ValidationError("; ".join(failing))


@dataclass(frozen=True)
class SyntheticSpec:
    """Geometry of a synthetic pool.

    The normal class (class 0) is a mixture of ``normal_subclusters``
    Gaussians; every anomaly class is a single Gaussian. All component means
    are kept at pairwise distance >= 2 * ``CLUSTER_SPREAD``, a module constant,
    so that subcluster structure is actually recoverable.
    """

    input_dim: int = 32
    normal_subclusters: int = 4
    anomaly_classes: int = 9
    within_spread: float = 0.65
    samples_per_class: int = 1000
    seed: int = 0

    def __post_init__(self):
        require((self.input_dim >= 1, f"input_dim must be positive, got {self.input_dim}"),
                (self.normal_subclusters >= 1,
                 f"normal_subclusters must be >= 1, got {self.normal_subclusters}"),
                (self.anomaly_classes >= 0,
                 f"anomaly_classes must be >= 0, got {self.anomaly_classes}"),
                (self.samples_per_class >= 1,
                 f"samples_per_class must be >= 1, got {self.samples_per_class}"),
                (0.0 <= self.within_spread < CLUSTER_SPREAD,
                 f"within_spread must satisfy 0 <= within_spread < cluster_spread, got "
                 f"{self.within_spread} and {CLUSTER_SPREAD}"))


@dataclass
class Pool:
    """A labeled sample pool: features plus per-sample class and component ids.

    ``true_class`` is ground truth for evaluation; 0 denotes the normal class
    in generated pools. ``cluster_id`` indexes the generating component
    (normal subclusters first, then one per anomaly class); ``means`` holds
    the component means when known.
    """

    features: np.ndarray
    true_class: np.ndarray
    ids: np.ndarray
    cluster_id: Optional[np.ndarray] = None
    means: Optional[np.ndarray] = None

    def __post_init__(self):
        self.features = as_f64(self.features, "pool features")
        self.true_class = np.asarray(self.true_class, dtype=np.int64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        n = len(self.features)
        if len(self.true_class) != n or len(self.ids) != n:
            raise ValidationError("pool arrays must share one length")
        if len(np.unique(self.ids)) != n:
            raise ValidationError("pool ids must be unique")

    def __len__(self) -> int:
        return len(self.features)

    def classes(self) -> np.ndarray:
        return np.unique(self.true_class)

    def class_indices(self, cls: int) -> np.ndarray:
        return np.flatnonzero(self.true_class == cls)


class Dataset:
    """An immutable split of samples for training or evaluation.

    Training code sees ``features``, ``semi`` and ``ids`` only. Ground-truth
    classes are reachable solely through the ``eval_*`` accessors, which no
    training path calls. The arrays are read-only copies of the inputs, so
    no caller's array is frozen.
    """

    def __init__(self, features, semi, ids, true_class):
        self.features = as_f64(features, "dataset features").copy()
        self.semi = np.array(semi, dtype=np.int64)
        self.ids = np.array(ids, dtype=np.int64)
        self._true_class = np.array(true_class, dtype=np.int64)
        n = len(self.features)
        if not (len(self.semi) == len(self.ids) == len(self._true_class) == n):
            raise ValidationError("dataset arrays must share one length")
        bad = set(np.unique(self.semi)) - {UNLABELED, LABELED_NORMAL, LABELED_ANOMALY}
        if bad:
            raise ValidationError(f"invalid semi-label values: {sorted(bad)}")
        self.features.setflags(write=False)
        self.semi.setflags(write=False)
        self.ids.setflags(write=False)

    def __len__(self) -> int:
        return len(self.features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    # -- evaluation-only surface -------------------------------------------
    def eval_true_class(self) -> np.ndarray:
        """Ground-truth class per sample. Evaluation only; never used in training."""
        return self._true_class.copy()

    def eval_normal_labels(self) -> np.ndarray:
        """Binary labels for AUROC: 1 = normal (class 0), 0 = anomaly."""
        return (self._true_class == 0).astype(np.int64)


def clustering_pool(dataset: Dataset) -> np.ndarray:
    """Row indices of everything not labeled anomalous: the rows that pre-train
    the encoder, fit the prototypes and form the uniformity reference set."""
    return np.flatnonzero(dataset.semi != LABELED_ANOMALY)


def _component_means(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Component means, normal subclusters first, drawn from ``rng``.

    Each mean is rejection-sampled from N(0, CLUSTER_SPREAD^2 I) until it
    sits at distance >= 2 * CLUSTER_SPREAD from every earlier one; each gets
    a bounded retry budget, after which placement fails.
    """
    n_components = spec.normal_subclusters + spec.anomaly_classes
    min_dist = 2.0 * CLUSTER_SPREAD
    means = np.empty((n_components, spec.input_dim))
    for c in range(n_components):
        for attempt in range(_MEAN_RETRIES + 1):
            cand = rng.normal(0.0, CLUSTER_SPREAD, size=spec.input_dim)
            if c == 0 or np.min(np.linalg.norm(means[:c] - cand, axis=1)) >= min_dist:
                means[c] = cand
                break
        else:
            raise NumericError(
                f"mean placement infeasible after {_MEAN_RETRIES} retries "
                f"(component {c} of {n_components})"
            )
    return means


def generate(spec: SyntheticSpec) -> Pool:
    """Draw a synthetic pool from ``spec``. Deterministic under the seed.

    Each component's draws are written straight into one preallocated
    feature array, so the pool is the only full-size copy alive.
    """
    rng = np.random.default_rng(spec.seed)
    means = _component_means(spec, rng)
    n_sub = spec.normal_subclusters
    # Normal class: samples_per_class split as evenly as possible over subclusters.
    base, extra = divmod(spec.samples_per_class, n_sub)
    counts = [base + (1 if s < extra else 0) for s in range(n_sub)]
    counts += [spec.samples_per_class] * spec.anomaly_classes
    cluster_id = np.repeat(np.arange(len(counts), dtype=np.int64), counts)

    features = np.empty((len(cluster_id), spec.input_dim))
    start = 0
    for c, count in enumerate(counts):
        block = features[start:start + count]
        rng.standard_normal(out=block)
        block *= spec.within_spread
        block += means[c]
        start += count
    return Pool(
        features=features,
        true_class=np.where(cluster_id < n_sub, 0, cluster_id - n_sub + 1),
        ids=np.arange(len(features), dtype=np.int64),
        cluster_id=cluster_id,
        means=means,
    )


SCENARIOS = ("s1", "s2", "s3")
TEST_FRACTION = 0.2     # of each class, held out for testing
VAL_FRACTION = 0.05     # of the unlabeled set, held out for validation


@dataclass(frozen=True)
class ScenarioConfig:
    """Which contamination scenario to build and with what ratios.

    gamma_l: fraction of the normal training pool that is labeled normal, and
             of the anomaly labeling budget that is labeled anomalous.
    gamma_p: fraction of the unlabeled set that is secretly anomalous (s2).
    """

    scenario: str = "s1"
    gamma_l: float = 0.0
    gamma_p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require((self.scenario in SCENARIOS,
                 f"scenario must be one of {SCENARIOS}, got {self.scenario!r}"),
                *((0.0 <= v <= 1.0, f"{name} must lie in [0, 1], got {v}")
                  for name, v in (("gamma_l", self.gamma_l), ("gamma_p", self.gamma_p))),
                (self.scenario != "s1" or self.gamma_p <= 0.0,
                 f"scenario s1 forbids contamination (gamma_p must be 0), got {self.gamma_p}"),
                (self.scenario != "s2" or self.gamma_p < 1.0,
                 f"scenario s2 needs gamma_p below 1, got {self.gamma_p}"))


@dataclass
class ScenarioSplit:
    train: Dataset
    validation: Dataset
    test: Dataset


def _even_draw(rng, per_class_pools: Dict[int, np.ndarray], total: int) -> np.ndarray:
    """Draw ``total`` indices evenly across classes, remainder round-robin by class order."""
    if total == 0:
        return np.empty(0, dtype=np.int64)
    keys = sorted(per_class_pools)
    if not keys:
        raise ValidationError("no anomaly classes available to draw from")
    base, extra = divmod(total, len(keys))
    picks = []
    for rank, cls in enumerate(keys):
        want = base + (1 if rank < extra else 0)
        pool = per_class_pools[cls]
        if want > len(pool):
            raise ValidationError(
                f"class {cls} has only {len(pool)} samples, need {want}")
        picks.append(rng.permutation(pool)[:want])
    return np.concatenate(picks)


def build_scenario(
    pool: Pool,
    config: ScenarioConfig,
    anomaly_classes: Optional[Sequence[int]] = None,
    aux_pool: Optional[Pool] = None,
    outlier_pool: Optional[Pool] = None,
) -> ScenarioSplit:
    """Split a pool into (train, validation, test) under one scenario.

    Class 0 is the normal class.
    s1: labeled normals and anomalies at ratio gamma_l, clean unlabeled set.
    s2: s1 plus anomalies hidden in the unlabeled set at fraction gamma_p,
        drawn evenly from every anomaly class.
    s3: labeled anomalies come from ``aux_pool`` (an auxiliary distribution)
        and the test anomalies from ``outlier_pool`` (unseen at training).

    Every set is an index selection from one source: the pool, or for s3
    the pool, aux and outlier arrays concatenated. Pairwise
    id-disjointness between the three sets and between the semi-label
    groups is guaranteed. The validation set is the 5% slice of the
    unlabeled split (ratio 5-to-95) and is excluded from training.
    """
    rng = np.random.default_rng(config.seed)
    classes = set(int(c) for c in pool.classes())
    if 0 not in classes:
        raise ValidationError("normal class 0 not present in pool")
    if anomaly_classes is None:
        anomaly_classes = sorted(classes - {0})
    else:
        anomaly_classes = sorted(int(c) for c in anomaly_classes)
        missing = set(anomaly_classes) - classes
        if missing:
            raise ValidationError(f"anomaly classes missing from pool: {sorted(missing)}")
    if len(classes) < 2 and config.scenario != "s3":
        raise ValidationError("pool must contain at least two classes")

    normal_idx = rng.permutation(pool.class_indices(0))
    n_test_normal = max(1, int(round(TEST_FRACTION * len(normal_idx))))
    test_normal = normal_idx[:n_test_normal]
    train_normal = normal_idx[n_test_normal:]
    if len(train_normal) == 0:
        raise ValidationError("no normal samples left for training")

    anom_train_pools: Dict[int, np.ndarray] = {}
    test_anom_parts = [np.empty(0, dtype=np.int64)]
    for cls in anomaly_classes:
        idx = rng.permutation(pool.class_indices(cls))
        n_test = int(round(TEST_FRACTION * len(idx)))
        test_anom_parts.append(idx[:n_test])
        anom_train_pools[cls] = idx[n_test:]

    # Labeled normals.
    n_labeled_normal = int(round(config.gamma_l * len(train_normal)))
    if config.gamma_l > 0 and n_labeled_normal < 1:
        raise ValidationError("gamma_l too small: no normal sample would be labeled")
    labeled_normal = train_normal[:n_labeled_normal]
    unlabeled_normal = train_normal[n_labeled_normal:]

    # Labeled anomalies: budget comparable to the normal training pool so the
    # supervision stays scarce, drawn evenly over anomaly classes.
    features, ids, true_class = pool.features, pool.ids, pool.true_class
    if config.scenario == "s3":
        if aux_pool is None or outlier_pool is None:
            raise ValidationError("scenario s3 requires aux_pool and outlier_pool")
        pools = (pool, aux_pool, outlier_pool)
        features = np.concatenate([p.features for p in pools])
        ids = np.concatenate([p.ids for p in pools])
        true_class = np.concatenate([p.true_class for p in pools])
        budget = min(len(aux_pool), len(train_normal))
        n_labeled_anom = int(round(config.gamma_l * budget))
        labeled_anom = len(pool) + rng.permutation(len(aux_pool))[:n_labeled_anom]
    else:
        total_anom_pool = int(sum(len(v) for v in anom_train_pools.values()))
        if config.gamma_l > 0 and total_anom_pool == 0:
            raise ValidationError("gamma_l > 0 but the anomaly pool is empty")
        budget = min(total_anom_pool, len(train_normal))
        n_labeled_anom = int(round(config.gamma_l * budget))
        labeled_anom = _even_draw(rng, anom_train_pools, n_labeled_anom)
        anom_train_pools = {c: v[~np.isin(v, labeled_anom)]
                            for c, v in anom_train_pools.items()}

    # Contamination (s2): grow the unlabeled set with hidden anomalies until
    # they make up gamma_p of it.
    unlabeled_idx = unlabeled_normal
    if config.scenario == "s2" and config.gamma_p > 0.0:
        n_clean = len(unlabeled_idx)
        n_inject = int(round(config.gamma_p * n_clean / (1.0 - config.gamma_p)))
        injected = _even_draw(rng, anom_train_pools, n_inject)
        unlabeled_idx = np.concatenate([unlabeled_idx, injected])

    # Freeze the 5-to-95 validation split of the unlabeled set.
    unlabeled_idx = rng.permutation(unlabeled_idx)
    n_val = int(round(VAL_FRACTION * len(unlabeled_idx)))
    val_idx = unlabeled_idx[:n_val]
    train_unlabeled = unlabeled_idx[n_val:]

    if config.scenario == "s3":
        n_test_out = int(round(TEST_FRACTION * len(outlier_pool)))
        test_anom_parts = [len(pool) + len(aux_pool)
                           + rng.permutation(len(outlier_pool))[:max(1, n_test_out)]]

    def select(*parts):
        """One dataset from ``(indices, semi value)`` parts, in order."""
        idx = np.concatenate([i for i, _ in parts])
        semi = np.repeat([s for _, s in parts], [len(i) for i, _ in parts])
        return Dataset(features[idx], semi, ids[idx], true_class[idx])

    train = select((train_unlabeled, UNLABELED), (labeled_normal, LABELED_NORMAL),
                   (labeled_anom, LABELED_ANOMALY))
    validation = select((val_idx, UNLABELED))
    test = select((test_normal, UNLABELED),
                  (np.concatenate(test_anom_parts), UNLABELED))

    for a, b in ((train, validation), (train, test), (validation, test)):
        if set(a.ids.tolist()) & set(b.ids.tolist()):
            raise ValidationError("internal error: splits share sample ids")
    return ScenarioSplit(train=train, validation=validation, test=test)


# --------------------------------------------------------------------------
# File framing. A dataset file is one payload section of ``count`` rows of
# length dim + 2 (features..., semi, true_class) under the header
# {"count", "dim", "version"}.
# --------------------------------------------------------------------------

def write_framed(path, header: dict, arrays: Sequence[np.ndarray]) -> None:
    """Write ``header`` as one sorted-key JSON line, then each array as float32.

    An entry beyond the float32 range would be stored as infinity, which no
    reader accepts, so it raises ``ValidationError`` before the file is opened.
    """
    for i, arr in enumerate(arrays):
        if np.abs(arr).max(initial=0.0) > np.finfo(np.float32).max:
            raise ValidationError(f"payload section {i} exceeds the float32 range")
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_framed(path, label: str, version_key: str, version: int,
                layout: Callable[[dict], Sequence[Tuple[str, Sequence[int]]]],
                ) -> Tuple[dict, Dict[str, np.ndarray]]:
    """The header of a framed file and its payload sections, widened to float64.

    ``layout(header)`` lists the payload's ``(name, shape)`` sections in
    file order. A header that is not a JSON object, holds another version,
    lacks a key the layout reads or has a malformed entry (a version or
    section size that is not an exact int: ``true`` is no 1, or a section
    name that is no string or is named twice) raises ``ValidationError``, as
    does a payload of the wrong size.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(line)
    except ValueError as exc:     # not JSON, or not UTF-8 text
        raise ValidationError(f"bad {label}: {exc}") from exc
    if not isinstance(header, dict):
        raise ValidationError(f"bad {label}: not a JSON object")
    if type(header.get(version_key)) is not int or header[version_key] != version:
        raise ValidationError(f"{label} format version {header.get(version_key)} "
                              f"not supported (expected {version})")
    try:
        sections = [(name, tuple(shape)) for name, shape in layout(header)]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad {label}: {type(exc).__name__}: {exc}") from exc

    arrays: Dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in sections:
        if type(name) is not str:
            raise ValidationError(f"bad {label}: section name {name!r} is not a string")
        if not all(type(n) is int and n >= 0 for n in shape):
            raise ValidationError(f"bad {label}: section {name} has shape {list(shape)}")
        if name in arrays:
            raise ValidationError(f"bad {label}: section {name} is named twice")
        count = math.prod(shape)
        if offset + 4 * count > len(payload):
            raise ValidationError(f"payload truncated in section {name}")
        arrays[name] = np.frombuffer(payload, "<f4", count, offset).astype(
            np.float64).reshape(shape)
        offset += 4 * count
    if offset != len(payload):
        raise ValidationError(f"payload has {len(payload) - offset} trailing bytes")
    return header, arrays


def write_dataset(path, ds: Dataset) -> None:
    rows = np.column_stack([ds.features, ds.semi, ds._true_class])
    write_framed(path, {"version": 1, "dim": int(ds.dim), "count": int(len(ds))},
                 [rows])


def _dataset_layout(header: dict):
    if type(header["dim"]) is not int or header["dim"] < 0:
        raise ValueError(f"dim {header['dim']!r} is not a non-negative int")
    return [("rows", (header["count"], header["dim"] + 2))]


def read_dataset(path) -> Dataset:
    header, arrays = read_framed(path, "dataset header", "version", 1, _dataset_layout)
    rows, dim = arrays["rows"], header["dim"]
    labels = rows[:, dim:]
    if not np.all(np.isfinite(labels) & (labels == np.trunc(labels))):
        raise ValidationError("dataset semi and class columns must hold integers")
    return Dataset(rows[:, :dim], labels[:, 0].astype(np.int64),
                   np.arange(len(rows), dtype=np.int64), labels[:, 1].astype(np.int64))
