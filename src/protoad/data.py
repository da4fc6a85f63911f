"""Synthetic pools, scenario splits, and dataset persistence.

The synthetic generator stands in for an image benchmark: one heterogeneous
normal class (a mixture of well-separated Gaussian subclusters) plus several
unimodal anomaly classes. Scenario builders carve a pool into the three
semi-supervised sets (unlabeled / labeled-normal / labeled-anomaly), inject
contamination, and hold out a labeled test split.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .mathcore import NumericError, as_f64

# Wire encoding for semi-supervision labels (also used on disk).
UNLABELED = 0
LABELED_NORMAL = 1
LABELED_ANOMALY = -1

_MEAN_RETRIES = 200


class ValidationError(ValueError):
    """Invalid configuration or precondition violation."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Geometry of a synthetic pool.

    The normal class (class 0) is a mixture of ``normal_subclusters``
    Gaussians; every anomaly class is a single Gaussian. All component means
    are kept at pairwise distance >= 2 * cluster_spread so that subcluster
    structure is actually recoverable.
    """

    input_dim: int = 32
    normal_subclusters: int = 4
    anomaly_classes: int = 9
    cluster_spread: float = 1.0
    within_spread: float = 0.65
    samples_per_class: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValidationError("input_dim must be positive")
        if self.normal_subclusters < 1:
            raise ValidationError("normal_subclusters must be >= 1")
        if self.anomaly_classes < 0:
            raise ValidationError("anomaly_classes must be >= 0")
        if self.samples_per_class < 1:
            raise ValidationError("samples_per_class must be >= 1")
        if not (0.0 <= self.within_spread < self.cluster_spread):
            raise ValidationError(
                "within_spread must satisfy 0 <= within_spread < cluster_spread"
            )


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

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def classes(self) -> np.ndarray:
        return np.unique(self.true_class)

    def class_indices(self, cls: int) -> np.ndarray:
        return np.flatnonzero(self.true_class == cls)

    def with_id_offset(self, offset: int) -> "Pool":
        return Pool(self.features, self.true_class, self.ids + offset,
                    self.cluster_id, self.means)


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


def _component_means(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Component means, normal subclusters first, drawn from ``rng``.

    Each mean is rejection-sampled from N(0, cluster_spread^2 I) until it
    sits at distance >= 2 * cluster_spread from every earlier one; each gets
    a bounded retry budget, after which placement fails.
    """
    n_components = spec.normal_subclusters + spec.anomaly_classes
    min_dist = 2.0 * spec.cluster_spread
    means = np.empty((n_components, spec.input_dim))
    for c in range(n_components):
        for attempt in range(_MEAN_RETRIES + 1):
            cand = rng.normal(0.0, spec.cluster_spread, size=spec.input_dim)
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
    test_fraction: float = 0.2
    val_fraction: float = 0.05

    def __post_init__(self):
        if self.scenario not in ("s1", "s2", "s3"):
            raise ValidationError(f"unknown scenario {self.scenario!r}")
        for name in ("gamma_l", "gamma_p"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1], got {v}")
        if self.scenario == "s1" and self.gamma_p > 0.0:
            raise ValidationError("scenario s1 forbids contamination (gamma_p must be 0)")
        if not (0.0 < self.test_fraction < 1.0):
            raise ValidationError("test_fraction must lie in (0, 1)")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ValidationError("val_fraction must lie in [0, 1)")


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
    normal_class: int = 0,
    anomaly_classes: Optional[Sequence[int]] = None,
    aux_pool: Optional[Pool] = None,
    outlier_pool: Optional[Pool] = None,
) -> ScenarioSplit:
    """Split a pool into (train, validation, test) under one scenario.

    s1: labeled normals and anomalies at ratio gamma_l, clean unlabeled set.
    s2: s1 plus anomalies hidden in the unlabeled set at fraction gamma_p,
        drawn evenly from every anomaly class.
    s3: labeled anomalies come from ``aux_pool`` (an auxiliary distribution)
        and the test anomalies from ``outlier_pool`` (unseen at training).

    Pairwise id-disjointness between the three sets and between the
    semi-label groups is guaranteed. The validation set is the 5% slice of
    the unlabeled split (ratio 5-to-95) and is excluded from training.
    """
    rng = np.random.default_rng(config.seed)
    classes = set(int(c) for c in pool.classes())
    if normal_class not in classes:
        raise ValidationError(f"normal class {normal_class} not present in pool")
    if anomaly_classes is None:
        anomaly_classes = sorted(classes - {normal_class})
    else:
        anomaly_classes = sorted(int(c) for c in anomaly_classes)
        missing = set(anomaly_classes) - classes
        if missing:
            raise ValidationError(f"anomaly classes missing from pool: {sorted(missing)}")
    if len(classes) < 2 and config.scenario != "s3":
        raise ValidationError("pool must contain at least two classes")

    normal_idx = rng.permutation(pool.class_indices(normal_class))
    n_test_normal = max(1, int(round(config.test_fraction * len(normal_idx))))
    test_normal = normal_idx[:n_test_normal]
    train_normal = normal_idx[n_test_normal:]
    if len(train_normal) == 0:
        raise ValidationError("no normal samples left for training")

    anom_train_pools: Dict[int, np.ndarray] = {}
    test_anom_parts = []
    for cls in anomaly_classes:
        idx = rng.permutation(pool.class_indices(cls))
        n_test = int(round(config.test_fraction * len(idx)))
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
    if config.scenario == "s3":
        if aux_pool is None or outlier_pool is None:
            raise ValidationError("scenario s3 requires aux_pool and outlier_pool")
        budget = min(len(aux_pool), len(train_normal))
        n_labeled_anom = int(round(config.gamma_l * budget))
        aux_perm = rng.permutation(len(aux_pool))[:n_labeled_anom]
        labeled_anom_feats = aux_pool.features[aux_perm]
        labeled_anom_ids = aux_pool.ids[aux_perm]
        labeled_anom_classes = aux_pool.true_class[aux_perm]
    else:
        total_anom_pool = int(sum(len(v) for v in anom_train_pools.values()))
        if config.gamma_l > 0 and total_anom_pool == 0:
            raise ValidationError("gamma_l > 0 but the anomaly pool is empty")
        budget = min(total_anom_pool, len(train_normal))
        n_labeled_anom = int(round(config.gamma_l * budget))
        labeled_anom = _even_draw(rng, anom_train_pools, n_labeled_anom)
        anom_train_pools = {c: v[~np.isin(v, labeled_anom)]
                            for c, v in anom_train_pools.items()}
        labeled_anom_feats = pool.features[labeled_anom]
        labeled_anom_ids = pool.ids[labeled_anom]
        labeled_anom_classes = pool.true_class[labeled_anom]

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
    n_val = int(round(config.val_fraction * len(unlabeled_idx)))
    val_idx = unlabeled_idx[:n_val]
    train_unlabeled = unlabeled_idx[n_val:]

    def subset(idx, semi_value):
        return (pool.features[idx], np.full(len(idx), semi_value, dtype=np.int64),
                pool.ids[idx], pool.true_class[idx])

    u_f, u_s, u_i, u_c = subset(train_unlabeled, UNLABELED)
    n_f, n_s, n_i, n_c = subset(labeled_normal, LABELED_NORMAL)
    a_s = np.full(len(labeled_anom_ids), LABELED_ANOMALY, dtype=np.int64)
    train = Dataset(
        np.vstack([u_f, n_f, labeled_anom_feats.reshape(-1, pool.dim)]),
        np.concatenate([u_s, n_s, a_s]),
        np.concatenate([u_i, n_i, labeled_anom_ids]),
        np.concatenate([u_c, n_c, labeled_anom_classes]),
    )
    validation = Dataset(*subset(val_idx, UNLABELED))

    if config.scenario == "s3":
        test_out = rng.permutation(len(outlier_pool))
        n_test_out = int(round(config.test_fraction * len(outlier_pool)))
        out_take = test_out[:max(1, n_test_out)]
        test = Dataset(
            np.vstack([pool.features[test_normal], outlier_pool.features[out_take]]),
            np.zeros(len(test_normal) + len(out_take), dtype=np.int64),
            np.concatenate([pool.ids[test_normal], outlier_pool.ids[out_take]]),
            np.concatenate([pool.true_class[test_normal], outlier_pool.true_class[out_take]]),
        )
    else:
        test_anom = (np.concatenate(test_anom_parts)
                     if test_anom_parts else np.empty(0, dtype=np.int64))
        test_idx = np.concatenate([test_normal, test_anom])
        test = Dataset(pool.features[test_idx],
                       np.zeros(len(test_idx), dtype=np.int64),
                       pool.ids[test_idx], pool.true_class[test_idx])

    for a, b in ((train, validation), (train, test), (validation, test)):
        if set(a.ids.tolist()) & set(b.ids.tolist()):
            raise ValidationError("internal error: splits share sample ids")
    return ScenarioSplit(train=train, validation=validation, test=test)


# --------------------------------------------------------------------------
# Dataset file format: one JSON header line, then `count` little-endian
# float32 rows of length dim + 2 (features..., semi, true_class).
# --------------------------------------------------------------------------

def write_dataset(path, ds: Dataset) -> None:
    header = {"version": 1, "dim": int(ds.dim), "count": int(len(ds))}
    rows = np.empty((len(ds), ds.dim + 2), dtype="<f4")
    if np.abs(ds.features).max(initial=0.0) > np.finfo(np.float32).max:
        raise ValidationError("dataset features exceed the float32 range")
    rows[:, :ds.dim] = ds.features
    rows[:, ds.dim] = ds.semi
    rows[:, ds.dim + 1] = ds._true_class
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("ascii"))
        fh.write(rows.tobytes())


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"bad dataset header: {exc}") from exc
        if header.get("version") != 1:
            raise ValidationError(f"unsupported dataset version {header.get('version')}")
        dim, count = int(header["dim"]), int(header["count"])
        blob = fh.read()
    expect = count * (dim + 2) * 4
    if len(blob) != expect:
        raise ValidationError(f"dataset payload is {len(blob)} bytes, expected {expect}")
    rows = np.frombuffer(blob, dtype="<f4").reshape(count, dim + 2).astype(np.float64)
    return Dataset(rows[:, :dim], rows[:, dim].astype(np.int64),
                   np.arange(count, dtype=np.int64), rows[:, dim + 1].astype(np.int64))
