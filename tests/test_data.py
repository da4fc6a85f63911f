import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from protoad.config import preset
from protoad.data import (LABELED_ANOMALY, LABELED_NORMAL, UNLABELED, Dataset,
                          Pool, ScenarioConfig, SyntheticSpec, ValidationError,
                          build_scenario, generate, read_dataset, read_framed,
                          write_dataset, write_framed)
from protoad.mathcore import NumericError
from protoad.pipeline import build_splits

from oracles import generate_by_vstack


# ---------------------------------------------------------------- generate

def test_generate_zero_variance_collapses_to_mean():
    spec = SyntheticSpec(input_dim=2, normal_subclusters=1, anomaly_classes=1,
                         within_spread=0.0, samples_per_class=20, seed=3)
    pool = generate(spec)
    normal = pool.features[pool.true_class == 0]
    assert np.allclose(normal, pool.means[0])


def test_generate_seed_contract():
    spec = dict(input_dim=2, normal_subclusters=1, anomaly_classes=1,
                samples_per_class=20)
    a = generate(SyntheticSpec(seed=0, **spec))
    b = generate(SyntheticSpec(seed=1, **spec))
    assert not np.allclose(a.means, b.means)
    for cls in (0, 1):
        assert (a.true_class == cls).sum() == (b.true_class == cls).sum()
    # identical seed reproduces bytes
    c = generate(SyntheticSpec(seed=0, **spec))
    assert np.array_equal(a.features, c.features)


def test_generate_default_pool_nearest_mean_recovery():
    spec = SyntheticSpec(input_dim=32, normal_subclusters=4, anomaly_classes=9,
                         samples_per_class=1000, seed=0)
    pool = generate(spec)
    assert len(pool) == 10_000
    # oracle: nearest generating mean recovers the component assignment
    d2 = ((pool.features[:, None, :] - pool.means[None, :, :]) ** 2).sum(axis=2)
    recovered = np.argmin(d2, axis=1)
    accuracy = float(np.mean(recovered == pool.cluster_id))
    assert accuracy >= 0.99


def test_generate_infeasible_mean_placement():
    # 40 means pairwise >= 2 sigma apart cannot fit in 1-D draws from N(0, sigma^2)
    spec = SyntheticSpec(input_dim=1, normal_subclusters=40, anomaly_classes=0,
                         samples_per_class=1, seed=0)
    with pytest.raises(NumericError, match="infeasible"):
        generate(spec)


@pytest.mark.parametrize("spec", [
    SyntheticSpec(input_dim=3, normal_subclusters=3, anomaly_classes=2,
                  samples_per_class=10, seed=4),      # normals split 4/3/3
    SyntheticSpec(input_dim=5, normal_subclusters=4, anomaly_classes=1,
                  samples_per_class=2, seed=1),       # two empty subclusters
    SyntheticSpec(input_dim=8, normal_subclusters=1, anomaly_classes=0,
                  samples_per_class=7, seed=2),
    SyntheticSpec(samples_per_class=300, seed=7),
])
def test_generate_equals_vstack_construction_bitwise(spec):
    got, want = generate(spec), generate_by_vstack(spec)
    for name in ("features", "true_class", "ids", "cluster_id", "means"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def test_generate_traced_peak_is_about_one_pool():
    spec = SyntheticSpec(input_dim=32, normal_subclusters=4, anomaly_classes=9,
                         samples_per_class=1000, seed=0)
    generate(SyntheticSpec(samples_per_class=1))    # lazy numpy imports
    tracemalloc.start()
    try:
        pool = generate(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * pool.features.nbytes


def test_spec_validation():
    with pytest.raises(ValidationError):
        SyntheticSpec(within_spread=2.0)
    with pytest.raises(ValidationError):
        SyntheticSpec(normal_subclusters=0)


# ---------------------------------------------------------- build_scenario

def _pool(samples_per_class=100, anomaly_classes=3, seed=0):
    return generate(SyntheticSpec(input_dim=8, normal_subclusters=2,
                                  anomaly_classes=anomaly_classes,
                                  samples_per_class=samples_per_class, seed=seed))


def test_scenario_fully_unlabeled_when_gamma_zero():
    split = build_scenario(_pool(), ScenarioConfig(scenario="s1", gamma_l=0.0))
    assert np.all(split.train.semi == UNLABELED)
    assert np.all(split.validation.semi == UNLABELED)


def test_scenario_labeled_fractions():
    split = build_scenario(_pool(samples_per_class=200),
                           ScenarioConfig(scenario="s1", gamma_l=0.1))
    train_normal_pool = 160  # 200 minus 20% test holdout
    assert (split.train.semi == LABELED_NORMAL).sum() == round(0.1 * train_normal_pool)
    assert (split.train.semi == LABELED_ANOMALY).sum() == round(0.1 * train_normal_pool)


def test_scenario_s2_contamination_fraction():
    # 1250 normals -> 250 test, 1000 unlabeled; gamma_p=0.10
    pool = _pool(samples_per_class=1250, anomaly_classes=3)
    cfg = ScenarioConfig(scenario="s2", gamma_l=0.0, gamma_p=0.10, seed=5)
    split = build_scenario(pool, cfg)
    u_train = split.train.eval_true_class()[split.train.semi == UNLABELED]
    u_val = split.validation.eval_true_class()
    hidden = np.concatenate([u_train, u_val])
    frac = float(np.mean(hidden != 0))
    assert abs(frac - 0.10) <= 1.0 / len(hidden) + 1e-12
    # injected evenly across the three anomaly classes
    counts = [int((hidden == c).sum()) for c in (1, 2, 3)]
    assert max(counts) - min(counts) <= 1


def test_scenario_splits_disjoint_by_id():
    split = build_scenario(_pool(), ScenarioConfig(scenario="s2", gamma_l=0.05,
                                                   gamma_p=0.05))
    ids = [set(split.train.ids.tolist()), set(split.validation.ids.tolist()),
           set(split.test.ids.tolist())]
    assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])


def test_scenario_semi_groups_disjoint():
    split = build_scenario(_pool(), ScenarioConfig(scenario="s1", gamma_l=0.2))
    semi = split.train.semi
    groups = [set(split.train.ids[semi == v].tolist())
              for v in (UNLABELED, LABELED_NORMAL, LABELED_ANOMALY)]
    assert not (groups[0] & groups[1])
    assert not (groups[0] & groups[2])
    assert not (groups[1] & groups[2])


def test_scenario_determinism():
    pool = _pool()
    cfg = ScenarioConfig(scenario="s2", gamma_l=0.1, gamma_p=0.05, seed=9)
    a = build_scenario(pool, cfg)
    b = build_scenario(pool, cfg)
    assert np.array_equal(a.train.features, b.train.features)
    assert np.array_equal(a.train.semi, b.train.semi)
    assert np.array_equal(a.validation.ids, b.validation.ids)
    assert np.array_equal(a.test.ids, b.test.ids)


def test_scenario_s1_rejects_pollution():
    with pytest.raises(ValidationError):
        ScenarioConfig(scenario="s1", gamma_l=0.1, gamma_p=0.1)


def test_scenario_empty_anomaly_pool_with_labels():
    pool = generate(SyntheticSpec(input_dim=4, normal_subclusters=2,
                                  anomaly_classes=0, samples_per_class=50, seed=0))
    with pytest.raises(ValidationError):
        build_scenario(pool, ScenarioConfig(scenario="s1", gamma_l=0.1))


def test_scenario_validation_is_five_percent_of_unlabeled():
    pool = _pool(samples_per_class=1250)
    split = build_scenario(pool, ScenarioConfig(scenario="s1", gamma_l=0.0))
    n_unlabeled = (split.train.semi == UNLABELED).sum() + len(split.validation)
    assert len(split.validation) == round(0.05 * n_unlabeled)


def test_scenario_s3_uses_auxiliary_pools():
    pool = _pool()
    aux = _pool(seed=1)
    aux = Pool(aux.features + 5.0, aux.true_class + 100, aux.ids + 10_000,
               aux.cluster_id, None)
    out = _pool(seed=2)
    out = Pool(out.features - 5.0, out.true_class + 200, out.ids + 20_000,
               out.cluster_id, None)
    cfg = ScenarioConfig(scenario="s3", gamma_l=0.1)
    split = build_scenario(pool, cfg, aux_pool=aux, outlier_pool=out)
    anom_ids = split.train.ids[split.train.semi == LABELED_ANOMALY]
    assert np.all(anom_ids >= 10_000) and np.all(anom_ids < 20_000)
    test_anom = split.test.ids[split.test.eval_true_class() != 0]
    assert np.all(test_anom >= 20_000)
    with pytest.raises(ValidationError):
        build_scenario(pool, cfg)  # missing auxiliary pools


def _content_hash(split):
    h = hashlib.sha256()
    for ds in (split.train, split.validation, split.test):
        for a in (ds.features, ds.semi, ds.ids, ds.eval_true_class()):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case, expected", [
    ("s2", "bc51f19bf0167b4d1bf8a96391cd365fadbf3412380aeac80268acdb2634ffc0"),
    ("s3", "db6f271d6135c178ac5953c28d56830240f00d721a8a64941e9a29508c477a73"),
    ("mix", "14e2094cb8f871db856e8ae9aaf0800a194c566bd60f5deafb2347c29a205782"),
    ("gamma_l0", "f56a7ead57dd7d3226d6931336a9fdd02d53fe0f1ba8412d8b893a1188b9d7ba"),
])
def test_split_content_is_pinned(case, expected):
    # Features, semi-labels, ids and true classes of all three sets, byte for byte.
    rc = preset("smoke")
    if case == "mix":
        split = build_scenario(generate(rc.synthetic_spec()), rc.scenario_config(),
                               anomaly_classes=[1, 3])
    else:
        split = build_splits({"s2": rc, "s3": rc.replace(scenario="s3"),
                              "gamma_l0": rc.replace(gamma_l=0.0)}[case])
    assert _content_hash(split) == expected


def test_true_class_hidden_from_training_surface():
    split = build_scenario(_pool(), ScenarioConfig(scenario="s1", gamma_l=0.1))
    public = [a for a in dir(split.train) if not a.startswith("_")]
    exposed = [a for a in public if "true" in a or "label" in a]
    assert all(a.startswith("eval_") for a in exposed)


def test_dataset_copies_instead_of_freezing_caller_arrays():
    a = np.zeros((3, 2))
    semi = np.array([UNLABELED, LABELED_NORMAL, LABELED_ANOMALY])
    ids = np.arange(3)
    ds = Dataset(a, semi, ids, np.zeros(3, dtype=np.int64))
    a[0, 0] = 5.0
    semi[0] = LABELED_NORMAL
    ids[0] = 7
    assert ds.features[0, 0] == 0.0
    assert ds.semi[0] == UNLABELED and ds.ids[0] == 0
    with pytest.raises(ValueError):
        ds.features[0, 0] = 1.0


# ----------------------------------------------------------- file format

def test_dataset_roundtrip(tmp_path):
    split = build_scenario(_pool(), ScenarioConfig(scenario="s2", gamma_l=0.1,
                                                   gamma_p=0.1))
    path = tmp_path / "train.ds"
    write_dataset(path, split.train)
    loaded = read_dataset(path)
    assert len(loaded) == len(split.train)
    assert np.array_equal(loaded.semi, split.train.semi)
    assert np.array_equal(loaded.eval_true_class(), split.train.eval_true_class())
    assert np.allclose(loaded.features, split.train.features, atol=1e-6)
    # header is a single JSON line
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header == {"version": 1, "dim": 8, "count": len(split.train)}


def test_dataset_write_is_deterministic(tmp_path):
    split = build_scenario(_pool(), ScenarioConfig(scenario="s1", gamma_l=0.1))
    p1, p2 = tmp_path / "a.ds", tmp_path / "b.ds"
    write_dataset(p1, split.train)
    write_dataset(p2, split.train)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_truncated_payload(tmp_path):
    split = build_scenario(_pool(), ScenarioConfig(scenario="s1", gamma_l=0.0))
    path = tmp_path / "t.ds"
    write_dataset(path, split.train)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(ValidationError):
        read_dataset(path)


@pytest.mark.parametrize("value", [1e300, -1e39, 3.5e38])
def test_write_dataset_rejects_features_beyond_float32(tmp_path, value):
    def dataset(entry):
        features = np.zeros((3, 4))
        features[1, 2] = entry
        return Dataset(features, np.zeros(3, dtype=np.int64), np.arange(3), np.zeros(3))

    path = tmp_path / "big.ds"
    with pytest.raises(ValidationError, match="float32 range"):
        write_dataset(path, dataset(value))
    assert not path.exists()
    largest = float(np.finfo(np.float32).max)    # still round-trips
    write_dataset(path, dataset(largest))
    assert read_dataset(path).features[1, 2] == largest


def test_dataset_version_true_is_not_version_1(tmp_path):
    path = tmp_path / "t.ds"
    write_framed(path, {"version": True, "dim": 3, "count": 2}, [np.zeros((2, 5))])
    with pytest.raises(ValidationError, match="format version True not supported"):
        read_dataset(path)


def test_framed_sections_round_trip(tmp_path):
    path = tmp_path / "f.bin"
    a, b = np.arange(6.0).reshape(2, 3), np.array(2.5)
    write_framed(path, {"v": 7, "shapes": [[2, 3], []]}, [a, b])
    header, arrays = read_framed(path, "test header", "v", 7,
                                 lambda h: [("a", h["shapes"][0]), ("b", h["shapes"][1])])
    assert header == {"v": 7, "shapes": [[2, 3], []]}
    assert arrays["a"].dtype == np.float64 and np.array_equal(arrays["a"], a)
    assert arrays["b"].shape == () and arrays["b"] == 2.5


@pytest.mark.parametrize("shape, match", [
    ([2, 2], "payload truncated in section a"),
    ([1, 1], "payload has 4 trailing bytes"),
    ([2, 1.5], "bad test header: section a has shape"),
    ([-2, -2], "bad test header: section a has shape"),
    (3, "bad test header"),
    ([True, 2], "bad test header: section a has shape"),
])
def test_framed_payload_must_match_its_layout(tmp_path, shape, match):
    path = tmp_path / "f.bin"
    write_framed(path, {"v": 1}, [np.zeros((1, 2))])
    with pytest.raises(ValidationError, match=match):
        read_framed(path, "test header", "v", 1, lambda h: [("a", shape)])
