import json

import numpy as np
import pytest

from protoad import encoder as enc
from protoad.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from protoad.config import preset
from protoad.data import ValidationError
from protoad.prototypes import PrototypeSet

DIMS = enc.EncoderDims(input=6, hidden=8, embed=4, shifts=2)


def _save(path, with_prototypes=True):
    vectors = np.random.default_rng(1).normal(size=(1, 5, DIMS.embed))
    vectors /= np.linalg.norm(vectors, axis=-1, keepdims=True)
    save_checkpoint(path, config=preset("smoke").to_dict(), epoch=3,
                    params=enc.init(0, DIMS),
                    prototypes=PrototypeSet(vectors) if with_prototypes else None,
                    rng_state=np.random.default_rng(9).bit_generator.state)
    return path.read_bytes()


def _split(blob):
    manifest, _, payload = blob.partition(b"\n")
    return json.loads(manifest), payload


def _join(manifest, payload):
    return (json.dumps(manifest, sort_keys=True) + "\n").encode("ascii") + payload


@pytest.mark.parametrize("with_prototypes", [True, False])
def test_save_load_save_is_byte_identical(tmp_path, with_prototypes):
    first = _save(tmp_path / "a.ckpt", with_prototypes)
    ck = load_checkpoint(tmp_path / "a.ckpt")
    save_checkpoint(tmp_path / "b.ckpt", config=ck.config, epoch=ck.epoch,
                    params=ck.params, prototypes=ck.prototypes,
                    rng_state=ck.rng_state)
    assert (tmp_path / "b.ckpt").read_bytes() == first


def test_load_restores_every_field(tmp_path):
    _save(tmp_path / "a.ckpt")
    ck = load_checkpoint(tmp_path / "a.ckpt")
    assert ck.config == preset("smoke").to_dict()
    assert ck.epoch == 3
    assert ck.rng_state == np.random.default_rng(9).bit_generator.state
    assert ck.prototypes.vectors.shape == (1, 5, DIMS.embed)
    np.testing.assert_allclose(ck.params.flat, enc.init(0, DIMS).flat, rtol=1e-7)


def test_truncated_blob_raises(tmp_path):
    path = tmp_path / "a.ckpt"
    path.write_bytes(_save(path)[:-4])
    with pytest.raises(ValidationError, match="truncated in section prototypes.vectors"):
        load_checkpoint(path)


def test_prototype_section_without_shift_slots_is_refused(tmp_path):
    # A flat (k, d) set predates the (slots, m, d) stack; read as slots it would
    # score differently, so it does not load.
    path = tmp_path / "a.ckpt"
    manifest, payload = _split(_save(path))
    assert manifest["sections"][-1] == {"name": "prototypes.vectors",
                                        "shape": [1, 5, DIMS.embed]}
    manifest["sections"][-1]["shape"] = [5, DIMS.embed]
    path.write_bytes(_join(manifest, payload))
    with pytest.raises(ValidationError, match=r"\(slots, m, d\) stack, got shape \(5, 4\)"):
        load_checkpoint(path)


def test_trailing_bytes_raise(tmp_path):
    path = tmp_path / "a.ckpt"
    path.write_bytes(_save(path) + b"\0\0\0\0")
    with pytest.raises(ValidationError, match="trailing bytes"):
        load_checkpoint(path)


def test_wrong_format_version_raises(tmp_path):
    path = tmp_path / "a.ckpt"
    manifest, payload = _split(_save(path))
    manifest["format_version"] = FORMAT_VERSION + 1
    path.write_bytes(_join(manifest, payload))
    with pytest.raises(ValidationError, match="format version 2 not supported"):
        load_checkpoint(path)


def test_format_version_true_is_not_version_1(tmp_path):
    path = tmp_path / "a.ckpt"
    manifest, payload = _split(_save(path))
    manifest["format_version"] = True
    path.write_bytes(_join(manifest, payload))
    with pytest.raises(ValidationError, match="format version True not supported"):
        load_checkpoint(path)


def test_missing_encoder_section_raises(tmp_path):
    path = tmp_path / "a.ckpt"
    manifest, payload = _split(_save(path, with_prototypes=False))
    last = manifest["sections"].pop()
    assert last["name"] == "encoder.bh"
    path.write_bytes(_join(manifest, payload[:-4 * DIMS.shifts]))
    with pytest.raises(ValidationError, match="missing section 'encoder.bh'"):
        load_checkpoint(path)


def test_non_json_manifest_raises(tmp_path):
    path = tmp_path / "a.ckpt"
    _, payload = _split(_save(path))
    path.write_bytes(b"not a manifest\n" + payload)
    with pytest.raises(ValidationError, match="bad checkpoint manifest"):
        load_checkpoint(path)


def test_repeated_section_raises(tmp_path):
    # A second encoder.b1 entry with its own slice must not replace the first.
    path = tmp_path / "a.ckpt"
    manifest, payload = _split(_save(path))
    manifest["sections"].append({"name": "encoder.b1", "shape": [DIMS.hidden]})
    path.write_bytes(_join(manifest, payload + np.ones(DIMS.hidden, "<f4").tobytes()))
    with pytest.raises(ValidationError, match="section encoder.b1 is named twice"):
        load_checkpoint(path)
