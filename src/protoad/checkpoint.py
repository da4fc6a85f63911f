"""Checkpoint files in the shared ``data`` framing.

The header line is the manifest: the format version, the full run
configuration (a JSON object) and the epoch (an integer), both required, an
optional RNG state, and one section entry (name + shape) per weight array;
the float32 payload concatenates the sections in manifest order: the encoder
fields, then any prototype vectors: a (slots, m, d) stack as wide as the
embedding. A flat (k, d) set, saved before sets carried their shift slots, is
refused. Other manifest keys are ignored. Arrays are widened back to float64
on load, so save -> load -> save reproduces the file byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .data import ValidationError, read_framed, write_framed
from .encoder import EncoderParams
from .prototypes import PrototypeSet

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    config: dict
    epoch: int
    rng_state: Optional[dict]
    params: EncoderParams
    prototypes: Optional[PrototypeSet]


def save_checkpoint(path, *, config: dict, epoch: int, params: EncoderParams,
                    prototypes: Optional[PrototypeSet] = None,
                    rng_state: Optional[dict] = None) -> None:
    named = [(f"encoder.{f}", getattr(params, f)) for f in EncoderParams.FIELDS]
    if prototypes is not None:
        named.append(("prototypes.vectors", prototypes.vectors))
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config,
        "epoch": int(epoch),
        "rng_state": rng_state,
        "sections": [{"name": name, "shape": list(arr.shape)} for name, arr in named],
    }
    write_framed(path, manifest, [arr for _, arr in named])


def load_checkpoint(path) -> Checkpoint:
    manifest, arrays = read_framed(
        path, "checkpoint manifest", "format_version", FORMAT_VERSION,
        lambda m: [(sec["name"], sec["shape"]) for sec in m["sections"]])
    try:
        params = EncoderParams(*(arrays[f"encoder.{f}"] for f in EncoderParams.FIELDS))
    except KeyError as exc:
        raise ValidationError(f"checkpoint missing section {exc}") from exc
    config, epoch = manifest.get("config"), manifest.get("epoch")
    if not isinstance(config, dict) or type(epoch) is not int:
        raise ValidationError("bad checkpoint manifest: it needs a config object "
                              "and an integer epoch")

    protos = None
    if "prototypes.vectors" in arrays:
        protos = PrototypeSet(arrays["prototypes.vectors"], norm_tol=1e-5)
        if protos.vectors.shape[2] != params.w3.shape[0]:
            raise ValidationError(f"checkpoint prototypes are {protos.vectors.shape[2]} "
                                  f"wide, embeddings {params.w3.shape[0]}")
    return Checkpoint(config=config, epoch=epoch, rng_state=manifest.get("rng_state"),
                      params=params, prototypes=protos)
