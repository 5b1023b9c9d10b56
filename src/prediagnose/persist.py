"""Versioned canonical-JSON model persistence (.pdmodel.json).

Canonical form: fixed field order, reals as decimal text with 17 significant
digits, so model equality is byte equality and doubles round-trip exactly.
-0.0 is written "-0.0", since JSON reads "-0" as the integer 0. NaN and
infinities are not JSON, so writing one is a ValueError.

Format version 2 packs an SVM's support-vector matrix, the bulk of a clot
model, as {"shape": [m, d], "float64le_base64": "..."}: the standard base64
(no line breaks) of its m*d little-endian float64 values in row-major order.
Parsing 17-digit decimals was nearly all of a clot `predict`; decoding
base64 costs a fraction of that. The packed values are the doubles
themselves, so they round-trip bit for bit and the bytes stay deterministic.
Every other field keeps its version 1 form. save_model writes version 2
only; version 1 files, whose support vectors are nested decimal lists,
still load.
"""

from __future__ import annotations

import binascii
import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np

from .core import FormatError, TrainingError
from .forest import ForestHyperparams, ForestModel, check_hyperparams
from .svm import SvmModel

FORMAT_VERSION = 2


class PersistError(FormatError):
    """Schema violation, unknown kind, or unsupported version."""


# ---------------------------------------------------------------------------
# canonical JSON writer (stdlib json cannot pin float formatting)


def _canon(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_canon(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_canon(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize the non-finite float {obj}")
        text = format(float(obj), ".17g")
        return "-0.0" if text == "-0" else text  # "-0" would read back as the integer 0
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _expect(mapping, key, types, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise PersistError(f"missing field {path}.{key}")
    value = mapping[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise PersistError(f"field {path}.{key} has wrong type {type(value).__name__}")
    return value


def _real(mapping, key, path) -> float:
    """A finite number at mapping[key]."""
    try:
        value = float(_expect(mapping, key, (int, float), path))
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise PersistError(f"field {path}.{key} must be finite, got {value}")
    return value


def _finite_array(mapping, key, path, ndim: int) -> np.ndarray:
    """mapping[key], nested lists of numbers, as a finite float64 array of ndim dimensions."""
    values = _expect(mapping, key, list, path)
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PersistError(f"field {path}.{key} must hold numbers only: {exc}") from exc
    if arr.ndim != ndim or not np.all(np.isfinite(arr)):
        raise PersistError(f"field {path}.{key} must be finite numbers in {ndim} dimensions")
    return arr


def _packed_matrix(mapping, key, path) -> np.ndarray:
    """mapping[key] in its version 2 form, {"shape": [m, d], "float64le_base64":
    text}, as a finite (m, d) float64 array."""
    packed = _expect(mapping, key, dict, path)
    path = f"{path}.{key}"
    shape = _expect(packed, "shape", list, path)
    if len(shape) != 2 or not all(type(n) is int and n >= 0 for n in shape):
        raise PersistError(f"field {path}.shape must be two non-negative integers")
    text = _expect(packed, "float64le_base64", str, path)
    try:
        raw = binascii.a2b_base64(text, strict_mode=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise PersistError(f"field {path}.float64le_base64 is not base64: {exc}") from None
    # Nothing is sized by shape before this check, so a huge shape allocates nothing.
    n_bytes = 8 * shape[0] * shape[1]
    if len(raw) != n_bytes:
        raise PersistError(f"field {path}.float64le_base64 does not hold {n_bytes} bytes")
    arr = np.frombuffer(raw, dtype="<f8").reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise PersistError(f"field {path} must be finite numbers in 2 dimensions")
    return arr


def _tree_from_dict(obj, path, n_features: int) -> dict:
    """A fresh copy of the tree node obj, every node checked; unknown keys are dropped."""
    if not isinstance(obj, dict):
        raise PersistError(f"field {path} must be an object")
    if "leaf" in obj:
        leaf = obj["leaf"]
        if not (isinstance(leaf, list) and len(leaf) == 2
                and all(type(n) is int and n >= 0 for n in leaf) and sum(leaf) > 0):
            raise PersistError(f"field {path}.leaf must be [n0, n1]: two non-negative "
                               "integers with a positive sum")
        return {"leaf": list(leaf)}
    feature = _expect(obj, "feature", int, path)
    if not 0 <= feature < n_features:
        raise PersistError(f"field {path}.feature = {feature} is outside [0, {n_features})")
    return {"feature": feature, "threshold": _real(obj, "threshold", path),
            "left": _tree_from_dict(_expect(obj, "left", dict, path), f"{path}.left", n_features),
            "right": _tree_from_dict(_expect(obj, "right", dict, path), f"{path}.right",
                                     n_features)}


def save_model(model, created_with: dict) -> bytes:
    packed = None
    if isinstance(model, SvmModel):
        kind = "svm"
        sv = np.ascontiguousarray(model.support_vectors, dtype="<f8")
        if not np.all(np.isfinite(sv)):
            raise ValueError("cannot serialize a non-finite float array")
        packed = binascii.b2a_base64(sv, newline=False)
        payload = {
            "gamma": float(model.gamma),
            "c": float(model.c),
            "bias": float(model.bias),
            "alpha_y": np.asarray(model.alpha_y, dtype=np.float64).tolist(),
            "support_vectors": {"shape": list(sv.shape), "float64le_base64": ""},
        }
    elif isinstance(model, ForestModel):
        kind = "forest"
        payload = {
            "n_features": int(model.n_features),
            "hyperparams": dataclasses.asdict(model.hyperparams),
            "trees": model.trees,
        }
    else:
        raise PersistError(f"unknown model type {type(model).__name__}")
    envelope = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "created_with": created_with,
        "payload": payload,
    }
    text = _canon(envelope) + "\n"
    if packed is None:
        return text.encode()
    # The empty packed string is the file's last value. Joining the packed
    # bytes in between its quotes keeps a single copy of them beside the result.
    head, _, tail = text.rpartition('""')
    return b"".join([head.encode(), b'"', packed, b'"', tail.encode()])


def load_model(data: bytes):
    """Returns (model, created_with).  Anything but a well-formed model with
    finite numbers raises PersistError."""
    try:
        envelope = json.loads(data)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8/16/32
        raise PersistError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise PersistError("invalid JSON: nested too deeply") from None
    version = _expect(envelope, "format_version", int, "$")
    if version not in (1, FORMAT_VERSION):
        raise PersistError(f"unsupported format_version {version}")
    kind = _expect(envelope, "kind", str, "$")
    created_with = _expect(envelope, "created_with", dict, "$")
    payload = _expect(envelope, "payload", dict, "$")
    if kind == "svm":
        gamma = _real(payload, "gamma", "$.payload")
        c = _real(payload, "c", "$.payload")
        if gamma < 0 or c <= 0:
            raise PersistError(f"need gamma >= 0 and c > 0, got gamma={gamma}, c={c}")
        bias = _real(payload, "bias", "$.payload")
        alpha_y = _finite_array(payload, "alpha_y", "$.payload", 1)
        if version == 1:
            sv = _finite_array(payload, "support_vectors", "$.payload", 2)
        else:
            sv = _packed_matrix(payload, "support_vectors", "$.payload")
        if sv.size == 0 or len(sv) != len(alpha_y):
            raise PersistError(f"$.payload.support_vectors of shape {sv.shape} is empty or has a "
                               f"length mismatch with alpha_y ({len(alpha_y)})")
        return SvmModel(support_vectors=sv, alpha_y=alpha_y, bias=bias, gamma=gamma, c=c), created_with
    if kind == "forest":
        n_features = _expect(payload, "n_features", int, "$.payload")
        if n_features < 1:
            raise PersistError(f"field $.payload.n_features = {n_features} is below 1")
        hp_obj = _expect(payload, "hyperparams", dict, "$.payload")
        mtry = hp_obj.get("mtry")
        if mtry is not None and not isinstance(mtry, int):
            raise PersistError("field $.payload.hyperparams.mtry has wrong type")
        hp = ForestHyperparams(
            n_trees=_expect(hp_obj, "n_trees", int, "$.payload.hyperparams"),
            max_depth=_expect(hp_obj, "max_depth", int, "$.payload.hyperparams"),
            min_samples_leaf=_expect(hp_obj, "min_samples_leaf", int, "$.payload.hyperparams"),
            mtry=mtry,
            seed=_expect(hp_obj, "seed", int, "$.payload.hyperparams"),
        )
        trees_obj = _expect(payload, "trees", list, "$.payload")
        if not trees_obj or hp.n_trees < 1:
            raise PersistError("a forest needs at least one tree in $.payload.trees and "
                               "$.payload.hyperparams.n_trees")
        if hp.n_trees != len(trees_obj):
            raise PersistError(f"field $.payload.hyperparams.n_trees = {hp.n_trees} disagrees "
                               f"with the {len(trees_obj)} trees in $.payload.trees")
        try:
            check_hyperparams(hp)
        except TrainingError as exc:
            raise PersistError(f"field $.payload.hyperparams: {exc}") from None
        try:
            trees = [_tree_from_dict(t, f"$.payload.trees[{i}]", n_features)
                     for i, t in enumerate(trees_obj)]
        except RecursionError:
            raise PersistError("field $.payload.trees is nested too deeply") from None
        return ForestModel(trees=trees, n_features=n_features, hyperparams=hp), created_with
    raise PersistError(f"unknown model kind {kind!r}")


def save_model_file(path, model, created_with: dict) -> None:
    """Atomic write: temp file in the target directory, then rename.

    The temp file is created with mode 0o666 less the umask, as open() would.
    """
    path = Path(path)
    data = save_model(model, created_with)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_model_file(path):
    with open(path, "rb") as fh:
        return load_model(fh.read())
