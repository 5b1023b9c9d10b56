"""Versioned canonical-JSON model persistence (.pdmodel.json).

Canonical form: fixed field order, reals as decimal text with 17 significant
digits, so model equality is byte equality and doubles round-trip exactly.
-0.0 is written "-0.0", since JSON reads "-0" as the integer 0. NaN and
infinities are not JSON, so writing one is a ValueError.

Format version 3 packs an SVM's support-vector matrix, the bulk of a clot
model, as {"shape": [m, d], "float64le_hex": "..."}: the lowercase hex of its
m*d little-endian float64 values in row-major order. It is the file's last
value, so an SVM file ends in '"}}}\n'. The packed values are the doubles
themselves, so they round-trip bit for bit and the bytes stay deterministic.
Every other field keeps its version 1 form. save_model writes version 3
only. Version 1 files (support vectors as nested decimal lists) and version
2 files (the same packed matrix as strict base64, "float64le_base64") still
load.

Loading a file exactly as save_model writes it skips the JSON scan of the
packed string: the few KB around it are parsed with the string emptied, and
must be a version 3 SVM envelope whose canonical text is those very bytes,
so the emptied string can only be $.payload.support_vectors.float64le_hex.
The hex is then decoded straight from the file's bytes. Any other input, a
hand-edited version 3 file included, gets the full JSON parse, with the same
checks and messages.

What a load scans: a packed matrix once, for its rows' squared norms, which
the model keeps for its first score. A NaN or infinity makes its row's norm
NaN or infinite, so finite norms clear the matrix; only a non-finite norm,
which a huge finite row also gives, rescans it element by element. A forest's
trees are walked once, each node checked, its JSON path spelled out only for
an error message.

Memory: save_model builds an SVM's file in one preallocated bytearray and
hex-encodes the support vectors into it a piece at a time, so the only
file-sized buffer it makes is its result. A load as save_model wrote it
holds the file's bytes and the decoded matrix, and, for the norms, a block
of about 256 KB of squared rows; the full parse holds at most
two file-sized buffers at once: the bytes and the text decoded from them,
then the text and the packed string parsed from it, then the packed string
and the decoded support vectors; each is dropped once the next is made.
"""

from __future__ import annotations

import binascii
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .core import FormatError, TrainingError
from .forest import ForestHyperparams, ForestModel, check_hyperparams
from .svm import SvmModel

FORMAT_VERSION = 3
# Support-vector bytes hex-encoded per step. The pieces' hex joins into the
# whole's at any size; the size only bounds each step's temporary.
_ENCODE_CHUNK = 3 << 16
# Per format version that packs the support vectors: the packed string's
# field, its encoding's name, and the strict decoder of that encoding.
_PACKED = {
    2: ("float64le_base64", "base64", functools.partial(binascii.a2b_base64, strict_mode=True)),
    3: ("float64le_hex", "hex", binascii.a2b_hex),
}
# How a version 3 SVM file as save_model writes it starts, and what comes
# just before and just after its packed string.
_SVM_START = b'{"format_version": 3, "kind": "svm", '
_HEX_OPEN = b'"float64le_hex": "'
_SVM_END = b'"}}}\n'
_JSON = json.JSONDecoder()  # the decoder json.loads uses
_FLOAT_MAX = sys.float_info.max


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


def _all_finite(arr: np.ndarray) -> bool:
    """Whether arr holds no NaN or infinity, checked without an array-sized
    temporary: min and max propagate NaN."""
    return arr.size == 0 or math.isfinite(arr.min()) and math.isfinite(arr.max())


def _packed_matrix(mapping, key, path, version: int) -> np.ndarray:
    """mapping[key] in its version 2 or 3 form, {"shape": [m, d], field: text},
    as an (m, d) float64 array, not yet checked to be finite. The fast load
    puts the decoded bytes in place of the text."""
    field, encoding, decode = _PACKED[version]
    packed = _expect(mapping, key, dict, path)
    path = f"{path}.{key}"
    shape = _expect(packed, "shape", list, path)
    if len(shape) != 2 or not all(type(n) is int and n >= 0 for n in shape):
        raise PersistError(f"field {path}.shape must be two non-negative integers")
    _expect(packed, field, (str, bytes), path)
    text = packed.pop(field)  # so the string is freed once it is decoded
    try:
        raw = text if isinstance(text, bytes) else decode(text)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise PersistError(f"field {path}.{field} is not {encoding}: {exc}") from None
    del text
    # Nothing is sized by shape before this check, so a huge shape allocates nothing.
    n_bytes = 8 * shape[0] * shape[1]
    if len(raw) != n_bytes:
        raise PersistError(f"field {path}.{field} does not hold {n_bytes} bytes")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _node_path(path) -> str:
    """The JSON path text of a tree node: path is the tree's index in
    $.payload.trees, or (the parent's path, ".left" or ".right")."""
    steps = []
    while type(path) is tuple:
        path, step = path
        steps.append(step)
    return f"$.payload.trees[{path}]" + "".join(reversed(steps))


def _tree_from_dict(obj, path, n_features: int) -> dict:
    """A fresh copy of the tree node obj, every node checked; unknown keys are
    dropped. path is as _node_path takes it, joined only for a message."""
    if not isinstance(obj, dict):
        raise PersistError(f"field {_node_path(path)} must be an object")
    if "leaf" in obj:
        leaf = obj["leaf"]
        if isinstance(leaf, list) and len(leaf) == 2:
            n0, n1 = leaf
            if type(n0) is int and type(n1) is int and n0 >= 0 and n1 >= 0 and n0 + n1 > 0:
                return {"leaf": [n0, n1]}
        raise PersistError(f"field {_node_path(path)}.leaf must be [n0, n1]: two non-negative "
                           "integers with a positive sum")
    feature, threshold, left = obj.get("feature"), obj.get("threshold"), obj.get("left")
    if not (type(feature) is int and 0 <= feature < n_features and type(threshold) is float
            and -_FLOAT_MAX <= threshold <= _FLOAT_MAX and type(left) is dict):
        # Not a split as JSON reads a well-formed one: the checks raise the
        # first fault, and an int threshold passes as a float.
        text = _node_path(path)
        feature = _expect(obj, "feature", int, text)
        if not 0 <= feature < n_features:
            raise PersistError(f"field {text}.feature = {feature} is outside [0, {n_features})")
        threshold = _real(obj, "threshold", text)
        left = _expect(obj, "left", dict, text)
    left = _tree_from_dict(left, (path, ".left"), n_features)
    right = obj.get("right")
    if type(right) is not dict:
        right = _expect(obj, "right", dict, _node_path(path))
    return {"feature": feature, "threshold": threshold, "left": left,
            "right": _tree_from_dict(right, (path, ".right"), n_features)}


def save_model(model, created_with: dict) -> bytes | bytearray:
    """The model file's bytes; an SVM's are the bytearray the file is built in."""
    sv = None
    if isinstance(model, SvmModel):
        kind = "svm"
        sv = np.ascontiguousarray(model.support_vectors, dtype="<f8")
        if not _all_finite(sv):
            raise ValueError("cannot serialize a non-finite float array")
        payload = {
            "gamma": float(model.gamma),
            "c": float(model.c),
            "bias": float(model.bias),
            "alpha_y": np.asarray(model.alpha_y, dtype=np.float64).tolist(),
            "support_vectors": {"shape": list(sv.shape), "float64le_hex": ""},
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
    if sv is None:
        return text.encode()
    # The empty packed string is the file's last value. The file is sized
    # first, and the hex is written between its quotes piece by piece, so no
    # whole-size hex copy is made beside it.
    head, _, tail = text.rpartition('""')
    head, tail = head.encode() + b'"', b'"' + tail.encode()
    raw = sv.reshape(-1).view(np.uint8)
    out = bytearray(len(head) + 2 * len(raw) + len(tail))
    out[:len(head)] = head
    pos = len(head)
    for start in range(0, len(raw), _ENCODE_CHUNK):
        piece = binascii.b2a_hex(raw[start:start + _ENCODE_CHUNK])
        out[pos:pos + len(piece)] = piece
        pos += len(piece)
    out[pos:] = tail
    return out


def _fast_svm_envelope(data):
    """The envelope of a version 3 SVM file in the canonical form save_model
    writes, its packed support vectors decoded straight from data's bytes;
    None for any other bytes.

    Only the bytes around the packed string are parsed, with the string
    emptied. They must be the canonical text of a version 3 SVM envelope, so
    they hold '"float64le_hex": ""' at $.payload.support_vectors, and the
    first such text is where the string was emptied; and the string must be
    hex digits only, which JSON reads as themselves. So the full parse would
    have read the same envelope.
    """
    if not (data.startswith(_SVM_START) and data.endswith(_SVM_END)):
        return None
    start = data.find(_HEX_OPEN) + len(_HEX_OPEN)
    end = len(data) - len(_SVM_END)
    if not len(_HEX_OPEN) <= start <= end:
        return None
    head = data[:start] + data[end:]
    try:
        envelope = _JSON.decode(head.decode("ascii"))
        packed = envelope["payload"]["support_vectors"]
        if packed["float64le_hex"] != "" or (_canon(envelope) + "\n").encode() != head:
            return None
        packed["float64le_hex"] = binascii.a2b_hex(memoryview(data)[start:end])
    except (ValueError, TypeError, LookupError, RecursionError):
        return None
    return envelope


def load_model(data: bytes):
    """Returns (model, created_with).  Anything but a well-formed model with
    finite numbers raises PersistError."""
    envelope = _fast_svm_envelope(data)
    if envelope is None:
        try:
            # json.loads(data), with the bytes dropped once decoded and the text
            # once parsed (a caller that keeps its own reference keeps them).
            text = data.decode(json.detect_encoding(data), "surrogatepass")
            del data
            envelope = _JSON.decode(text)
            del text
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8/16/32
            raise PersistError(f"invalid JSON: {exc}") from exc
        except RecursionError:
            raise PersistError("invalid JSON: nested too deeply") from None
    version = _expect(envelope, "format_version", int, "$")
    if version not in (1, *_PACKED):
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
            sv = _packed_matrix(payload, "support_vectors", "$.payload", version)
        model = SvmModel(support_vectors=sv, alpha_y=alpha_y, bias=bias, gamma=gamma, c=c)
        if version > 1 and sv.size:  # an empty matrix is refused below, with nothing sized by it
            # Finite norms clear the matrix (see the module docstring). A huge
            # finite row overflows, and squaring a signalling NaN would warn
            # "invalid", which the exact test's min and max do not.
            with np.errstate(over="ignore", invalid="ignore"):
                norms = model.sv_sq_norms
            if not (_all_finite(norms) or _all_finite(sv)):
                raise PersistError("field $.payload.support_vectors must be finite numbers "
                                   "in 2 dimensions")
        if sv.size == 0 or len(sv) != len(alpha_y):
            raise PersistError(f"$.payload.support_vectors of shape {sv.shape} is empty or has a "
                               f"length mismatch with alpha_y ({len(alpha_y)})")
        return model, created_with
    if kind == "forest":
        n_features = _expect(payload, "n_features", int, "$.payload")
        if n_features < 1:
            raise PersistError(f"field $.payload.n_features = {n_features} is below 1")
        hp_obj = _expect(payload, "hyperparams", dict, "$.payload")
        # Every setting is an int; one whose default is None may be null or absent.
        hp = ForestHyperparams(**{
            f.name: None if f.default is None and hp_obj.get(f.name) is None
            else _expect(hp_obj, f.name, int, "$.payload.hyperparams")
            for f in dataclasses.fields(ForestHyperparams)})
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
            trees = [_tree_from_dict(t, i, n_features) for i, t in enumerate(trees_obj)]
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
