"""Property tests for the readers of outside input: any bytes give either a
valid object or a FormatError, never another exception."""

import binascii
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from prediagnose import persist
from prediagnose.audioproc import read_wav
from prediagnose.core import AudioSignal, FormatError, GrayImage
from prediagnose.forest import ForestModel
from prediagnose.imageproc import read_pgm, read_ppm
from prediagnose.svm import SvmModel
from prediagnose.synththermal import load_manifest

# Derandomized so that every run of the suite tries the same inputs.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

SMALL_INT = st.integers(min_value=-3, max_value=6)
HEADER_TOKEN = st.one_of(SMALL_INT.map(str), st.sampled_from(["255", "256", "0", "x", "1e3",
                                                                "99999999999"]))


@st.composite
def _well_formed_pnm(draw, magic: bytes, channels: int):
    """A small valid file, sometimes cut short or with trailing bytes."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    raster = draw(st.binary(min_size=w * h * channels, max_size=w * h * channels))
    data = magic + f"\n{w} {h}\n255\n".encode() + raster
    return data[: len(data) - draw(st.integers(0, 2))] + draw(st.binary(max_size=2))


def pnm_bytes(magic: bytes, channels: int):
    """Whole random byte strings, headers of plausible tokens followed by
    random raster bytes, and small well-formed files."""
    header = st.tuples(HEADER_TOKEN, HEADER_TOKEN, HEADER_TOKEN,
                       st.sampled_from([" ", "\n", "\n# note\n", "\t"])).map(
        lambda t: magic + (t[3] + t[0] + " " + t[1] + t[3] + t[2] + "\n").encode())
    return st.one_of(st.binary(max_size=64),
                     st.tuples(header, st.binary(max_size=80)).map(b"".join),
                     _well_formed_pnm(magic, channels))


def _valid_image_or_format_error(read, data: bytes) -> None:
    try:
        img = read(data)
    except FormatError:
        return
    assert isinstance(img, GrayImage)
    assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0


@PROPERTY
@given(pnm_bytes(b"P5", 1))
def test_read_pgm_any_bytes(data):
    _valid_image_or_format_error(read_pgm, data)


@PROPERTY
@given(pnm_bytes(b"P6", 3))
def test_read_ppm_any_bytes(data):
    _valid_image_or_format_error(read_ppm, data)


def _chunk(chunk_id: bytes, body: bytes, size: int | None = None) -> bytes:
    size = len(body) if size is None else size
    return chunk_id + size.to_bytes(4, "little") + body


def _fmt_chunk(code: int, channels: int, rate: int, bits: int) -> bytes:
    return _chunk(b"fmt ", code.to_bytes(2, "little") + channels.to_bytes(2, "little")
                  + rate.to_bytes(4, "little") + bytes(6) + bits.to_bytes(2, "little"))


WAV_FMT = st.one_of(
    st.just(_fmt_chunk(1, 1, 4000, 16)),
    st.builds(_fmt_chunk, st.sampled_from([0, 1, 3]), st.integers(0, 3),
              st.sampled_from([0, 1, 4000, 8000, 2**32 - 1]), st.sampled_from([8, 16, 24])),
)
WAV_CHUNK = st.one_of(
    WAV_FMT,
    st.binary(max_size=40).map(lambda b: _chunk(b"data", b)),
    st.tuples(st.binary(max_size=8), st.integers(0, 2**32 - 1)).map(
        lambda t: _chunk(b"data", t[0], t[1])),
    st.tuples(st.binary(min_size=4, max_size=4), st.binary(max_size=12)).map(
        lambda t: _chunk(t[0], t[1])),
)
WAV_BYTES = st.one_of(
    st.binary(max_size=64),
    st.lists(WAV_CHUNK, max_size=4).map(lambda chunks: b"RIFF\0\0\0\0WAVE" + b"".join(chunks)),
    st.binary(max_size=40).map(  # well-formed mono PCM16
        lambda raw: b"RIFF\0\0\0\0WAVE" + _fmt_chunk(1, 1, 4000, 16) + _chunk(b"data", raw)),
)


@PROPERTY
@given(WAV_BYTES)
def test_read_wav_any_bytes(data):
    try:
        sig = read_wav(data)
    except FormatError:
        return
    assert isinstance(sig, AudioSignal)
    assert np.all(np.abs(sig.samples) <= 1.0)


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.sampled_from([10**400]),
              st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)


def _paths(obj, prefix=()):
    """The key path of obj itself and of every value inside it (for lists,
    of their first three items)."""
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj[:3]):
            yield from _paths(value, prefix + (i,))


def _replaced(obj, path, value):
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


_GOLDEN = Path(__file__).parent / "golden"
VALID_MODELS = [json.loads((_GOLDEN / name).read_bytes())
                for name in ("svm_tiny.pdmodel.json", "forest_tiny.pdmodel.json",
                             "svm_tiny.v2.pdmodel.json", "forest_tiny.v2.pdmodel.json",
                             "svm_tiny.v3.pdmodel.json", "forest_tiny.v3.pdmodel.json")]


@st.composite
def mutated_model(draw):
    """A valid model file with one field, at any depth, replaced by any JSON value."""
    base = draw(st.sampled_from(VALID_MODELS))
    path = draw(st.sampled_from(list(_paths(base))))
    return json.dumps(_replaced(base, path, draw(JSON_VALUES))).encode()


MODEL_BYTES = st.one_of(st.binary(max_size=64), mutated_model(),
                        st.builds(lambda v: json.dumps(v).encode(), JSON_VALUES))


@PROPERTY
@given(MODEL_BYTES)
def test_load_model_any_bytes(data):
    try:
        model, created_with = persist.load_model(data)
    except FormatError:
        return
    assert isinstance(created_with, dict)
    if isinstance(model, SvmModel):
        assert model.support_vectors.ndim == 2 and model.support_vectors.size > 0
        assert model.alpha_y.shape == (len(model.support_vectors),)
        assert np.all(np.isfinite(model.support_vectors)) and np.all(np.isfinite(model.alpha_y))
        assert math.isfinite(model.bias) and model.gamma >= 0 and model.c > 0
    else:
        assert isinstance(model, ForestModel) and model.trees and model.n_features >= 1


EXTREMES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
FINITE_MATRICES = arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                         elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                            st.sampled_from(EXTREMES)))


@PROPERTY
@given(FINITE_MATRICES)
def test_packed_support_vectors_round_trip(sv):
    model = SvmModel(sv, np.ones(len(sv)), 0.5, 0.25, 2.0)
    data = persist.save_model(model, {})
    assert persist.save_model(model, {}) == data
    loaded, _ = persist.load_model(data)
    assert loaded.support_vectors.shape == sv.shape
    assert np.array_equal(loaded.support_vectors.view(np.int64), sv.view(np.int64))
    assert persist.save_model(loaded, {}) == data



@PROPERTY
@given(FINITE_MATRICES, st.sampled_from([1, 3, 7, 8, 24, 49, 3 << 16]))
def test_packed_support_vectors_do_not_depend_on_the_encode_chunk(sv, chunk):
    # Pieces of any size join into the hex of the whole matrix, which is
    # what the file holds when it is encoded in one call.
    model = SvmModel(sv, np.ones(len(sv)), 0.5, 0.25, 2.0)
    with mock.patch.object(persist, "_ENCODE_CHUNK", chunk):
        data = persist.save_model(model, {})
    packed = data.split(b'"float64le_hex": "')[1].partition(b'"')[0]
    assert packed == binascii.b2a_hex(np.ascontiguousarray(sv, "<f8").tobytes())
    assert data == persist.save_model(model, {})


@PROPERTY
@given(MODEL_BYTES)
def test_load_model_reads_bytes_as_json_loads_does(data):
    # load_model decodes and parses the bytes itself; whatever json.loads
    # refuses, it refuses with json.loads's message.
    try:
        json.loads(data)
    except ValueError as exc:
        with pytest.raises(FormatError) as err:
            persist.load_model(data)
        assert str(err.value) == f"invalid JSON: {exc}"


MANIFEST_CELL = st.one_of(st.sampled_from(["0", "1", "2", "-1", " 1", "a.pgm", '"q,x"', ""]),
                          st.text(max_size=6))
MANIFEST_TEXT = st.tuples(
    st.sampled_from(["filename,label", "label,filename", "filename,label,seed", "filename", ""]),
    st.lists(st.lists(MANIFEST_CELL, max_size=4).map(",".join), max_size=4),
    st.sampled_from(["\n", "\r\n", "\r"]),
).map(lambda t: (t[2].join([t[0], *t[1]]) + t[2]).encode("utf-8", "surrogatepass"))
MANIFEST_BYTES = st.one_of(st.binary(max_size=64), MANIFEST_TEXT)


@PROPERTY
@given(MANIFEST_BYTES)
def test_load_manifest_any_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "manifest.csv").write_bytes(data)
        try:
            rows = load_manifest(tmp)
        except FormatError:
            return
    assert rows and all(isinstance(name, str) and label in (0, 1) for name, label in rows)
