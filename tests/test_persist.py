import base64
import dataclasses
import hashlib
import json
import math
import os
import re
import stat
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prediagnose.core import LabeledDataset, Rng
from prediagnose import persist
from prediagnose import pipeline as pl
from prediagnose import synththermal
from prediagnose.config import config_snapshot
from prediagnose.forest import (ForestHyperparams, forest_predict, forest_predict_batch,
                               train_random_forest)
from prediagnose.svm import SvmModel, svm_decision
from prediagnose.synthcardio import generate_cardio_dataset

GOLDEN = Path(__file__).parent / "golden"


def tiny_svm():
    """The SVM of the frozen golden file, from its literal values, so that the
    golden tests check the file format and not the solver. (It was trained
    once on eight 2-D points drawn from Rng(2024), with c=4 and gamma=0.5.)"""
    support_vectors = np.array([
        [1.143769, 0.627566], [-1.783045, -0.445951], [-0.545086, 0.57832],
        [0.3561859999999999, 0.2845500000000001], [1.382414, 1.2649240000000002],
        [3.401956, 2.8527050000000003]])
    alpha_y = np.array([-4.0, -0.6554958221634319, -2.9484457596870364, 4.0,
                        2.867080497134917, 0.7368610847155519])
    return SvmModel(support_vectors, alpha_y, bias=0.18225650455783593, gamma=0.5, c=4.0)


def tiny_forest():
    """Deterministic reference forest used for the frozen golden file."""
    rng = Rng(77)
    X = np.round(rng.uniform_array(36).reshape(12, 3), 6)
    y = (X[:, 0] + X[:, 2] > 1.0).astype(int)
    hp = ForestHyperparams(n_trees=5, max_depth=4, min_samples_leaf=1, mtry=None, seed=3)
    return train_random_forest(LabeledDataset(X, y), hp)


class TestCanonicalJson:
    def test_float_formatting(self):
        assert persist._canon(0.1) == "0.10000000000000001"
        assert persist._canon(1.0) == "1"
        assert persist._canon({"a": [1, 2.5]}) == '{"a": [1, 2.5]}'
        assert persist._canon(True) == "true"
        assert persist._canon(None) == "null"

    def test_float_round_trip_exact(self):
        import json

        rng = Rng(1)
        for v in rng.gaussian_array(100):
            assert json.loads(persist._canon(float(v))) == float(v)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("nan")],
                             ids=["nan", "inf", "-inf", "np_nan"])
    def test_non_finite_refused(self, value):
        # NaN and Infinity are not JSON
        with pytest.raises(ValueError, match="non-finite"):
            persist._canon({"x": [value]})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_support_vector_refused(self, value):
        sv = np.zeros((2, 3))
        sv[1, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            persist.save_model(SvmModel(sv, np.ones(2), 0.0, 1.0, 1.0), {})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_alpha_y_refused(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            persist.save_model(SvmModel(np.zeros((2, 3)), np.array([1.0, value]), 0.0, 1.0, 1.0),
                               {})


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


def svm_bytes_reference(model, created_with=None, version=1) -> bytes:
    """An SVM model file, one format(v, ".17g") per float, except that -0.0 is
    "-0.0", in format version 1, 2 or 3: the source of v1 and v2 test files
    and the reference for save_model's version 3 bytes. Versions 2 and 3 pack
    the support vectors as their little-endian float64 bytes, in base64 and
    in lowercase hex."""
    def num(v):
        return "-0.0" if v == 0 and math.copysign(1.0, v) < 0 else format(float(v), ".17g")

    def row(values):
        return "[" + ", ".join(num(v) for v in values) + "]"

    if version == 1:
        svs = "[" + ", ".join(row(sv) for sv in model.support_vectors) + "]"
    else:
        m, d = model.support_vectors.shape
        raw = np.asarray(model.support_vectors, dtype="<f8").tobytes()
        field, text = (("float64le_base64", base64.b64encode(raw).decode()) if version == 2
                       else ("float64le_hex", raw.hex()))
        svs = f'{{"shape": [{m}, {d}], "{field}": "{text}"}}'
    return (f'{{"format_version": {version}, "kind": "svm", "created_with": '
            f'{persist._canon(created_with or {})}, "payload": '
            f'{{"gamma": {num(model.gamma)}, "c": {num(model.c)}, "bias": {num(model.bias)}, '
            f'"alpha_y": {row(model.alpha_y)}, "support_vectors": {svs}}}}}\n').encode()


@st.composite
def svm_models(draw):
    m, d = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    values = st.lists(st.one_of(FINITE, st.sampled_from(EXTREMES)), min_size=m * d + m + 3,
                      max_size=m * d + m + 3)
    v = draw(values)
    return SvmModel(support_vectors=np.array(v[: m * d], dtype=np.float64).reshape(m, d),
                    alpha_y=np.array(v[m * d : m * d + m], dtype=np.float64),
                    bias=v[-3], gamma=v[-2], c=v[-1])


def bits(values) -> np.ndarray:
    """The IEEE-754 bit patterns of values, so that -0.0 differs from 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


def assert_same_svm(loaded, model):
    """loaded holds model's doubles bit for bit, signs of zeros included."""
    assert loaded.support_vectors.shape == model.support_vectors.shape
    assert np.array_equal(bits(loaded.support_vectors), bits(model.support_vectors))
    assert np.array_equal(bits(loaded.alpha_y), bits(model.alpha_y))
    assert np.array_equal(bits([loaded.bias, loaded.gamma, loaded.c]),
                          bits([model.bias, model.gamma, model.c]))


CHUNK_VALUES = persist._ENCODE_CHUNK // 8  # doubles hex-encoded per piece


class TestSvmBytes:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(svm_models())
    @example(SvmModel(np.array([EXTREMES, EXTREMES[::-1]]), np.array([-0.0, 5e-324]),
                      -0.0, 1.7976931348623157e308, 5e-324))
    def test_save_model_formats_each_float_with_17_digits(self, model):
        # save_model writes exactly the reference's version 3 bytes. Version 1
        # (17 digits per float), version 2 (support vectors packed in base64)
        # and version 3 (packed in hex) files all load back bit for bit, and a
        # load followed by a save gives the version 3 bytes; a model
        # load_model refuses is refused in every form.
        saved = persist.save_model(model, {})
        assert saved == svm_bytes_reference(model, version=3)
        loadable = model.support_vectors.size > 0 and model.gamma >= 0 and model.c > 0
        for data in (svm_bytes_reference(model), svm_bytes_reference(model, version=2), saved):
            if loadable:
                loaded = persist.load_model(data)[0]
                assert_same_svm(loaded, model)
                assert persist.save_model(loaded, {}) == saved
            else:
                with pytest.raises(persist.PersistError):
                    persist.load_model(data)

    def test_seeded_clot_model_pinned(self):
        # Several 16,200-feature support vectors and the default created_with
        # record. The version 1 and 2 digests are of the reference writer in
        # those formats, which save_model wrote before version 3, so they pin
        # training on its own; the version 3 digest pins save_model.
        cfg = pl.ClotPipelineConfig()
        train = synththermal.generate_dataset(synththermal.ThermalConfig(), 6, 0.5, Rng(31))
        model = pl.clot_train(train, cfg, threads=1)
        assert len(model.alpha_y) > 1
        created_with = config_snapshot("clot", cfg)
        v1 = svm_bytes_reference(model, created_with)
        assert hashlib.sha256(v1).hexdigest() == (
            "cbd973675d372335fa1f1ebbfff65c231256f40db30c28e98b21f86d30509694")
        v2 = svm_bytes_reference(model, created_with, version=2)
        assert hashlib.sha256(v2).hexdigest() == (
            "10f2bd9d7f461a2b09f9e55fb5f17db9cd570f12355f9f4f9ae4490f0d54f091")
        v3 = persist.save_model(model, created_with)
        assert v3 == svm_bytes_reference(model, created_with, version=3)
        assert hashlib.sha256(v3).hexdigest() == (
            "d1a10415310143859ad7f647d396df0fb2c519171c233ccaf5a6cc3f73f866c1")

    # Support-vector counts below, on and across the encode chunk (counted
    # in doubles): save_model gives the reference's bytes, the hex of the
    # whole matrix, whatever the pieces were. The version 2 file of the same
    # model (base64 byte counts 0, 1 and 2 mod 3) loads to the same model.
    @pytest.mark.parametrize("n_values", [0, 1, 2, 3, CHUNK_VALUES - 1, CHUNK_VALUES,
                                          CHUNK_VALUES + 1, CHUNK_VALUES + 2, 2 * CHUNK_VALUES + 1])
    def test_packed_bytes_across_the_encode_chunk(self, n_values):
        shape = (1, n_values) if n_values else (0, 5)
        model = SvmModel(np.random.default_rng(n_values).standard_normal(shape),
                         np.ones(shape[0]), 0.5, 0.25, 2.0)
        saved = persist.save_model(model, {})
        assert saved == svm_bytes_reference(model, version=3)
        if n_values:
            for data in (saved, svm_bytes_reference(model, version=2)):
                loaded = persist.load_model(data)[0]
                assert_same_svm(loaded, model)
                assert persist.save_model(loaded, {}) == saved

    @pytest.mark.parametrize("encode", [
        lambda t: t.encode("utf-16-le"), lambda t: t.encode("utf-16-be"),
        lambda t: t.encode("utf-16"), lambda t: t.encode("utf-32"),
        lambda t: t.encode("utf-8-sig"),
        lambda t: t.replace("caf\u00e9", "\ud800").encode("utf-16-le", "surrogatepass"),
        lambda t: t.replace("\u2603", "").encode("latin-1"),
        lambda t: b"\xef\xbb\xbf" + t.encode("utf-16-le"),
        lambda t: b"\xef\xbb\xbf" + t.encode("utf-8-sig"),
    ], ids=["utf16le", "utf16be", "utf16_bom", "utf32_bom", "utf8_bom", "utf16_lone_surrogate",
            "latin1", "utf8_bom_then_utf16", "two_utf8_boms"])
    def test_text_encodings_read_as_json_loads_reads_them(self, encode):
        # load_model decodes the bytes as json.loads does: each encoding
        # loads, or fails with json.loads's message.
        data = encode(persist.save_model(tiny_svm(), {"note": "caf\u00e9 \u2603"}).decode())
        try:
            want = json.loads(data)
        except ValueError as exc:
            with pytest.raises(persist.PersistError) as err:
                persist.load_model(data)
            assert str(err.value) == f"invalid JSON: {exc}"
        else:
            loaded, created_with = persist.load_model(data)
            assert created_with == want["created_with"]
            assert_same_svm(loaded, tiny_svm())


# created_with records, some holding the text that comes just before the
# packed string, as a key or inside a string.
CREATED_WITH = [{}, {"tool": "test", "seed": 2024}, {"note": "caf\u00e9 \u2603"},
                {"float64le_hex": "ab"}, {"note": '"float64le_hex": "'},
                {'"float64le_hex": "': 1}, {"x": {"float64le_hex": ""}}]


def load_outcome(data, full_parse=False):
    """What load_model makes of data: the model's bits and created_with, or
    the PersistError message. full_parse=True turns the fast path off."""
    fast = (lambda data: None) if full_parse else persist._fast_svm_envelope
    with mock.patch.object(persist, "_fast_svm_envelope", fast):
        try:
            model, created_with = persist.load_model(data)
        except persist.PersistError as exc:
            return str(exc)
    return (model.support_vectors.shape, bits(model.support_vectors).tobytes(),
            bits(model.alpha_y).tobytes(), bits([model.bias, model.gamma, model.c]).tobytes(),
            created_with)


def _flip(data: bytes, lo: int, hi: int, i: int, mask: int) -> bytes:
    """data with the byte at lo + i % (hi - lo) xor mask (data itself if lo == hi)."""
    if hi <= lo:
        return data
    pos = lo + i % (hi - lo)
    return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]


def _mutations(data: bytes, i: int, mask: int) -> dict:
    """data, and edits of it that keep it JSON, break it, or move it off the
    form save_model writes."""
    start = data.find(b'"float64le_hex": "') + len(b'"float64le_hex": "')
    end = len(data) - len(b'"}}}\n')
    text = data.decode()
    hex_text = text[start:end]
    return {
        "none": data,
        "truncate": data[:i % (len(data) + 1)],
        "flip_head": _flip(data, 0, start, i, mask),
        "flip_hex": _flip(data, start, end, i, mask),
        "flip_tail": _flip(data, end, len(data), i, mask),
        "upper_hex": text[:start].encode() + hex_text.upper().encode() + text[end:].encode(),
        "escaped_hex_digit": (text[:start] + "".join(f"\\u{ord(c):04x}" for c in hex_text[:1])
                              + text[start + 1:]).encode(),
        "escaped_key": data.replace(b'"gamma"', b'"\\u0067amma"'),
        "payload_reordered": re.sub(rb'"gamma": ([^,]*), "c": ([^,]*), ', rb'"c": \2, "gamma": \1, ',
                                    data),
        "packed_reordered": data[:data.rfind(b'{"shape"')] + b'{"float64le_hex": "'
                            + data[start:end] + b'", ' + data[data.rfind(b'"shape"'):
                                                             data.rfind(b', "float64le_hex"')]
                            + b"}}}\n",
        "duplicate_kind": data.replace(b'"kind": "svm", ', b'"kind": "svm", "kind": "svm", ', 1),
        "duplicate_packed": data.replace(b'{"shape"', b'{"float64le_hex": "00", "shape"'),
        "duplicate_packed_last": data[:-5] + b'", "float64le_hex": "00"}}}\n',
        # The text before the packed string, first found after the field itself.
        "decoy_after_unspaced_field": data[:start - 3] + b':""}}, "zz": {"y": {"float64le_hex": "'
                                      + data[start:],
        "decoy_after_base64_field": data[:start - len(b'"float64le_hex": "')]
                                    + b'"float64le_base64": ""}}, "zz": {"y": {"float64le_hex": "'
                                    + data[start:],
        "space_in_hex": data[:start + 2] + b" " + data[start + 2:],
        "line_break_in_hex": data[:start + 2] + b"\n" + data[start + 2:],
        "version_2": data.replace(b'"format_version": 3', b'"format_version": 2', 1),
        "spaced": data.replace(b", ", b",  ", 1),
        "bom": b"\xef\xbb\xbf" + data,
        "utf16": text.encode("utf-16"),
        "trailing_space": data + b" ",
    }


class TestFastLoad:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(svm_models(), st.sampled_from(CREATED_WITH), st.integers(0, 1 << 20),
           st.integers(1, 255))
    def test_fast_path_loads_what_the_full_parse_loads(self, model, created_with, i, mask):
        # Whatever the edit, load_model gives the full parse's model and
        # created_with, or its error message.
        data = bytes(persist.save_model(model, created_with))
        for name, mutated in _mutations(data, i, mask).items():
            assert load_outcome(mutated) == load_outcome(mutated, full_parse=True), name

    def test_only_canonical_files_take_the_fast_path(self):
        # Payload keys in another order are still canonical text, and hex
        # digits in either case decode; any other edit gets the full parse.
        data = bytes(persist.save_model(tiny_svm(), {"tool": "test"}))
        edits = _mutations(data, 0, 1)
        for name in ("none", "payload_reordered", "upper_hex"):
            assert persist._fast_svm_envelope(edits[name]) is not None, name
        for name in ("escaped_key", "spaced", "duplicate_kind", "packed_reordered",
                     "escaped_hex_digit", "space_in_hex", "decoy_after_unspaced_field",
                     "decoy_after_base64_field", "bom", "trailing_space", "version_2"):
            assert persist._fast_svm_envelope(edits[name]) is None, name

    @pytest.mark.parametrize("created_with", CREATED_WITH)
    def test_save_model_files_take_the_fast_path(self, created_with):
        # Every file save_model writes, unless created_with holds the text
        # just before the packed string, loads without the full parse.
        data = persist.save_model(tiny_svm(), created_with)
        envelope = persist._fast_svm_envelope(data)
        if '"float64le_hex": "' in persist._canon(created_with):
            assert envelope is None
        else:
            expected = json.loads(data)
            packed = expected["payload"]["support_vectors"]
            packed["float64le_hex"] = bytes.fromhex(packed["float64le_hex"])
            assert envelope == expected
        assert load_outcome(data) == load_outcome(data, full_parse=True)
        assert_same_svm(persist.load_model(data)[0], tiny_svm())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(svm_models(), st.sampled_from(CREATED_WITH))
    def test_json_loads_reads_the_envelope(self, model, created_with):
        # A model file is JSON: json.loads reads exactly the envelope written.
        raw = np.asarray(model.support_vectors, dtype="<f8").tobytes()
        assert json.loads(persist.save_model(model, created_with)) == {
            "format_version": 3, "kind": "svm", "created_with": created_with,
            "payload": {"gamma": model.gamma, "c": model.c, "bias": model.bias,
                        "alpha_y": model.alpha_y.tolist(),
                        "support_vectors": {"shape": list(model.support_vectors.shape),
                                            "float64le_hex": raw.hex()}}}

    def test_json_loads_reads_the_forest_envelope(self):
        model = tiny_forest()
        assert json.loads(persist.save_model(model, {"k": "v"})) == {
            "format_version": 3, "kind": "forest", "created_with": {"k": "v"},
            "payload": {"n_features": model.n_features,
                        "hyperparams": dataclasses.asdict(model.hyperparams),
                        "trees": model.trees}}


def big_svm() -> SvmModel:
    """500 support vectors of 3,000 features: 12 MB of doubles, a 16 MB file."""
    rng = np.random.default_rng(3)
    return SvmModel(rng.standard_normal((500, 3000)), rng.standard_normal(500), 0.1, 1e-3, 10.0)


def traced_peak(fn):
    """(fn(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_save_model_builds_the_file_in_one_buffer(self):
        # Encoding the matrix whole and then joining the file makes two
        # file-sized buffers; building the file in place makes one.
        model = big_svm()
        data, peak = traced_peak(lambda: persist.save_model(model, {}))
        assert peak < len(data) + model.support_vectors.nbytes + 1_000_000

    def test_v2_load_holds_at_most_two_file_sized_buffers(self, tmp_path):
        # The bytes, the text, the packed string and the decoded matrix: each
        # is dropped once the next is made.
        path = tmp_path / "big.pdmodel.json"
        path.write_bytes(svm_bytes_reference(big_svm(), version=2))
        (model, _), peak = traced_peak(lambda: persist.load_model_file(path))
        assert peak < 2.2 * path.stat().st_size
        assert_same_svm(model, big_svm())

    def test_v3_load_holds_the_file_and_the_matrix(self, tmp_path):
        # The hex is decoded straight from the file's bytes: no text copy of
        # the file, no packed string and no finiteness mask beside them.
        path = tmp_path / "big.pdmodel.json"
        persist.save_model_file(path, big_svm(), {})
        (model, _), peak = traced_peak(lambda: persist.load_model_file(path))
        assert peak < path.stat().st_size + big_svm().support_vectors.nbytes + 500_000
        assert_same_svm(model, big_svm())


def assert_writes_golden(model, created_with, name):
    """save_model writes the frozen version 3 golden file, and the frozen
    version 1 and 2 golden files load and save to the same bytes."""
    v3 = (GOLDEN / f"{name}.v3.pdmodel.json").read_bytes()
    assert persist.save_model(model, created_with) == v3
    for old in (f"{name}.pdmodel.json", f"{name}.v2.pdmodel.json"):
        loaded, meta = persist.load_model((GOLDEN / old).read_bytes())
        assert meta == created_with
        assert persist.save_model(loaded, meta) == v3


class TestGolden:
    def test_svm_golden_bytes(self):
        assert_writes_golden(tiny_svm(), {"tool": "test", "seed": 2024}, "svm_tiny")

    def test_forest_golden_bytes(self):
        assert_writes_golden(tiny_forest(), {"tool": "test", "seed": 77}, "forest_tiny")
        # Version 3 changed only the SVM's packed field: a forest's file
        # differs from version 2 in the version digit alone.
        v2 = (GOLDEN / "forest_tiny.v2.pdmodel.json").read_bytes()
        assert (GOLDEN / "forest_tiny.v3.pdmodel.json").read_bytes() == v2.replace(
            b'{"format_version": 2, ', b'{"format_version": 3, ')

    def test_golden_loads_and_predicts_identically(self):
        fresh = tiny_svm()
        loaded, meta = persist.load_model((GOLDEN / "svm_tiny.pdmodel.json").read_bytes())
        assert meta == {"tool": "test", "seed": 2024}
        rng = Rng(9)
        for _ in range(100):
            x = rng.gaussian_array(2)
            assert svm_decision(loaded, x) == svm_decision(fresh, x)

    def test_golden_forest_batch_matches_rows(self):
        model, _ = persist.load_model((GOLDEN / "forest_tiny.pdmodel.json").read_bytes())
        rng = Rng(10)
        X = np.array([rng.uniform_array(3) for _ in range(100)])
        batch = forest_predict_batch(model, X)
        rows = np.array([forest_predict(model, x)[0] for x in X])
        assert batch.tobytes() == rows.tobytes()

    def test_golden_forest_predicts_identically(self):
        fresh = tiny_forest()
        loaded, _ = persist.load_model((GOLDEN / "forest_tiny.pdmodel.json").read_bytes())
        rng = Rng(10)
        for _ in range(100):
            x = rng.uniform_array(3)
            assert forest_predict(loaded, x) == forest_predict(fresh, x)


def small_cardio_forest():
    recordings = generate_cardio_dataset("lung", 8, 0.5, 2.0, 4000, Rng(5))
    cfg = pl.CardioPipelineConfig(forest=ForestHyperparams(n_trees=5))
    return pl.cardio_train(recordings, cfg, threads=1)


class TestRoundTrip:
    @pytest.mark.parametrize("make", [tiny_forest, small_cardio_forest])
    def test_forest_trees_round_trip(self, make):
        # A forest's trees are the node objects its file holds.
        model = make()
        loaded, _ = persist.load_model(persist.save_model(model, {}))
        assert loaded.trees == model.trees

    def test_loaded_trees_drop_unknown_keys(self):
        import json

        obj = json.loads(persist.save_model(tiny_forest(), {}))
        obj["payload"]["trees"][0]["note"] = "x"
        obj["payload"]["trees"][1] = {"leaf": [2, 1], "depth": 0}
        loaded, _ = persist.load_model(persist._canon(obj).encode())
        assert "note" not in loaded.trees[0] and loaded.trees[1] == {"leaf": [2, 1]}

    @pytest.mark.parametrize("make", [tiny_svm, tiny_forest])
    def test_save_load_save_byte_identical(self, make):
        model = make()
        data = persist.save_model(model, {"k": "v"})
        loaded, meta = persist.load_model(data)
        assert persist.save_model(loaded, meta) == data

    def test_file_round_trip_atomic(self, tmp_path):
        model = tiny_svm()
        path = tmp_path / "m.pdmodel.json"
        persist.save_model_file(path, model, {"run": 1})
        loaded, meta = persist.load_model_file(path)
        assert meta == {"run": 1}
        assert np.array_equal(loaded.alpha_y, model.alpha_y)
        # no stray temp files left behind
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_file_mode_follows_umask(self, tmp_path, umask, mode):
        path = tmp_path / "m.pdmodel.json"
        old = os.umask(umask)
        try:
            persist.save_model_file(path, tiny_svm(), {})
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "taken"
        path.mkdir()
        with pytest.raises(OSError):
            persist.save_model_file(path, tiny_svm(), {})
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def packed_sv(values, shape=None, text=None, version=2) -> dict:
    """A version 2 (base64) or 3 (hex) support-vector field holding values as
    little-endian float64; shape defaults to that of values, and text(t)
    edits the packed text."""
    values = np.asarray(values, dtype="<f8")
    if version == 2:
        field, t = "float64le_base64", base64.b64encode(values.tobytes()).decode()
    else:
        field, t = "float64le_hex", values.tobytes().hex()
    return {"shape": list(values.shape) if shape is None else shape,
            field: t if text is None else text(t)}


class TestSchemaErrors:
    def test_unsupported_version(self):
        for version in (b"0", b"4"):
            data = persist.save_model(tiny_svm(), {}).replace(
                b'"format_version": 3', b'"format_version": ' + version
            )
            with pytest.raises(persist.PersistError, match="format_version"):
                persist.load_model(data)

    def test_invalid_json(self):
        with pytest.raises(persist.PersistError, match="invalid JSON"):
            persist.load_model(b"{nope")

    def test_missing_payload_field_path(self):
        data = persist.save_model(tiny_svm(), {}).replace(b'"bias"', b'"bias_x"')
        with pytest.raises(persist.PersistError, match=r"\$\.payload\.bias"):
            persist.load_model(data)

    def test_wrong_type_field_path(self):
        data = persist.save_model(tiny_svm(), {})
        data = data.replace(b'"kind": "svm"', b'"kind": 3')
        with pytest.raises(persist.PersistError, match=r"\$\.kind"):
            persist.load_model(data)

    def test_unknown_kind(self):
        data = persist.save_model(tiny_svm(), {}).replace(b'"kind": "svm"', b'"kind": "mlp"')
        with pytest.raises(persist.PersistError, match="unknown model kind"):
            persist.load_model(data)

    def test_sv_alpha_length_mismatch(self):
        model = tiny_svm()
        broken = persist.save_model(model, {})
        import json

        obj = json.loads(broken)
        obj["payload"]["alpha_y"].append(0.5)
        with pytest.raises(persist.PersistError, match="length mismatch"):
            persist.load_model(persist._canon(obj).encode())

    @pytest.mark.parametrize("leaf", [[1], [1, 2, 3], [-5, 0], [-1, 3], [True, False],
                                      [1, False], [0, 0], [1.0, 0], ["1", 0], {"n0": 1}],
                             ids=["one_count", "three_counts", "negative", "negative_one_of_two",
                                  "bools", "one_bool", "zero_sum", "float", "string", "object"])
    def test_bad_tree_leaf(self, leaf):
        # A negative count can turn a leaf's vote; a bool would be written back as a bool.
        data = persist.save_model(tiny_forest(), {})
        import json

        obj = json.loads(data)
        obj["payload"]["trees"][0] = {"leaf": leaf}
        with pytest.raises(persist.PersistError, match=r"trees\[0\]\.leaf"):
            persist.load_model(json.dumps(obj).encode())  # json keeps 1.0 a float

    @pytest.mark.parametrize("feature", [-1, 3, 99])
    def test_tree_feature_outside_range(self, feature):
        # tiny_forest has 3 features; -1 would read the last one, 3 would
        # index past the end.
        import json

        obj = json.loads(persist.save_model(tiny_forest(), {}))
        node = obj["payload"]["trees"][0]
        while "leaf" not in node["left"]:
            node = node["left"]
        node["feature"] = feature
        with pytest.raises(persist.PersistError, match=r"trees\[0\](\.left)*\.feature"):
            persist.load_model(persist._canon(obj).encode())

    @pytest.mark.parametrize("field, value", [
        ("gamma", -1.0), ("gamma", float("inf")), ("gamma", 10**400), ("c", 0.0),
        ("c", -2.0), ("c", float("nan")), ("bias", float("nan")),
        ("alpha_y", [float("nan")] * 8), ("alpha_y", [[1.0]] * 8), ("alpha_y", ["x"] * 8),
        ("support_vectors", [[float("inf"), 0.0]] * 8), ("support_vectors", [[1.0], [1.0, 2.0]]),
        ("support_vectors", [[]] * 8),
    ])
    def test_svm_field_not_finite_or_out_of_range(self, field, value):
        # tiny_svm has 6 support vectors of 2 features. Version 2 and 3
        # files refuse support vectors as nested lists whatever they hold.
        import json

        for data in (svm_bytes_reference(tiny_svm()), svm_bytes_reference(tiny_svm(), version=2),
                     persist.save_model(tiny_svm(), {})):
            obj = json.loads(data)
            obj["payload"][field] = value
            with pytest.raises(persist.PersistError, match=rf"\$\.payload\.{field}|gamma|c ="):
                persist.load_model(json.dumps(obj).encode())

    @pytest.mark.parametrize("packed, message", [
        (packed_sv(np.full((6, 2), np.inf)), "must be finite"),
        (packed_sv(np.array([[1.0, 2.0]] * 5 + [[-np.inf, 0.0]])), "must be finite"),
        (packed_sv(np.array([[np.nan, 0.0]] * 6)), "must be finite"),
        (packed_sv(np.ones(11), shape=[6, 2]), "does not hold 96 bytes"),
        (packed_sv(np.ones(13), shape=[6, 2]), "does not hold 96 bytes"),
        (packed_sv(np.ones(7)[:0], shape=[6, 0]), "is empty"),
        (packed_sv(np.ones(7)[:0], shape=[0, 2]), "is empty"),
        (packed_sv(np.ones((6, 2)), text=lambda t: t[:10] + "*" + t[11:]), "is not base64"),
        (packed_sv(np.ones((6, 2)), text=lambda t: t[:10] + "=" + t[11:]), "is not base64"),
        (packed_sv(np.ones((6, 2)), text=lambda t: t[:-4] + "AA=="), "does not hold 96 bytes"),
        (packed_sv(np.ones((6, 2)), text=lambda t: t[:10] + " " + t[11:]), "is not base64"),
        (packed_sv(np.ones((6, 2)), text=lambda t: t[:10] + "\n" + t[11:]), "is not base64"),
        (packed_sv(np.ones((6, 2)), text=lambda t: t[:8] + "    " + t[12:]), "is not base64"),
        (packed_sv(np.ones((6, 2)), text=lambda t: t[:64] + "\n" + t[64:]), "is not base64"),
        (packed_sv(np.ones((6, 2)), text=lambda t: t[:10] + "\u00e9" + t[11:]), "is not base64"),
        (packed_sv(np.ones((6, 2)), text=lambda t: [t]), "wrong type"),
        (packed_sv(np.ones((6, 2)), shape=[12]), "two non-negative integers"),
        (packed_sv(np.ones((6, 2)), shape=[6, 2, 1]), "two non-negative integers"),
        (packed_sv(np.ones((6, 2)), shape=[-6, -2]), "two non-negative integers"),
        (packed_sv(np.ones(6), shape=[6, True]), "two non-negative integers"),
        (packed_sv(np.ones((6, 2)), shape=[6.0, 2]), "two non-negative integers"),
        ({"shape": [6, 2]}, "missing field"),
        ([[1.0, 2.0]] * 6, "wrong type"),
    ], ids=["inf", "minus_inf", "nan", "ragged_short", "ragged_long", "no_features", "no_rows",
            "not_base64_char", "bad_padding", "early_padding", "space", "newline", "four_spaces",
            "line_break_inserted", "not_ascii", "text_not_a_string", "shape_one_entry",
            "shape_three_entries", "shape_negative", "shape_bool", "shape_float", "text_missing",
            "nested_list"])
    def test_packed_support_vectors_rejected(self, packed, message):
        # tiny_svm has 6 support vectors of 2 features: 96 bytes, here in a
        # version 2 file.
        import json

        obj = json.loads(svm_bytes_reference(tiny_svm(), version=2))
        obj["payload"]["support_vectors"] = packed
        with pytest.raises(persist.PersistError,
                           match=rf"(?=.*\$\.payload\.support_vectors)(?=.*{message})"):
            persist.load_model(json.dumps(obj).encode())

    @pytest.mark.parametrize("packed, message", [
        (packed_sv(np.full((6, 2), np.inf), version=3), "must be finite"),
        (packed_sv(np.array([[1.0, 2.0]] * 5 + [[-np.inf, 0.0]]), version=3), "must be finite"),
        (packed_sv(np.array([[np.nan, 0.0]] * 6), version=3), "must be finite"),
        (packed_sv(np.ones(11), shape=[6, 2], version=3), "does not hold 96 bytes"),
        (packed_sv(np.ones(13), shape=[6, 2], version=3), "does not hold 96 bytes"),
        (packed_sv(np.ones((6, 2)), text=lambda t: t[:-1], version=3), "is not hex"),
        (packed_sv(np.ones((6, 2)), text=lambda t: t + "0", version=3), "is not hex"),
        (packed_sv(np.ones((6, 2)), text=lambda t: t[:10] + "g" + t[11:], version=3),
         "is not hex"),
        (packed_sv(np.ones((6, 2)), text=lambda t: t[:10] + "  " + t[12:], version=3),
         "is not hex"),
        (packed_sv(np.ones((6, 2)), text=lambda t: t[:64] + "\n" + t[64:], version=3),
         "is not hex"),
        (packed_sv(np.ones((6, 2)), text=lambda t: t[:10] + "\u00e9" + t[11:], version=3),
         "is not hex"),
        (packed_sv(np.ones((6, 2)), text=lambda t: [t], version=3), "wrong type"),
        (packed_sv(np.ones((6, 2))), "missing field"),
    ], ids=["inf", "minus_inf", "nan", "short", "long", "odd_length", "odd_length_long",
            "not_hex_char", "spaces", "line_break_inserted", "not_ascii", "text_not_a_string",
            "base64_field"])
    def test_hex_support_vectors_rejected(self, packed, message):
        # The version 3 field is lowercase or uppercase hex digits only, of
        # exactly the 96 bytes of tiny_svm's 6 support vectors of 2 features.
        import json

        obj = json.loads(persist.save_model(tiny_svm(), {}))
        obj["payload"]["support_vectors"] = packed
        with pytest.raises(persist.PersistError,
                           match=rf"(?=.*\$\.payload\.support_vectors)(?=.*{message})"):
            persist.load_model(json.dumps(obj).encode())

    def test_hex_support_vectors_in_v2_file_rejected(self):
        import json

        obj = json.loads(svm_bytes_reference(tiny_svm(), version=2))
        obj["payload"]["support_vectors"] = packed_sv(tiny_svm().support_vectors, version=3)
        with pytest.raises(persist.PersistError,
                           match=r"missing field \$\.payload\.support_vectors\.float64le_base64"):
            persist.load_model(json.dumps(obj).encode())

    def test_packed_support_vectors_in_v1_file_rejected(self):
        import json

        obj = json.loads(svm_bytes_reference(tiny_svm()))
        obj["payload"]["support_vectors"] = packed_sv(tiny_svm().support_vectors)
        with pytest.raises(persist.PersistError, match=r"\$\.payload\.support_vectors"):
            persist.load_model(json.dumps(obj).encode())

    @pytest.mark.parametrize("shape", [[2**40, 2**40], [2**17, 2**10], [1, 2**40]])
    def test_huge_packed_shape_allocates_nothing(self, shape):
        # The shape must not size any allocation before the decoded byte
        # count is checked against it, in a version 2 file, in a version 3
        # file as save_model writes one, and in one that it does not.
        import json
        import tracemalloc

        shape_text = persist._canon(shape).encode()
        v3 = persist.save_model(tiny_svm(), {}).replace(b"[6, 2]", shape_text)
        obj = json.loads(svm_bytes_reference(tiny_svm(), version=2))
        obj["payload"]["support_vectors"]["shape"] = shape
        for data in (json.dumps(obj).encode(), v3, v3.replace(b"[", b"[ ")):
            tracemalloc.start()
            try:
                with pytest.raises(persist.PersistError, match="does not hold"):
                    persist.load_model(data)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    @pytest.mark.parametrize("mutate", [
        lambda payload: payload.update(trees=[]),
        lambda payload: payload["hyperparams"].update(n_trees=0),
        lambda payload: payload.update(n_features=0),
        lambda payload: payload["trees"][0].update(threshold=float("nan")),
        lambda payload: payload["hyperparams"].update(n_trees=100),
        lambda payload: payload["hyperparams"].update(n_trees=2),
    ], ids=["no_trees", "n_trees_zero", "no_features", "threshold_nan", "n_trees_above_tree_count",
            "n_trees_below_tree_count"])
    def test_forest_payload_rejected(self, mutate):
        import json

        obj = json.loads(persist.save_model(tiny_forest(), {}))
        assert "threshold" in obj["payload"]["trees"][0]
        mutate(obj["payload"])
        with pytest.raises(persist.PersistError, match=r"\$\.payload\.(trees|n_features)"):
            persist.load_model(json.dumps(obj).encode())

    @pytest.mark.parametrize("field, value", [
        ("max_depth", 0), ("max_depth", -1), ("min_samples_leaf", 0), ("min_samples_leaf", -2),
        ("mtry", 0), ("mtry", -1),
    ])
    def test_forest_hyperparams_below_one_rejected(self, field, value):
        # train_random_forest refuses these values, so no saved forest holds them.
        import json

        obj = json.loads(persist.save_model(tiny_forest(), {}))
        obj["payload"]["hyperparams"][field] = value
        with pytest.raises(persist.PersistError,
                           match=rf"\$\.payload\.hyperparams: {field} must be >= 1"):
            persist.load_model(json.dumps(obj).encode())

    @pytest.mark.parametrize("field", ["n_trees", "max_depth", "min_samples_leaf", "mtry", "seed"])
    def test_forest_hyperparams_bool_rejected(self, field):
        # JSON true is an int to isinstance; loaded, it would refit as 1 and be saved back as true.
        import json

        obj = json.loads(persist.save_model(tiny_forest(), {}))
        obj["payload"]["hyperparams"][field] = True
        with pytest.raises(persist.PersistError,
                           match=rf"\$\.payload\.hyperparams\.{field} has wrong type bool"):
            persist.load_model(json.dumps(obj).encode())

    @pytest.mark.parametrize("data", [
        b"[" * 100_000 + b"]" * 100_000,
        b"\xff\xfe\x00",
    ], ids=["nested_too_deeply", "not_unicode"])
    def test_unparsable_bytes(self, data):
        with pytest.raises(persist.PersistError, match="invalid JSON"):
            persist.load_model(data)


class TestCrossVersionCli:
    def test_v1_v2_and_v3_files_give_identical_output(self, tmp_path, capsys):
        # One seeded clot model, written by the version 1 and 2 reference
        # writer and by save_model; every command must print the same bytes.
        from prediagnose.cli import main

        def run(*argv) -> str:
            assert main([str(a) for a in argv]) == 0
            return re.sub(r', "latency_ms": [^,}]+', "", capsys.readouterr().out)

        run("synth", "thermal", "--out", tmp_path / "train", "--n", "6", "--seed", "31")
        run("synth", "thermal", "--out", tmp_path / "test", "--n", "4", "--seed", "32")
        run("synth", "thermal", "--out", tmp_path / "seq", "--n", "2", "--seed", "33",
            "--frames", "5")
        v3 = tmp_path / "v3.pdmodel.json"
        run("train", "clot", "--data", tmp_path / "train", "--out", v3)
        model, created_with = persist.load_model_file(v3)
        paths = []
        for version in (1, 2):
            paths.append(tmp_path / f"v{version}.pdmodel.json")
            paths[-1].write_bytes(svm_bytes_reference(model, created_with, version))
        paths.append(v3)
        for version, path in enumerate(paths, 1):
            assert path.read_bytes().startswith(b'{"format_version": %d' % version)
        outputs = [[run("predict", "clot", "--model", path, "--input",
                        tmp_path / "test" / "sample0001.pgm"),
                    run("predict", "clot", "--model", path, "--sequence",
                        tmp_path / "seq" / "seq0000"),
                    run("eval", "--model", path, "--data", tmp_path / "test")]
                   for path in paths]
        assert "latency_ms" not in "".join(outputs[2]) and '"score"' in outputs[2][0]
        assert outputs[0] == outputs[1] == outputs[2]
