import base64
import hashlib
import json
import math
import os
import stat
import tracemalloc
from pathlib import Path

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


def svm_bytes_reference(model, created_with=None, packed=False) -> bytes:
    """An SVM model file, one format(v, ".17g") per float, except that -0.0 is
    "-0.0": format version 1, the source of v1 test files, or with packed=True
    version 2, whose support vectors are the base64 of their little-endian
    float64 bytes. The reference for save_model's bytes."""
    def num(v):
        return "-0.0" if v == 0 and math.copysign(1.0, v) < 0 else format(float(v), ".17g")

    def row(values):
        return "[" + ", ".join(num(v) for v in values) + "]"

    if packed:
        m, d = model.support_vectors.shape
        b64 = base64.b64encode(np.asarray(model.support_vectors, dtype="<f8").tobytes()).decode()
        svs = f'{{"shape": [{m}, {d}], "float64le_base64": "{b64}"}}'
    else:
        svs = "[" + ", ".join(row(sv) for sv in model.support_vectors) + "]"
    return (f'{{"format_version": {2 if packed else 1}, "kind": "svm", "created_with": '
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


CHUNK_VALUES = persist._ENCODE_CHUNK // 8  # doubles base64-encoded per piece


class TestSvmBytes:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(svm_models())
    @example(SvmModel(np.array([EXTREMES, EXTREMES[::-1]]), np.array([-0.0, 5e-324]),
                      -0.0, 1.7976931348623157e308, 5e-324))
    def test_save_model_formats_each_float_with_17_digits(self, model):
        # save_model writes exactly the reference's version 2 bytes. Version 1
        # (17 digits per float) and version 2 (packed support vectors) files
        # both load back bit for bit, and a load followed by a save gives the
        # same bytes; a model load_model refuses is refused in both forms.
        saved = persist.save_model(model, {})
        assert saved == svm_bytes_reference(model, packed=True)
        loadable = model.support_vectors.size > 0 and model.gamma >= 0 and model.c > 0
        for data in (svm_bytes_reference(model), saved):
            if loadable:
                loaded = persist.load_model(data)[0]
                assert_same_svm(loaded, model)
                assert persist.save_model(loaded, {}) == saved
            else:
                with pytest.raises(persist.PersistError):
                    persist.load_model(data)

    def test_seeded_clot_model_pinned(self):
        # Several 16,200-feature support vectors and the default created_with
        # record. The version 1 digest is of the per-float writer that wrote
        # models before the packed format, so it pins training on its own.
        cfg = pl.ClotPipelineConfig()
        train = synththermal.generate_dataset(synththermal.ThermalConfig(), 6, 0.5, Rng(31))
        model = pl.clot_train(train, cfg, threads=1)
        assert len(model.alpha_y) > 1
        v1 = svm_bytes_reference(model, config_snapshot("clot", cfg))
        assert hashlib.sha256(v1).hexdigest() == (
            "cbd973675d372335fa1f1ebbfff65c231256f40db30c28e98b21f86d30509694")
        v2 = persist.save_model(model, config_snapshot("clot", cfg))
        assert hashlib.sha256(v2).hexdigest() == (
            "10f2bd9d7f461a2b09f9e55fb5f17db9cd570f12355f9f4f9ae4490f0d54f091")

    # Support-vector byte counts 0, 1 and 2 mod 3, below, on and across the
    # encode chunk (counted in doubles): save_model gives the reference's
    # bytes, the base64 of the whole matrix, whatever the pieces were.
    @pytest.mark.parametrize("n_values", [0, 1, 2, 3, CHUNK_VALUES - 1, CHUNK_VALUES,
                                          CHUNK_VALUES + 1, CHUNK_VALUES + 2, 2 * CHUNK_VALUES + 1])
    def test_packed_bytes_across_the_encode_chunk(self, n_values):
        shape = (1, n_values) if n_values else (0, 5)
        model = SvmModel(np.random.default_rng(n_values).standard_normal(shape),
                         np.ones(shape[0]), 0.5, 0.25, 2.0)
        saved = persist.save_model(model, {})
        assert saved == svm_bytes_reference(model, packed=True)
        if n_values:
            loaded = persist.load_model(saved)[0]
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
        persist.save_model_file(path, big_svm(), {})
        (model, _), peak = traced_peak(lambda: persist.load_model_file(path))
        assert peak < 2.2 * path.stat().st_size
        assert_same_svm(model, big_svm())


def assert_writes_golden(model, created_with, name):
    """save_model writes the frozen version 2 golden file, and the frozen
    version 1 golden file loads and saves to the same bytes."""
    v2 = (GOLDEN / f"{name}.v2.pdmodel.json").read_bytes()
    assert persist.save_model(model, created_with) == v2
    loaded, meta = persist.load_model((GOLDEN / f"{name}.pdmodel.json").read_bytes())
    assert meta == created_with
    assert persist.save_model(loaded, meta) == v2


class TestGolden:
    def test_svm_golden_bytes(self):
        assert_writes_golden(tiny_svm(), {"tool": "test", "seed": 2024}, "svm_tiny")

    def test_forest_golden_bytes(self):
        assert_writes_golden(tiny_forest(), {"tool": "test", "seed": 77}, "forest_tiny")

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
    return pl.cardio_train(recordings, pl.CardioPipelineConfig(n_trees=5), threads=1)


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


def packed_sv(values, shape=None, text=None) -> dict:
    """A version 2 support-vector field holding values as little-endian
    float64; shape defaults to that of values, and text(t) edits the base64."""
    values = np.asarray(values, dtype="<f8")
    t = base64.b64encode(values.tobytes()).decode()
    return {"shape": list(values.shape) if shape is None else shape,
            "float64le_base64": t if text is None else text(t)}


class TestSchemaErrors:
    def test_unsupported_version(self):
        for version in (b"0", b"3"):
            data = persist.save_model(tiny_svm(), {}).replace(
                b'"format_version": 2', b'"format_version": ' + version
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
        # tiny_svm has 6 support vectors of 2 features. A version 2 file
        # refuses support vectors as nested lists whatever they hold.
        import json

        for data in (svm_bytes_reference(tiny_svm()), persist.save_model(tiny_svm(), {})):
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
        # tiny_svm has 6 support vectors of 2 features: 96 bytes.
        import json

        obj = json.loads(persist.save_model(tiny_svm(), {}))
        obj["payload"]["support_vectors"] = packed
        with pytest.raises(persist.PersistError,
                           match=rf"(?=.*\$\.payload\.support_vectors)(?=.*{message})"):
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
        # count is checked against it.
        import json
        import tracemalloc

        obj = json.loads(persist.save_model(tiny_svm(), {}))
        obj["payload"]["support_vectors"]["shape"] = shape
        data = json.dumps(obj).encode()
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
    def test_v1_and_v2_files_give_identical_output(self, tmp_path, capsys):
        # One seeded clot model, written by the version 1 reference writer
        # and by save_model; every command must print the same bytes.
        import re

        from prediagnose.cli import main

        def run(*argv) -> str:
            assert main([str(a) for a in argv]) == 0
            return re.sub(r', "latency_ms": [^,}]+', "", capsys.readouterr().out)

        run("synth", "thermal", "--out", tmp_path / "train", "--n", "6", "--seed", "31")
        run("synth", "thermal", "--out", tmp_path / "test", "--n", "4", "--seed", "32")
        run("synth", "thermal", "--out", tmp_path / "seq", "--n", "2", "--seed", "33",
            "--frames", "5")
        v2 = tmp_path / "v2.pdmodel.json"
        run("train", "clot", "--data", tmp_path / "train", "--out", v2)
        model, created_with = persist.load_model_file(v2)
        v1 = tmp_path / "v1.pdmodel.json"
        v1.write_bytes(svm_bytes_reference(model, created_with))
        assert v1.read_bytes().startswith(b'{"format_version": 1')
        assert v2.read_bytes().startswith(b'{"format_version": 2')
        outputs = [[run("predict", "clot", "--model", path, "--input",
                        tmp_path / "test" / "sample0001.pgm"),
                    run("predict", "clot", "--model", path, "--sequence",
                        tmp_path / "seq" / "seq0000"),
                    run("eval", "--model", path, "--data", tmp_path / "test")]
                   for path in (v1, v2)]
        assert "latency_ms" not in "".join(outputs[1]) and '"score"' in outputs[1][0]
        assert outputs[0] == outputs[1]
