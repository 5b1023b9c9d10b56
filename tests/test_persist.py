import hashlib
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
from prediagnose.forest import forest_predict, train_random_forest
from prediagnose.svm import SvmModel, svm_decision, train_svm_smo

GOLDEN = Path(__file__).parent / "golden"


def tiny_svm():
    """Deterministic reference SVM used for the frozen golden file."""
    rng = Rng(2024)
    X = np.round(rng.gaussian_array(16).reshape(8, 2), 6)
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    X[y == 1] += 2.0
    return train_svm_smo(LabeledDataset(X, y), c=4.0, gamma=0.5)


def tiny_forest():
    """Deterministic reference forest used for the frozen golden file."""
    rng = Rng(77)
    X = np.round(rng.uniform_array(36).reshape(12, 3), 6)
    y = (X[:, 0] + X[:, 2] > 1.0).astype(int)
    return train_random_forest(
        LabeledDataset(X, y), n_trees=5, max_depth=4, min_samples_leaf=1, seed=3
    )


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.float64("nan"),
                                       np.array([1.0, float("nan")]),
                                       np.array([[1.0, 2.0], [float("inf"), 0.0]])],
                             ids=["nan", "inf", "-inf", "np_nan", "array_1d", "array_2d"])
    def test_non_finite_refused(self, value):
        # NaN and Infinity are not JSON
        with pytest.raises(ValueError, match="non-finite"):
            persist._canon({"x": [value]})


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


def svm_bytes_reference(model) -> bytes:
    """save_model(model) for an SVM, one format(v, ".17g") per float."""
    def num(v):
        return format(float(v), ".17g")

    def row(values):
        return "[" + ", ".join(num(v) for v in values) + "]"

    svs = "[" + ", ".join(row(sv) for sv in model.support_vectors) + "]"
    return (f'{{"format_version": 1, "kind": "svm", "created_with": {{}}, "payload": '
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


class TestSvmBytes:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(svm_models())
    @example(SvmModel(np.array([EXTREMES, EXTREMES[::-1]]), np.array([-0.0, 5e-324]),
                      -0.0, 1.7976931348623157e308, 5e-324))
    def test_save_model_formats_each_float_with_17_digits(self, model):
        assert persist.save_model(model) == svm_bytes_reference(model)

    def test_seeded_clot_model_pinned(self):
        # Several 16,200-feature support vectors and the default created_with
        # record; the digest is of the per-float writer this one replaced.
        cfg = pl.ClotPipelineConfig()
        train = synththermal.generate_dataset(synththermal.ThermalConfig(), 6, 0.5, Rng(31))
        model = pl.clot_train(train, cfg)
        assert len(model.alpha_y) > 1
        data = persist.save_model(model, config_snapshot("clot", cfg))
        assert hashlib.sha256(data).hexdigest() == (
            "6acfc0d00a7a414cae4a15c8fae786dcd4ca8651789c4b94513dcf778544139b")


class TestGolden:
    def test_svm_golden_bytes(self):
        data = persist.save_model(tiny_svm(), {"tool": "test", "seed": 2024})
        assert data == (GOLDEN / "svm_tiny.pdmodel.json").read_bytes()

    def test_forest_golden_bytes(self):
        data = persist.save_model(tiny_forest(), {"tool": "test", "seed": 77})
        assert data == (GOLDEN / "forest_tiny.pdmodel.json").read_bytes()

    def test_golden_loads_and_predicts_identically(self):
        fresh = tiny_svm()
        loaded, meta = persist.load_model((GOLDEN / "svm_tiny.pdmodel.json").read_bytes())
        assert meta == {"tool": "test", "seed": 2024}
        rng = Rng(9)
        for _ in range(100):
            x = rng.gaussian_array(2)
            assert svm_decision(loaded, x) == svm_decision(fresh, x)

    def test_golden_forest_predicts_identically(self):
        fresh = tiny_forest()
        loaded, _ = persist.load_model((GOLDEN / "forest_tiny.pdmodel.json").read_bytes())
        rng = Rng(10)
        for _ in range(100):
            x = rng.uniform_array(3)
            assert forest_predict(loaded, x) == forest_predict(fresh, x)


class TestRoundTrip:
    @pytest.mark.parametrize("make", [tiny_svm, tiny_forest])
    def test_save_load_save_byte_identical(self, make):
        model = make()
        data = persist.save_model(model, {"k": "v"})
        loaded, meta = persist.load_model(data)
        assert persist.save_model(loaded, meta) == data

    def test_file_round_trip_atomic(self, tmp_path):
        model = tiny_svm()
        path = tmp_path / ("m" + persist.FILE_SUFFIX)
        persist.save_model_file(path, model, {"run": 1})
        loaded, meta = persist.load_model_file(path)
        assert meta == {"run": 1}
        assert np.array_equal(loaded.alpha_y, model.alpha_y)
        # no stray temp files left behind
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestSchemaErrors:
    def test_unsupported_version(self):
        data = persist.save_model(tiny_svm()).replace(
            b'"format_version": 1', b'"format_version": 2'
        )
        with pytest.raises(persist.PersistError, match="format_version"):
            persist.load_model(data)

    def test_invalid_json(self):
        with pytest.raises(persist.PersistError, match="invalid JSON"):
            persist.load_model(b"{nope")

    def test_missing_payload_field_path(self):
        data = persist.save_model(tiny_svm()).replace(b'"bias"', b'"bias_x"')
        with pytest.raises(persist.PersistError, match=r"\$\.payload\.bias"):
            persist.load_model(data)

    def test_wrong_type_field_path(self):
        data = persist.save_model(tiny_svm())
        data = data.replace(b'"kind": "svm"', b'"kind": 3')
        with pytest.raises(persist.PersistError, match=r"\$\.kind"):
            persist.load_model(data)

    def test_unknown_kind(self):
        data = persist.save_model(tiny_svm()).replace(b'"kind": "svm"', b'"kind": "mlp"')
        with pytest.raises(persist.PersistError, match="unknown model kind"):
            persist.load_model(data)

    def test_sv_alpha_length_mismatch(self):
        model = tiny_svm()
        broken = persist.save_model(model)
        import json

        obj = json.loads(broken)
        obj["payload"]["alpha_y"].append(0.5)
        with pytest.raises(persist.PersistError, match="length mismatch"):
            persist.load_model(persist._canon(obj).encode())

    def test_bad_tree_leaf(self):
        data = persist.save_model(tiny_forest())
        import json

        obj = json.loads(data)
        obj["payload"]["trees"][0] = {"leaf": [1]}
        with pytest.raises(persist.PersistError, match=r"trees\[0\]\.leaf"):
            persist.load_model(persist._canon(obj).encode())

    @pytest.mark.parametrize("feature", [-1, 3, 99])
    def test_tree_feature_outside_range(self, feature):
        # tiny_forest has 3 features; -1 would read the last one, 3 would
        # index past the end.
        import json

        obj = json.loads(persist.save_model(tiny_forest()))
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
        # tiny_svm has 8 support vectors of 2 features.
        import json

        obj = json.loads(persist.save_model(tiny_svm()))
        obj["payload"][field] = value
        with pytest.raises(persist.PersistError, match=rf"\$\.payload\.{field}|gamma|c ="):
            persist.load_model(json.dumps(obj).encode())

    @pytest.mark.parametrize("mutate", [
        lambda payload: payload.update(trees=[]),
        lambda payload: payload["hyperparams"].update(n_trees=0),
        lambda payload: payload.update(n_features=0),
        lambda payload: payload["trees"][0].update(threshold=float("nan")),
    ], ids=["no_trees", "n_trees_zero", "no_features", "threshold_nan"])
    def test_forest_payload_rejected(self, mutate):
        import json

        obj = json.loads(persist.save_model(tiny_forest()))
        assert "threshold" in obj["payload"]["trees"][0]
        mutate(obj["payload"])
        with pytest.raises(persist.PersistError, match=r"\$\.payload\.(trees|n_features)"):
            persist.load_model(json.dumps(obj).encode())

    @pytest.mark.parametrize("data", [
        b"[" * 100_000 + b"]" * 100_000,
        b"\xff\xfe\x00",
    ], ids=["nested_too_deeply", "not_unicode"])
    def test_unparsable_bytes(self, data):
        with pytest.raises(persist.PersistError, match="invalid JSON"):
            persist.load_model(data)
