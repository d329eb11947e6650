from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shexbench import cardml
from shexbench.cardml import (
    FEATURE_NAMES,
    CardinalityLabel,
    CardinalityModel,
    DecisionTreeClassifier,
    FeatureVector,
    GradientBoostingClassifier,
    MaxBound,
    evaluate_cardinality_accuracy,
    extract_features,
    predict_cardinality,
    read_feature_csv,
    train,
    write_feature_csv,
)
from shexbench.errors import EmptyDatasetError
from shexbench.kginfo import GlobalPredicateRecord, KgClient, RecordField
from shexbench.model import Cardinality, Iri
from support import (
    WD,
    WDT,
    award_endpoint_config,
    build_award_endpoint,
    reference_gini_split,
    reference_newton_split,
    synthetic_cardinality_rows,
)

AWARD = Iri(WD + "Q4220917")


def record_with(**overrides):
    defaults = dict(
        class_uri=AWARD,
        predicate_uri=Iri(WDT + "P17"),
        frequency=1.0,
        cardinality_distribution={1: 1.0},
        datatype_of_objects={"IRI": 1.0},
        object_class_distribution={WD + "Q6256": 1.0},
        completeness=RecordField.FREQUENCY | RecordField.CARDINALITY,
    )
    defaults.update(overrides)
    return GlobalPredicateRecord(**defaults)


class TestFeatures:
    def test_all_exactly_one(self):
        features = extract_features(record_with())
        assert features.missing_fraction == 0.0
        assert features.exactly_one_fraction == 1.0
        assert features.multi_fraction == 0.0
        assert features.max_observed_count == 1
        assert features.dt_iri == 1.0

    def test_multi_fraction(self):
        features = extract_features(record_with(cardinality_distribution={1: 0.5, 2: 0.5}))
        assert features.multi_fraction == 0.5
        assert features.mean_count == pytest.approx(1.5)
        assert features.max_observed_count == 2

    def test_renormalizes_drifted_distribution(self):
        features = extract_features(
            record_with(frequency=0.5, cardinality_distribution={1: 0.2, 2: 0.2})
        )
        total = features.missing_fraction + features.exactly_one_fraction + features.multi_fraction
        assert total == pytest.approx(1.0)

    def test_identical_for_cache_rebuilt_record(self, tmp_path):
        endpoint = build_award_endpoint()
        first = KgClient(award_endpoint_config(tmp_path / "c"), transport=endpoint)
        record = first.build_global_record(AWARD, Iri(WDT + "P856"))
        rebuilt = KgClient(award_endpoint_config(tmp_path / "c"), transport=endpoint)
        record_again = rebuilt.build_global_record(AWARD, Iri(WDT + "P856"))
        assert extract_features(record) == extract_features(record_again)

    def test_value_type_flag(self):
        with_constraint = record_with(value_type_constraint=(Iri(WD + "Q6256"),))
        assert extract_features(with_constraint).has_value_type_constraint
        assert not extract_features(record_with()).has_value_type_constraint

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            FeatureVector(0.5, 0.9, 0.9, 0.9, 1, 1.0, 0.0, 1, 0, 0, 0, False)


class TestLabels:
    @pytest.mark.parametrize(
        "card,expected",
        [
            (Cardinality(1, 1), (1, MaxBound.ONE)),
            (Cardinality(0, 1), (0, MaxBound.ONE)),
            (Cardinality(0, None), (0, MaxBound.UNBOUNDED)),
            (Cardinality(1, None), (1, MaxBound.UNBOUNDED)),
            (Cardinality(2, None), (1, MaxBound.UNBOUNDED)),
            (Cardinality(0, 5), (0, MaxBound.UNBOUNDED)),
        ],
    )
    def test_from_cardinality(self, card, expected):
        label = CardinalityLabel.from_cardinality(card)
        assert (label.min_class, label.max_class) == expected


@pytest.fixture(scope="module")
def synthetic_split():
    rows = synthetic_cardinality_rows(200, seed=7)
    return rows[:100], rows[100:]


class TestTraining:
    @pytest.mark.parametrize("kind", ["dt", "gb"])
    def test_heldout_accuracy(self, kind, synthetic_split):
        train_rows, test_rows = synthetic_split
        model = train(kind, train_rows, seed=42)
        acc_min, acc_max, acc_combined = evaluate_cardinality_accuracy(model, test_rows)
        assert acc_combined >= 0.95, (kind, acc_min, acc_max, acc_combined)
        assert acc_combined <= min(acc_min, acc_max) + 1e-12

    @pytest.mark.parametrize("kind", ["dt", "gb"])
    def test_training_accuracy_at_least_majority(self, kind, synthetic_split):
        train_rows, _ = synthetic_split
        model = train(kind, train_rows, seed=42)
        acc_min, acc_max, _ = evaluate_cardinality_accuracy(model, train_rows)
        min_labels = [label.min_class for _, label in train_rows]
        majority = max(sum(min_labels), len(min_labels) - sum(min_labels)) / len(min_labels)
        assert acc_min >= majority - 1e-12

    @pytest.mark.parametrize("kind", ["dt", "gb"])
    def test_seed_determinism(self, kind, synthetic_split):
        train_rows, _ = synthetic_split
        first = train(kind, train_rows, seed=42)
        second = train(kind, train_rows, seed=42)
        assert first.to_json() == second.to_json()

    def test_single_class_constant_predictor(self, synthetic_split):
        train_rows, _ = synthetic_split
        required_only = [(f, l) for f, l in train_rows if l.min_class == 1][:20]
        with pytest.warns(UserWarning, match="single-class"):
            model = train("dt", required_only, seed=1)
        acc_min, _, _ = evaluate_cardinality_accuracy(model, required_only)
        assert acc_min == 1.0

    def test_unknown_kind(self, synthetic_split):
        with pytest.raises(ValueError):
            train("rf", synthetic_split[0])

    @pytest.mark.parametrize(
        "kind,digest",
        [
            ("dt", "ec7671d50a09bfa81bd07ddfc139ba9d49bcbb02f8288c98151622a281c75871"),
            ("gb", "f0b09a46499ea665d9cd339a0d7d38551fdd65fb6da31d0c4451871baaacb4ec"),
        ],
    )
    def test_model_json_digest_is_pinned(self, kind, digest):
        model = train(kind, synthetic_cardinality_rows(200, seed=7), seed=42)
        assert hashlib.sha256(model.to_json().encode()).hexdigest() == digest

    def test_empty_data(self):
        with pytest.raises(EmptyDatasetError):
            train("dt", [])
        with pytest.raises(EmptyDatasetError):
            evaluate_cardinality_accuracy(None, [])  # type: ignore[arg-type]


@st.composite
def tie_heavy_nodes(draw):
    """A small node: feature matrix with many repeated values, labels and
    logistic-loss gradients drawn from few levels so that equal and nearly
    equal split gains are common."""
    n = draw(st.integers(1, 24))
    n_features = draw(st.integers(1, 4))
    levels = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])
    X = np.array(draw(st.lists(st.lists(levels, min_size=n_features, max_size=n_features), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    scores = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 0.3, 2.0]), min_size=n, max_size=n)))
    p = 1.0 / (1.0 + np.exp(-scores))
    return X, y, y - p, p * (1 - p), draw(st.integers(0, 3))


class TestSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_nodes())
    def test_matches_loop_reference_for_both_gains(self, node):
        X, y, g, h, min_leaf = node
        assert cardml._best_split(X, (y,), min_leaf, cardml._gini_gain) == reference_gini_split(X, y, min_leaf)
        assert cardml._best_split(X, (g, h), min_leaf, cardml._newton_gain) == reference_newton_split(
            X, g, h, min_leaf
        )

    def test_pure_node_has_no_split(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        for y in (np.zeros(10, dtype=int), np.ones(10, dtype=int)):
            assert cardml._best_split(X, (y,), 1, cardml._gini_gain) is None


class TestTreeInternals:
    def test_unfitted_prediction_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            DecisionTreeClassifier().predict_one([0.0] * len(FEATURE_NAMES))

    def test_cart_fits_consistent_data_exactly(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 3))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)  # xor-ish, needs depth
        tree = DecisionTreeClassifier(max_depth=20, min_leaf=1).fit(X, y)
        assert (tree.predict(X) == y).all()

    def test_gb_training_loss_non_increasing(self, synthetic_split):
        train_rows, _ = synthetic_split
        X = np.array([f.to_array() for f, _ in train_rows])
        y = np.array([l.min_class for _, l in train_rows])
        model = GradientBoostingClassifier(n_rounds=50).fit(X, y)
        losses = model.train_losses
        assert all(later <= earlier + 1e-9 for earlier, later in zip(losses, losses[1:]))

    def test_serialization_round_trip(self, synthetic_split):
        train_rows, test_rows = synthetic_split
        for kind in ("dt", "gb"):
            model = train(kind, train_rows, seed=42)
            restored = CardinalityModel.from_json(model.to_json())
            assert restored.to_json() == model.to_json()
            assert evaluate_cardinality_accuracy(restored, test_rows) == evaluate_cardinality_accuracy(
                model, test_rows
            )

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda doc: {**doc, "kind": "rf"},
            lambda doc: {**doc, "kind": ["gb"]},
            lambda doc: {key: value for key, value in doc.items() if key != "seed"},
            lambda doc: {**doc, "min_model": {"kind": "gb"}},
            lambda doc: [doc],
        ],
        ids=["unknown-kind", "unhashable-kind", "missing-key", "missing-nested-key", "not-an-object"],
    )
    def test_malformed_document_is_a_value_error(self, mangle, synthetic_split):
        doc = json.loads(train("dt", synthetic_split[0], seed=42).to_json())
        with pytest.raises(ValueError, match="unknown model kind|malformed model document"):
            CardinalityModel.from_json(json.dumps(mangle(doc)))


class TestPrediction:
    def _constant_model(self, min_value, max_is_one):
        leaf = lambda value: {"leaf": True, "prediction": value, "probability": float(value), "samples": 1}
        doc = {"kind": "dt", "max_depth": 1, "min_leaf": 1, "root": None}
        min_model = DecisionTreeClassifier.from_dict({**doc, "root": leaf(min_value)})
        max_model = DecisionTreeClassifier.from_dict({**doc, "root": leaf(int(max_is_one))})
        return CardinalityModel("dt", min_model, max_model, seed=0, params={})

    def test_composition(self, synthetic_split):
        features = synthetic_split[0][0][0]
        assert predict_cardinality(self._constant_model(1, True), features) == Cardinality(1, 1)
        assert predict_cardinality(self._constant_model(0, False), features) == Cardinality(0, None)
        assert predict_cardinality(self._constant_model(0, True), features) == Cardinality(0, 1)
        assert predict_cardinality(self._constant_model(1, False), features) == Cardinality(1, None)

    def test_min_only_correct_gives_zero_combined(self, synthetic_split):
        from shexbench.cardml import MaxBound

        rows = [(f, l) for f, l in synthetic_split[0] if l.max_class is MaxBound.UNBOUNDED][:10]
        model = self._constant_model(min_value=rows[0][1].min_class, max_is_one=True)
        only_min_right = [(f, l) for f, l in rows if l.min_class == rows[0][1].min_class]
        acc_min, acc_max, acc_combined = evaluate_cardinality_accuracy(model, only_min_right)
        assert acc_min == 1.0
        assert acc_max == 0.0
        assert acc_combined == 0.0

    def test_always_valid_cardinality(self, synthetic_split):
        train_rows, test_rows = synthetic_split
        model = train("dt", train_rows, seed=42)
        for features, _ in test_rows:
            cardinality = predict_cardinality(model, features)
            assert cardinality.min in (0, 1)
            assert cardinality.max in (1, None)


def test_feature_csv_round_trip(tmp_path, synthetic_split):
    rows = synthetic_split[0][:10]
    path = tmp_path / "features.csv"
    write_feature_csv(rows, path, class_uris=["c"] * 10, predicates=["p"] * 10)
    restored = read_feature_csv(path)
    assert len(restored) == 10
    for (f1, l1), (f2, l2) in zip(rows, restored):
        assert np.allclose(f1.to_array(), f2.to_array())
        assert l1.min_class == l2.min_class and l1.max_class == l2.max_class
    header = path.read_text().splitlines()[0].split(",")
    assert header[:2] == ["class_uri", "predicate_uri"]
    assert tuple(header[2:-2]) == FEATURE_NAMES


def test_failed_feature_csv_rewrite_keeps_earlier_file(tmp_path, synthetic_split):
    rows = synthetic_split[0][:5]
    path = tmp_path / "features.csv"
    write_feature_csv(rows, path, class_uris=["c"] * 5, predicates=["p"] * 5)
    before = path.read_bytes()
    with pytest.raises(IndexError):
        write_feature_csv(rows, path, class_uris=["c"], predicates=["p"] * 5)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["features.csv"]
