from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shexbench import cardml
from shexbench.cardml import (
    FEATURE_FIELDS,
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
    build_benchmark_endpoint,
    read_feature_csv,
    reference_decision_function,
    reference_fit,
    reference_gini_split,
    reference_newton_split,
    reference_predict,
    synthetic_cardinality_rows,
    write_benchmark_manifest,
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

    @pytest.mark.parametrize("offline", [False, True], ids=["online", "offline-after-extract"])
    def test_feature_fields_record_gives_the_full_records_features(self, tmp_path, offline):
        """Over every (class, ground-truth predicate) of the benchmark KG, as
        train-cardinality visits them: online, and offline on a cache that a
        global extract warmed (the typing predicate's parts miss there)."""
        from shexbench.cli import cmd_extract, entry_endpoint_config, load_manifest
        from shexbench.model import canonicalize

        endpoint = build_benchmark_endpoint()
        manifest = write_benchmark_manifest(tmp_path)
        cache = tmp_path / "cache"
        if offline:
            cmd_extract(manifest, cache, "global", transport_factory=lambda cfg: endpoint)
        pairs = 0
        for entry in load_manifest(manifest).entries:
            cfg = entry_endpoint_config(entry, cache, offline)
            full_client, feature_client = (KgClient(cfg, transport=endpoint) for _ in range(2))
            for constraint in canonicalize(entry.ground_truth).start_shape.constraints:
                full = full_client.build_global_record(entry.class_uri, constraint.predicate)
                partial = feature_client.build_global_record(entry.class_uri, constraint.predicate, FEATURE_FIELDS)
                assert extract_features(partial) == extract_features(full)
                assert partial.completeness == full.completeness & FEATURE_FIELDS
                pairs += 1
        assert pairs == 12

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


def _split(X, stats, min_leaf, gain):
    """(feature, threshold) of the best split of X's rows as one node, presorted
    as a fit presorts them, by both halves of the split search; None when no
    split gains."""
    order = cardml._presort(X)
    candidates = cardml._split_candidates(X, order, min_leaf)
    best = cardml._choose_split(candidates, order, stats, stats, gain)
    if best is None:
        return None
    return int(candidates.feature[best]), float(candidates.threshold[best])


class TestSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_nodes())
    def test_matches_loop_reference_for_both_gains(self, node):
        X, y, g, h, min_leaf = node
        assert _split(X, (y,), min_leaf, cardml._gini_gain) == reference_gini_split(X, y, min_leaf)
        assert _split(X, (g, h), min_leaf, cardml._newton_gain) == reference_newton_split(X, g, h, min_leaf)

    def test_pure_node_has_no_split(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        for y in (np.zeros(10, dtype=int), np.ones(10, dtype=int)):
            assert _split(X, (y,), 1, cardml._gini_gain) is None


def _model_json(model) -> str:
    kind = "dt" if isinstance(model, DecisionTreeClassifier) else "gb"
    return CardinalityModel(kind, model, model, seed=0, params={}).to_json()


class TestFitOracle:
    """Fitting on a matrix presorted once, with each boosting round's update
    taken from its leaves, against the per-node fit it replaced."""

    @settings(deadline=None)
    @given(tie_heavy_nodes(), st.integers(1, 8), st.integers(0, 5))
    def test_matches_per_node_fit_byte_for_byte(self, node, max_depth, n_rounds):
        X, y, _, _, min_leaf = node
        for model in (
            DecisionTreeClassifier(max_depth=max_depth, min_leaf=min_leaf),
            GradientBoostingClassifier(n_rounds=n_rounds, max_depth=max_depth, min_leaf=min_leaf),
        ):
            expected = reference_fit(model, X, y)
            model.fit(X, y)
            assert _model_json(model).encode() == _model_json(expected).encode()
            if isinstance(model, GradientBoostingClassifier):
                assert np.array(model.train_losses).tobytes() == np.array(expected.train_losses).tobytes()


@st.composite
def few_level_matrices(draw):
    """A feature matrix whose every column takes values from its own 2-5
    levels, with labels: boosting rounds on it split the same few row sets
    again and again, so a node's row set recurs, vanishes and recurs."""
    n = draw(st.integers(2, 30))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        levels = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), min_size=2, max_size=5, unique=True))
        columns.append(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return np.array(columns).T, y


class TestNodeTable:
    """A fit's table of per-node split candidates and children, reused across
    boosting rounds, against the per-node fit that recomputes them."""

    @settings(deadline=None)
    @given(few_level_matrices(), st.integers(10, 40), st.integers(1, 4), st.integers(0, 3))
    def test_boosting_rounds_match_per_node_fit_byte_for_byte(self, matrix, n_rounds, max_depth, min_leaf):
        X, y = matrix
        model = GradientBoostingClassifier(n_rounds=n_rounds, max_depth=max_depth, min_leaf=min_leaf)
        expected = reference_fit(model, X, y)
        model.fit(X, y)
        assert _model_json(model).encode() == _model_json(expected).encode()
        assert np.array(model.train_losses).tobytes() == np.array(expected.train_losses).tobytes()

    @pytest.mark.parametrize("model_class", [DecisionTreeClassifier, GradientBoostingClassifier])
    def test_refit_equals_a_fresh_fit(self, model_class):
        """A and B have the same row count, so their nodes share row sets;
        the fresh fit on B runs first, before any fit on A."""
        rng = np.random.default_rng(11)
        fits = []
        for column in (1, 2):
            X = rng.integers(0, 4, (60, 3)).astype(float)
            fits.append((X, (X[:, column] + rng.random(60) > 2).astype(int)))
        fresh = model_class(max_depth=3, min_leaf=1).fit(*fits[1])
        refitted = model_class(max_depth=3, min_leaf=1)
        for X, y in fits:
            refitted.fit(X, y)
        assert _model_json(refitted) == _model_json(fresh)
        if model_class is GradientBoostingClassifier:
            assert refitted.train_losses == fresh.train_losses

    def test_boosting_holds_at_most_two_trees_of_nodes(self, monkeypatch):
        """On continuous features with random labels the root recurs every
        round but its best split moves, so a node that kept every split's
        children would hold more and more of them."""
        sizes, children, reused, resplits = [], [], [], []

        class RecordingTable(cardml._NodeTable):
            def node(self, X, order, rows, min_leaf):
                reused.append(rows.tobytes() in self.previous)
                return super().node(X, order, rows, min_leaf)

            def next_round(self):
                # previous and current share the nodes that recur.
                held = {id(node): node for node in [*self.previous.values(), *self.current.values()]}
                sizes.append(len(held))
                children.append(sum(len(node.children) for node in held.values()))
                super().next_round()

        def recording_children(*args):
            resplits.append(reused[-1])
            return children_of(*args)

        children_of = cardml._children
        monkeypatch.setattr(cardml, "_NodeTable", RecordingTable)
        monkeypatch.setattr(cardml, "_children", recording_children)
        rng = np.random.default_rng(11)
        X, y = rng.random((60, 3)), rng.integers(0, 2, 60)
        max_depth = 3
        GradientBoostingClassifier(n_rounds=50, max_depth=max_depth, min_leaf=1).fit(X, y)
        assert len(sizes) == 50
        # A tree searches at most its 2 ** max_depth - 1 nodes above max_depth,
        # and each node holds the (rows, order) children of one split.
        assert max(sizes) <= 2 * (2 ** max_depth - 1)
        assert all(held <= 2 * size for held, size in zip(children, sizes))
        assert any(reused)
        # Recurring nodes did split where they had not split before.
        assert sum(resplits) > 10


@st.composite
def fitted_tie_heavy_models(draw):
    """A decision tree or boosted model fitted on a tie-heavy node's matrix
    and labels, with that matrix."""
    X, y, _, _, min_leaf = draw(tie_heavy_nodes())
    max_depth = draw(st.integers(1, 8))
    if draw(st.booleans()):
        return DecisionTreeClassifier(max_depth=max_depth, min_leaf=min_leaf).fit(X, y), X
    n_rounds = draw(st.integers(1, 12))
    return GradientBoostingClassifier(n_rounds=n_rounds, max_depth=max_depth, min_leaf=min_leaf).fit(X, y), X


def _on_threshold_rows(model, X: np.ndarray) -> np.ndarray:
    """Copies of X's first row with one split's feature set exactly to that
    split's threshold, one per split node of the model."""
    stack = [model.root] if isinstance(model, DecisionTreeClassifier) else list(model.trees)
    rows = []
    while stack:
        node = stack.pop()
        if not node["leaf"]:
            row = X[0].copy()
            row[node["feature"]] = node["threshold"]
            rows.append(row)
            stack += [node["left"], node["right"]]
    return np.array(rows).reshape(-1, X.shape[1])


class TestFlatApply:
    @settings(max_examples=120, deadline=None)
    @given(fitted_tie_heavy_models())
    def test_matches_dict_tree_walk_bit_for_bit(self, fitted):
        model, X = fitted
        queries = np.vstack([X, _on_threshold_rows(model, X)])
        boosted = isinstance(model, GradientBoostingClassifier)
        # A document's max_depth says nothing about its trees: a loaded tree is
        # walked to its own depth.
        loaded = type(model).from_dict({**model.to_dict(), "max_depth": 0})
        for candidate in (model, loaded):
            expected = reference_predict(candidate, queries)
            assert np.array_equal(candidate.predict(queries), expected)
            assert [candidate.predict_one(row) for row in queries] == expected.tolist()
            assert candidate.predict(queries[:0]).shape == (0,)
            if boosted:
                scores = candidate.decision_function(queries)
                assert scores.dtype == float
                assert scores.tobytes() == reference_decision_function(candidate, queries).tobytes()
                assert candidate.decision_function(queries[:0]).shape == (0,)
        unfitted = type(model)()
        with pytest.raises(RuntimeError, match="not fitted"):
            unfitted.predict(queries)
        if boosted:
            with pytest.raises(RuntimeError, match="not fitted"):
                unfitted.decision_function(queries)


class TestTreeInternals:
    def test_unfitted_prediction_raises(self):
        for model_class in (DecisionTreeClassifier, GradientBoostingClassifier):
            with pytest.raises(RuntimeError, match="not fitted"):
                model_class().predict_one([0.0] * len(FEATURE_NAMES))

    def test_zero_round_boosting_predicts_its_prior(self):
        X = np.zeros((4, len(FEATURE_NAMES)))
        for y, expected in (([1, 1, 1, 0], 1), ([0, 0, 1, 0], 0)):
            model = GradientBoostingClassifier(n_rounds=0).fit(X, np.array(y))
            assert model.trees == [] and model.predict_one(X[0]) == expected

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
            lambda doc: {**doc, "feature_names": doc["feature_names"][::-1]},
            lambda doc: {**doc, "feature_names": doc["feature_names"][:-1]},
        ],
        ids=["unknown-kind", "unhashable-kind", "missing-key", "missing-nested-key", "not-an-object",
             "reversed-feature-names", "missing-feature-name"],
    )
    def test_malformed_document_is_a_value_error(self, mangle, synthetic_split):
        doc = json.loads(train("dt", synthetic_split[0], seed=42).to_json())
        with pytest.raises(ValueError, match="unknown model kind|malformed model document"):
            CardinalityModel.from_json(json.dumps(mangle(doc)))

    @pytest.mark.parametrize(
        "kind,mangle",
        [
            ("dt", lambda model: model.update(root={"samples": 3})),
            ("dt", lambda model: model.update(root=None)),
            ("dt", lambda model: model["root"].pop("right")),
            ("dt", lambda model: model["root"].update(feature=len(FEATURE_NAMES))),
            ("dt", lambda model: model["root"].update(threshold="0.5")),
            ("dt", lambda model: _first_leaf(model["root"]).pop("prediction")),
            ("dt", lambda model: _first_leaf(model["root"]).update(prediction=0.7)),
            ("dt", lambda model: _first_leaf(model["root"]).update(prediction=True)),
            ("dt", lambda model: _first_leaf(model["root"]).update(prediction=2)),
            ("gb", lambda model: model["trees"].append({"samples": 3})),
            ("gb", lambda model: _first_leaf(model["trees"][-1]).update(value=None)),
            ("gb", lambda model: model["trees"][0].update(leaf="no")),
            ("gb", lambda model: model.update(base_score=None)),
            ("gb", lambda model: model.update(learning_rate="0.1")),
            ("gb", lambda model: model.update(learning_rate=True)),
        ],
        ids=["dt-node-without-leaf", "dt-null-root", "dt-split-without-right", "dt-feature-out-of-range",
             "dt-string-threshold", "dt-leaf-without-prediction", "dt-fractional-prediction",
             "dt-boolean-prediction", "dt-prediction-above-one", "gb-node-without-leaf",
             "gb-leaf-without-value", "gb-non-boolean-leaf", "gb-null-base-score",
             "gb-string-learning-rate", "gb-boolean-learning-rate"],
    )
    def test_malformed_tree_is_a_value_error(self, kind, mangle, synthetic_split):
        doc = json.loads(train(kind, synthetic_split[0], seed=42).to_json())
        mangle(doc["max_model"])
        with pytest.raises(ValueError, match="malformed model"):
            CardinalityModel.from_json(json.dumps(doc))


def _first_leaf(node: dict) -> dict:
    while not node["leaf"]:
        node = node["left"]
    return node


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


def test_feature_csv_has_line_feed_line_ends(tmp_path, synthetic_split):
    """The feature dump ends its lines with a line feed, as the other CSV outputs do."""
    path = tmp_path / "features.csv"
    write_feature_csv(synthetic_split[0][:3], path, class_uris=["c"] * 3, predicates=["p"] * 3)
    data = path.read_bytes()
    assert b"\r" not in data and data.count(b"\n") == 4


def test_failed_feature_csv_rewrite_keeps_earlier_file(tmp_path, synthetic_split):
    rows = synthetic_split[0][:5]
    path = tmp_path / "features.csv"
    write_feature_csv(rows, path, class_uris=["c"] * 5, predicates=["p"] * 5)
    before = path.read_bytes()
    with pytest.raises(IndexError):
        write_feature_csv(rows, path, class_uris=["c"], predicates=["p"] * 5)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["features.csv"]
