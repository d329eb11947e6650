"""Feature extraction and small supervised models for cardinality bounds.

Two independent binary targets cover the benchmark's cardinality shapes:
is the minimum 1 (vs 0), and is the maximum 1 (vs unbounded).  Both the CART
classifier and the gradient-boosted ensemble are written here so training is
bit-deterministic under a seed and models serialize to self-describing JSON.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmptyDatasetError
from .kginfo import GlobalPredicateRecord, atomic_write_text
from .model import Cardinality, DatatypeCategory, DEFAULT_DATATYPE_CATEGORIES, Iri

FEATURE_NAMES: tuple[str, ...] = (
    "frequency",
    "missing_fraction",
    "exactly_one_fraction",
    "multi_fraction",
    "max_observed_count",
    "mean_count",
    "distinct_object_ratio",
    "dt_datetime",
    "dt_decimal",
    "dt_string",
    "dt_iri",
    "has_value_type_constraint",
)


@dataclass(frozen=True)
class FeatureVector:
    frequency: float
    missing_fraction: float
    exactly_one_fraction: float
    multi_fraction: float
    max_observed_count: int
    mean_count: float
    distinct_object_ratio: float
    dt_datetime: float
    dt_decimal: float
    dt_string: float
    dt_iri: float
    has_value_type_constraint: bool

    def __post_init__(self) -> None:
        total = self.missing_fraction + self.exactly_one_fraction + self.multi_fraction
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"occurrence fractions must sum to 1, got {total}")

    def to_array(self) -> list[float]:
        return [float(getattr(self, name)) for name in FEATURE_NAMES]


class MaxBound(Enum):
    ONE = "one"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class CardinalityLabel:
    min_class: int
    max_class: MaxBound

    def __post_init__(self) -> None:
        if self.min_class not in (0, 1):
            raise ValueError("min_class must be 0 or 1")

    @classmethod
    def from_cardinality(cls, cardinality: Cardinality) -> "CardinalityLabel":
        return cls(
            min_class=min(cardinality.min, 1),
            max_class=MaxBound.ONE if cardinality.max == 1 else MaxBound.UNBOUNDED,
        )


def extract_features(record: GlobalPredicateRecord) -> FeatureVector:
    """Deterministic feature vector from a global predicate profile.

    Occurrence fractions are renormalized when the record's distribution does
    not sum to one within tolerance.  The distinct-object ratio is the
    probability that two random object values disagree on class (or datatype
    when no object classes are known), a diversity proxy in [0, 1].
    """
    distribution = record.cardinality_distribution
    exactly_one = distribution.get(1, 0.0)
    multi = sum(fraction for count, fraction in distribution.items() if count >= 2)
    missing = max(1.0 - record.frequency, 0.0)
    total = missing + exactly_one + multi
    if total <= 0:
        missing, exactly_one, multi = 1.0, 0.0, 0.0
    elif abs(total - 1.0) > 1e-9:
        missing, exactly_one, multi = missing / total, exactly_one / total, multi / total

    mean_count = sum(count * fraction for count, fraction in distribution.items())
    basis = record.object_class_distribution or record.datatype_of_objects
    diversity = 0.0
    if basis:
        norm = sum(basis.values())
        if norm > 0:
            diversity = 1.0 - sum((v / norm) ** 2 for v in basis.values())

    one_hot = dict.fromkeys(DatatypeCategory, 0.0)
    dominant = _dominant_category(record.datatype_of_objects)
    if dominant is not None:
        one_hot[dominant] = 1.0

    return FeatureVector(
        frequency=record.frequency,
        missing_fraction=missing,
        exactly_one_fraction=exactly_one,
        multi_fraction=multi,
        max_observed_count=max(distribution, default=0),
        mean_count=mean_count,
        distinct_object_ratio=diversity,
        dt_datetime=one_hot[DatatypeCategory.DATETIME],
        dt_decimal=one_hot[DatatypeCategory.DECIMAL],
        dt_string=one_hot[DatatypeCategory.STRING],
        dt_iri=one_hot[DatatypeCategory.IRI_CAT],
        has_value_type_constraint=bool(record.value_type_constraint),
    )


def _dominant_category(datatypes: dict[str, float]) -> DatatypeCategory | None:
    shares = dict.fromkeys(DatatypeCategory, 0.0)
    for key, fraction in datatypes.items():
        if key in ("IRI", "bnode"):
            category = DatatypeCategory.IRI_CAT
        else:
            category = DEFAULT_DATATYPE_CATEGORIES.get(Iri(key), DatatypeCategory.STRING)
        shares[category] += fraction
    best = max(shares.items(), key=lambda item: (item[1], item[0].value))
    return best[0] if best[1] > 0 else None


# -- decision tree ------------------------------------------------------------

def _gini(positives: float, n: float) -> float:
    if n <= 0:
        return 0.0
    p = positives / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _best_split(X: np.ndarray, y: np.ndarray, min_leaf: int) -> tuple[int, float] | None:
    """(feature, threshold) with the largest Gini decrease; None when no split
    improves.  Scan order (feature index, then threshold) breaks ties so
    training is deterministic."""
    n = len(y)
    parent = _gini(float(y.sum()), n)
    best: tuple[float, int, float] | None = None
    for feature in range(X.shape[1]):
        order = np.argsort(X[:, feature], kind="stable")
        xs = X[order, feature]
        ys = y[order]
        positives = np.cumsum(ys)
        total_pos = float(positives[-1])
        for i in range(min_leaf, n - min_leaf + 1):
            if i >= n or xs[i] <= xs[i - 1]:
                continue
            left_pos = float(positives[i - 1])
            weighted = (i * _gini(left_pos, i) + (n - i) * _gini(total_pos - left_pos, n - i)) / n
            decrease = parent - weighted
            if decrease > 1e-12 and (best is None or decrease > best[0] + 1e-12):
                best = (decrease, feature, float((xs[i] + xs[i - 1]) / 2.0))
    if best is None:
        return None
    return best[1], best[2]


class DecisionTreeClassifier:
    """Binary CART with Gini splits; no randomness anywhere."""

    def __init__(self, max_depth: int = 6, min_leaf: int = 5):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.root: dict | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        self.root = self._grow(X, y, depth=0)
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> dict:
        n = len(y)
        positives = int(y.sum())
        leaf = {
            "leaf": True,
            "prediction": int(positives * 2 > n),
            "probability": positives / n if n else 0.0,
            "samples": n,
        }
        if depth >= self.max_depth or n < 2 * self.min_leaf or positives in (0, n):
            return leaf
        split = _best_split(X, y, self.min_leaf)
        if split is None:
            return leaf
        feature, threshold = split
        mask = X[:, feature] <= threshold
        return {
            "leaf": False,
            "feature": feature,
            "threshold": threshold,
            "left": self._grow(X[mask], y[mask], depth + 1),
            "right": self._grow(X[~mask], y[~mask], depth + 1),
        }

    def predict_one(self, x: Sequence[float]) -> int:
        node = self.root
        if node is None:
            raise RuntimeError("model is not fitted")
        while not node["leaf"]:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return node["prediction"]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.predict_one(row) for row in np.asarray(X, dtype=float)])

    def to_dict(self) -> dict:
        return {"kind": "dt", "max_depth": self.max_depth, "min_leaf": self.min_leaf, "root": self.root}

    @classmethod
    def from_dict(cls, doc: dict) -> "DecisionTreeClassifier":
        model = cls(max_depth=doc["max_depth"], min_leaf=doc["min_leaf"])
        model.root = doc["root"]
        return model


# -- gradient boosting ---------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1 - 1e-12)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


class _RegressionTree:
    """Depth-limited tree on gradients with Newton leaf values (sum g / sum h)."""

    def __init__(self, max_depth: int, min_leaf: int):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.root: dict | None = None

    def fit(self, X: np.ndarray, g: np.ndarray, h: np.ndarray) -> "_RegressionTree":
        self.root = self._grow(X, g, h, depth=0)
        return self

    def _gain(self, g_sum: float, h_sum: float) -> float:
        return g_sum * g_sum / (h_sum + 1e-9)

    def _grow(self, X: np.ndarray, g: np.ndarray, h: np.ndarray, depth: int) -> dict:
        n = len(g)
        leaf = {"leaf": True, "value": float(g.sum() / (h.sum() + 1e-9)), "samples": n}
        if depth >= self.max_depth or n < 2 * self.min_leaf:
            return leaf
        parent_gain = self._gain(float(g.sum()), float(h.sum()))
        best: tuple[float, int, float] | None = None
        for feature in range(X.shape[1]):
            order = np.argsort(X[:, feature], kind="stable")
            xs = X[order, feature]
            gs = np.cumsum(g[order])
            hs = np.cumsum(h[order])
            total_g, total_h = float(gs[-1]), float(hs[-1])
            for i in range(self.min_leaf, n - self.min_leaf + 1):
                if i >= n or xs[i] <= xs[i - 1]:
                    continue
                gain = (
                    self._gain(float(gs[i - 1]), float(hs[i - 1]))
                    + self._gain(total_g - float(gs[i - 1]), total_h - float(hs[i - 1]))
                    - parent_gain
                )
                if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
                    best = (gain, feature, float((xs[i] + xs[i - 1]) / 2.0))
        if best is None:
            return leaf
        _, feature, threshold = best
        mask = X[:, feature] <= threshold
        return {
            "leaf": False,
            "feature": feature,
            "threshold": threshold,
            "left": self._grow(X[mask], g[mask], h[mask], depth + 1),
            "right": self._grow(X[~mask], g[~mask], h[~mask], depth + 1),
        }

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.array([self._predict_one(row) for row in X])

    def _predict_one(self, x: np.ndarray) -> float:
        node = self.root
        while not node["leaf"]:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return node["value"]


class GradientBoostingClassifier:
    """Additive depth-limited regression trees on logistic loss."""

    def __init__(self, n_rounds: int = 100, max_depth: int = 3, learning_rate: float = 0.1, min_leaf: int = 1):
        self.n_rounds = n_rounds
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.min_leaf = min_leaf
        self.base_score: float = 0.0
        self.trees: list[_RegressionTree] = []
        self.train_losses: list[float] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        prior = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        self.base_score = math.log(prior / (1 - prior))
        scores = np.full(len(y), self.base_score)
        self.trees = []
        self.train_losses = []
        for _ in range(self.n_rounds):
            probabilities = _sigmoid(scores)
            gradients = y - probabilities
            hessians = probabilities * (1 - probabilities)
            tree = _RegressionTree(self.max_depth, self.min_leaf).fit(X, gradients, hessians)
            scores = scores + self.learning_rate * tree.predict(X)
            self.trees.append(tree)
            self.train_losses.append(_log_loss(y, _sigmoid(scores)))
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        scores = np.full(len(X), self.base_score)
        for tree in self.trees:
            scores = scores + self.learning_rate * tree.predict(X)
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (_sigmoid(self.decision_function(X)) >= 0.5).astype(int)

    def predict_one(self, x: Sequence[float]) -> int:
        return int(self.predict(np.asarray([x], dtype=float))[0])

    def to_dict(self) -> dict:
        return {
            "kind": "gb",
            "n_rounds": self.n_rounds,
            "max_depth": self.max_depth,
            "learning_rate": self.learning_rate,
            "min_leaf": self.min_leaf,
            "base_score": self.base_score,
            "trees": [tree.root for tree in self.trees],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GradientBoostingClassifier":
        model = cls(
            n_rounds=doc["n_rounds"],
            max_depth=doc["max_depth"],
            learning_rate=doc["learning_rate"],
            min_leaf=doc["min_leaf"],
        )
        model.base_score = doc["base_score"]
        for root in doc["trees"]:
            tree = _RegressionTree(model.max_depth, model.min_leaf)
            tree.root = root
            model.trees.append(tree)
        return model


# -- training and prediction ----------------------------------------------------

DEFAULT_PARAMS = {
    "dt": {"max_depth": 6, "min_leaf": 5},
    "gb": {"n_rounds": 100, "max_depth": 3, "learning_rate": 0.1, "min_leaf": 1},
}


@dataclass
class CardinalityModel:
    """Paired min/max predictors plus everything needed to reuse them."""

    kind: str
    min_model: DecisionTreeClassifier | GradientBoostingClassifier
    max_model: DecisionTreeClassifier | GradientBoostingClassifier
    seed: int
    params: dict
    feature_names: tuple[str, ...] = FEATURE_NAMES

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "seed": self.seed,
            "params": self.params,
            "feature_names": list(self.feature_names),
            "min_model": self.min_model.to_dict(),
            "max_model": self.max_model.to_dict(),
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def save(self, path: Path | str) -> None:
        atomic_write_text(path, self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "CardinalityModel":
        doc = json.loads(text)
        loader = DecisionTreeClassifier if doc["kind"] == "dt" else GradientBoostingClassifier
        return cls(
            kind=doc["kind"],
            min_model=loader.from_dict(doc["min_model"]),
            max_model=loader.from_dict(doc["max_model"]),
            seed=doc["seed"],
            params=doc["params"],
            feature_names=tuple(doc["feature_names"]),
        )

    @classmethod
    def load(cls, path: Path | str) -> "CardinalityModel":
        return cls.from_json(Path(path).read_text())


def train(
    model_kind: str,
    data: Sequence[tuple[FeatureVector, CardinalityLabel]],
    params: dict | None = None,
    seed: int = 42,
) -> CardinalityModel:
    """Fit independent min/max classifiers; deterministic under the seed.

    Single-class targets degrade to constant predictors with a warning rather
    than failing, so tiny benchmark slices still train.
    """
    if model_kind not in DEFAULT_PARAMS:
        raise ValueError(f"unknown model kind {model_kind!r} (expected 'dt' or 'gb')")
    if not data:
        raise EmptyDatasetError("no training rows")
    merged = {**DEFAULT_PARAMS[model_kind], **(params or {})}
    X = np.array([features.to_array() for features, _ in data], dtype=float)
    y_min = np.array([label.min_class for _, label in data], dtype=int)
    y_max = np.array([int(label.max_class is MaxBound.ONE) for _, label in data], dtype=int)

    models = []
    for name, y in (("min", y_min), ("max", y_max)):
        if len(set(y.tolist())) < 2:
            warnings.warn(f"{name} target is single-class; training a constant predictor", stacklevel=2)
        if model_kind == "dt":
            models.append(DecisionTreeClassifier(**merged).fit(X, y))
        else:
            models.append(GradientBoostingClassifier(**merged).fit(X, y))
    return CardinalityModel(kind=model_kind, min_model=models[0], max_model=models[1], seed=seed, params=merged)


def predict_cardinality(model: CardinalityModel, features: FeatureVector) -> Cardinality:
    """Compose the two binary predictions into {0|1, 1|unbounded} bounds."""
    row = features.to_array()
    minimum = model.min_model.predict_one(row)
    max_is_one = model.max_model.predict_one(row)
    return Cardinality(minimum, 1 if max_is_one else None)


def evaluate_cardinality_accuracy(
    model: CardinalityModel,
    data: Sequence[tuple[FeatureVector, CardinalityLabel]],
) -> tuple[float, float, float]:
    """Per-target accuracies plus the both-correct rate (never above either)."""
    if not data:
        raise EmptyDatasetError("no evaluation rows")
    min_hits = max_hits = combined_hits = 0
    for features, label in data:
        row = features.to_array()
        min_ok = model.min_model.predict_one(row) == label.min_class
        max_ok = model.max_model.predict_one(row) == int(label.max_class is MaxBound.ONE)
        min_hits += min_ok
        max_hits += max_ok
        combined_hits += min_ok and max_ok
    n = len(data)
    return min_hits / n, max_hits / n, combined_hits / n


def write_feature_csv(
    rows: Sequence[tuple[FeatureVector, CardinalityLabel]],
    path: Path | str,
    class_uris: Sequence[str] | None = None,
    predicates: Sequence[str] | None = None,
) -> None:
    """Feature table with a documented header: identifiers, features, labels."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["class_uri", "predicate_uri", *FEATURE_NAMES, "min_class", "max_class"])
        for index, (features, label) in enumerate(rows):
            writer.writerow([
                class_uris[index] if class_uris else "",
                predicates[index] if predicates else "",
                *features.to_array(),
                label.min_class,
                label.max_class.value,
            ])


def read_feature_csv(path: Path | str) -> list[tuple[FeatureVector, CardinalityLabel]]:
    rows = []
    with open(path, newline="") as handle:
        for record in csv.DictReader(handle):
            values = {name: float(record[name]) for name in FEATURE_NAMES}
            values["max_observed_count"] = int(values["max_observed_count"])
            values["has_value_type_constraint"] = bool(values["has_value_type_constraint"])
            features = FeatureVector(**values)
            label = CardinalityLabel(int(record["min_class"]), MaxBound(record["max_class"]))
            rows.append((features, label))
    return rows
