"""Feature extraction and small supervised models for cardinality bounds.

Two independent binary targets cover the benchmark's cardinality shapes:
is the minimum 1 (vs 0), and is the maximum 1 (vs unbounded).  Both the CART
classifier and the gradient-boosted ensemble are written here so training is
bit-deterministic under a seed and models serialize to self-describing JSON.
"""

from __future__ import annotations

import csv
import io
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


# -- shared tree machinery -----------------------------------------------------
# Both models split by the exact greedy search of XGBoost (Chen & Guestrin,
# KDD 2016) over cumulative sums of per-row statistics: y for Gini, g and h for Newton.

def _gini(p: np.ndarray | float) -> np.ndarray | float:
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _gini_gain(stats, left, right, n_left: np.ndarray) -> np.ndarray:
    """Gini decrease of each split; n_left rows go left."""
    (y,), (pos_left,), (pos_right,) = stats, left, right
    n = len(y)
    n_right = n - n_left
    weighted = (n_left * _gini(pos_left / n_left) + n_right * _gini(pos_right / n_right)) / n
    return _gini(float(y.sum()) / n) - weighted


def _newton_score(g_sum, h_sum):
    return g_sum * g_sum / (h_sum + 1e-9)


def _newton_gain(stats, left, right, n_left: np.ndarray) -> np.ndarray:
    """Second-order gain of each split on logistic-loss gradients."""
    (g, h), (g_left, h_left), (g_right, h_right) = stats, left, right
    parent = _newton_score(float(g.sum()), float(h.sum()))
    return _newton_score(g_left, h_left) + _newton_score(g_right, h_right) - parent


def _best_split(X: np.ndarray, stats: Sequence[np.ndarray], min_leaf: int, gain) -> tuple[int, float] | None:
    """(feature, threshold) of the best split; None when no split gains.

    Candidates lie between distinct adjacent values with at least min_leaf
    rows on each side, and are scanned in (feature, threshold) order: one
    replaces the best so far only when it gains more than the best + 1e-12,
    so ties keep the earliest and training is deterministic.
    """
    n = len(X)
    if n < 2:
        return None
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    sums = [np.cumsum(stat[order], axis=0) for stat in stats]
    n_left = np.arange(1, n)[:, None]
    gains = gain(stats, [s[:-1] for s in sums], [s[-1] - s[:-1] for s in sums], n_left)
    usable = ~(xs[1:] <= xs[:-1]) & (n_left >= min_leaf) & (n_left <= n - min_leaf) & (gains > 1e-12)
    # Transposed so that flat positions follow the scan order.
    flat_gains = gains.T.ravel()
    candidates = np.flatnonzero(usable.T.ravel())
    if not len(candidates):
        return None
    # Every replacement beats everything scanned before it, so only strict
    # running-max records can replace the best; the rule runs on those alone.
    scanned = flat_gains[candidates]
    records = candidates[np.r_[True, scanned[1:] > np.maximum.accumulate(scanned)[:-1]]]
    best = records[0]
    for position in records[1:]:
        if flat_gains[position] > flat_gains[best] + 1e-12:
            best = position
    feature, row = divmod(int(best), n - 1)
    return feature, float((xs[row + 1, feature] + xs[row, feature]) / 2.0)


def _grow(X: np.ndarray, stats: Sequence[np.ndarray], max_depth: int, min_leaf: int, leaf, gain) -> dict:
    """Recursive binary partition to max_depth; leaf(*stats) builds each leaf."""
    node = leaf(*stats)
    if max_depth <= 0 or len(X) < 2 * min_leaf:
        return node
    split = _best_split(X, stats, min_leaf, gain)
    if split is None:
        return node
    feature, threshold = split
    mask = X[:, feature] <= threshold
    return {
        "leaf": False,
        "feature": feature,
        "threshold": threshold,
        "left": _grow(X[mask], [s[mask] for s in stats], max_depth - 1, min_leaf, leaf, gain),
        "right": _grow(X[~mask], [s[~mask] for s in stats], max_depth - 1, min_leaf, leaf, gain),
    }


def _leaf(node: dict | None, x: Sequence[float]) -> dict:
    """The leaf that row x falls into."""
    if node is None:
        raise RuntimeError("model is not fitted")
    while not node["leaf"]:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node


# -- decision tree ------------------------------------------------------------

def _class_leaf(y: np.ndarray) -> dict:
    n = len(y)
    positives = int(y.sum())
    return {
        "leaf": True,
        "prediction": int(positives * 2 > n),
        "probability": positives / n if n else 0.0,
        "samples": n,
    }


class DecisionTreeClassifier:
    """Binary CART with Gini splits; no randomness anywhere."""

    def __init__(self, max_depth: int = 6, min_leaf: int = 5):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.root: dict | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        self.root = _grow(X, (y,), self.max_depth, self.min_leaf, _class_leaf, _gini_gain)
        return self

    def predict_one(self, x: Sequence[float]) -> int:
        return _leaf(self.root, x)["prediction"]

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


def _newton_leaf(g: np.ndarray, h: np.ndarray) -> dict:
    return {"leaf": True, "value": float(g.sum() / (h.sum() + 1e-9)), "samples": len(g)}


def _tree_values(root: dict, X: np.ndarray) -> np.ndarray:
    return np.array([_leaf(root, row)["value"] for row in X])


class GradientBoostingClassifier:
    """Additive depth-limited regression trees on logistic loss."""

    def __init__(self, n_rounds: int = 100, max_depth: int = 3, learning_rate: float = 0.1, min_leaf: int = 1):
        self.n_rounds = n_rounds
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.min_leaf = min_leaf
        self.base_score: float = 0.0
        self.trees: list[dict] = []
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
            tree = _grow(X, (gradients, hessians), self.max_depth, self.min_leaf, _newton_leaf, _newton_gain)
            scores = scores + self.learning_rate * _tree_values(tree, X)
            self.trees.append(tree)
            self.train_losses.append(_log_loss(y, _sigmoid(scores)))
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        scores = np.full(len(X), self.base_score)
        for tree in self.trees:
            scores = scores + self.learning_rate * _tree_values(tree, X)
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
            "trees": list(self.trees),
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
        model.trees = list(doc["trees"])
        return model


# -- training and prediction ----------------------------------------------------

MODEL_KINDS: dict[str, tuple[type, dict]] = {
    "dt": (DecisionTreeClassifier, {"max_depth": 6, "min_leaf": 5}),
    "gb": (GradientBoostingClassifier, {"n_rounds": 100, "max_depth": 3, "learning_rate": 0.1, "min_leaf": 1}),
}


def _model_kind(kind: str) -> tuple[type, dict]:
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r} (expected 'dt' or 'gb')")
    return MODEL_KINDS[kind]


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
        """Raises ValueError for malformed JSON, an unknown kind or a missing key."""
        doc = json.loads(text)
        try:
            model_class, _ = _model_kind(doc["kind"])
            return cls(
                kind=doc["kind"],
                min_model=model_class.from_dict(doc["min_model"]),
                max_model=model_class.from_dict(doc["max_model"]),
                seed=doc["seed"],
                params=doc["params"],
                feature_names=tuple(doc["feature_names"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed model document ({type(exc).__name__}: {exc})") from exc

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
    model_class, defaults = _model_kind(model_kind)
    if not data:
        raise EmptyDatasetError("no training rows")
    merged = {**defaults, **(params or {})}
    X = np.array([features.to_array() for features, _ in data], dtype=float)
    y_min = np.array([label.min_class for _, label in data], dtype=int)
    y_max = np.array([int(label.max_class is MaxBound.ONE) for _, label in data], dtype=int)

    models = []
    for name, y in (("min", y_min), ("max", y_max)):
        if len(set(y.tolist())) < 2:
            warnings.warn(f"{name} target is single-class; training a constant predictor", stacklevel=2)
        models.append(model_class(**merged).fit(X, y))
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
    """Feature table with a documented header: identifiers, features, labels.
    Renamed into place, so a failed write leaves an earlier file unchanged."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(["class_uri", "predicate_uri", *FEATURE_NAMES, "min_class", "max_class"])
    for index, (features, label) in enumerate(rows):
        writer.writerow([
            class_uris[index] if class_uris else "",
            predicates[index] if predicates else "",
            *features.to_array(),
            label.min_class,
            label.max_class.value,
        ])
    atomic_write_text(path, buffer.getvalue())


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
