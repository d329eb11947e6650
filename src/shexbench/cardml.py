"""Feature extraction and small supervised models for cardinality bounds.

Two independent binary targets cover the benchmark's cardinality shapes:
is the minimum 1 (vs 0), and is the maximum 1 (vs unbounded).  Both the CART
classifier and the gradient-boosted ensemble are written here so training is
bit-deterministic under a seed and models serialize to self-describing JSON.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EmptyDatasetError
from .jsonout import csv_text, indented_json
from .kginfo import GlobalPredicateRecord, RecordField, atomic_write_text, decode_json
from .model import Cardinality, DatatypeCategory, DEFAULT_DATATYPE_CATEGORIES, Iri


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


#: The model's features, in the order of its columns.
FEATURE_NAMES: tuple[str, ...] = tuple(f.name for f in fields(FeatureVector))


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


#: The parts of a record that :func:`extract_features` reads; a record built
#: with only these gives the same features as a full one.
FEATURE_FIELDS = (RecordField.FREQUENCY | RecordField.CARDINALITY | RecordField.DATATYPES
                  | RecordField.OBJECT_CLASSES | RecordField.VALUE_TYPE_CONSTRAINT)


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
# The search has a static half and a per-round half.  What depends only on a
# node's rows is worked out once per fit and row set: the node's candidates
# (_split_candidates, the boundaries between distinct adjacent values) and,
# for the split it last took, its children's rows and orders (_NodeTable).
# A boosting round, whose gradients are new, redoes only the prefix sums and
# the gains at those candidates (_choose_split).

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


def _presort(X: np.ndarray) -> np.ndarray:
    """(d, n) row indices of the (n, d) matrix X: row f lists X's rows by
    column f, ties in row order.  A fit sorts once and filters each node's
    order from its parent's (SLIQ's presorting: Mehta, Agrawal and Rissanen,
    EDBT 1996); the filter is stable, so a node's order is the one sorting
    its own rows would give."""
    return np.argsort(X.T, axis=1, kind="stable")


class _Candidates(NamedTuple):
    """A node's legal splits in (feature, threshold) scan order: split i puts
    the first n_left[i] rows of order[feature[i]] left, those up to
    position row[i], and splits at threshold[i]."""

    feature: np.ndarray
    row: np.ndarray
    n_left: np.ndarray
    threshold: np.ndarray


def _split_candidates(X: np.ndarray, order: np.ndarray, min_leaf: int) -> _Candidates:
    """The static half of the split search: every boundary between distinct
    adjacent values of order's (d, m) presorted rows of X with at least
    min_leaf rows on each side; a threshold lies halfway between the two values."""
    n = order.shape[1]
    xs = X.T[np.arange(len(order))[:, None], order]
    n_left = np.arange(1, n)
    legal = ~(xs[:, 1:] <= xs[:, :-1]) & (n_left >= min_leaf) & (n_left <= n - min_leaf)
    # Row-major, so candidates follow the feature-major scan order.
    feature, row = np.nonzero(legal)
    return _Candidates(feature, row, row + 1, (xs[feature, row + 1] + xs[feature, row]) / 2.0)


def _choose_split(
    candidates: _Candidates, order: np.ndarray, stats: Sequence[np.ndarray], node_stats: Sequence[np.ndarray], gain
) -> int | None:
    """The per-round half of the split search: the index of the best of
    candidates, None when none gains more than 1e-12.

    stats are per-row over all of X and node_stats are the node's, in row
    order.  The prefix sums run over each feature's whole order, so every
    sum is the one a full scan adds up; gains are computed at the candidates
    only.  A candidate replaces the best so far only when it gains more than
    the best + 1e-12, so ties keep the earliest and training is deterministic.
    """
    if not len(candidates.row):
        return None
    left, right = [], []
    for stat in stats:
        sums = stat[order].cumsum(axis=1)
        left.append(sums[candidates.feature, candidates.row])
        right.append(sums[candidates.feature, -1] - left[-1])
    gains = gain(node_stats, left, right, candidates.n_left)
    gaining = np.flatnonzero(gains > 1e-12)
    if not len(gaining):
        return None
    # Every replacement beats everything scanned before it, so only strict
    # running-max records can replace the best; the rule runs on those alone.
    scanned = gains[gaining]
    best = gaining[0]
    for position in gaining[1:][scanned[1:] > np.maximum.accumulate(scanned)[:-1]]:
        if gains[position] > gains[best] + 1e-12:
            best = position
    return int(best)


class _Node:
    """A searched node: its candidates; split, the index of the candidate it
    last split at (None before its first split); and that split's two
    (rows, order) children."""

    __slots__ = ("candidates", "split", "children")

    def __init__(self, candidates: _Candidates) -> None:
        self.candidates = candidates
        self.split: int | None = None
        self.children: list = []


class _NodeTable:
    """One fit's searched nodes, keyed by the node's rows (rows.tobytes()).
    Boosting trees share row sets from round to round, so a recurring node
    redoes only the per-round half, and its children too when it splits where
    it did last.  After each tree, next_round drops the nodes that tree did
    not visit, so the table never holds more than two trees' nodes, each with
    one split's children."""

    def __init__(self) -> None:
        self.previous: dict[bytes, _Node] = {}
        self.current: dict[bytes, _Node] = {}

    def node(self, X: np.ndarray, order: np.ndarray, rows: np.ndarray, min_leaf: int) -> _Node:
        key = rows.tobytes()
        node = self.previous.get(key)
        if node is None:
            node = _Node(_split_candidates(X, order, min_leaf))
        self.current[key] = node
        return node

    def next_round(self) -> None:
        self.previous, self.current = self.current, {}


def _children(X: np.ndarray, order: np.ndarray, rows: np.ndarray, feature: int, threshold: float) -> list:
    """(rows, order) of the left and right child of a split."""
    goes_left = X[:, feature] <= threshold
    rows_left = goes_left[rows]
    order_left = goes_left[order]
    children = []
    for row_mask, order_mask in ((rows_left, order_left), (~rows_left, ~order_left)):
        child_rows = rows[row_mask]
        # Each feature's row of order keeps the same len(child_rows) entries.
        children.append((child_rows, order[order_mask].reshape(len(order), len(child_rows))))
    return children


def _grow(
    X: np.ndarray,
    order: np.ndarray,
    rows: np.ndarray,
    stats: Sequence[np.ndarray],
    max_depth: int,
    min_leaf: int,
    leaf,
    gain,
    table: _NodeTable,
    step: np.ndarray | None = None,
) -> dict:
    """Recursive binary partition of X's rows (ascending, presorted by
    order) to max_depth; leaf(*node_stats) builds each leaf, table is the
    fit's _NodeTable, and step, when given, gets each leaf's "value" at its rows."""
    node_stats = [stat[rows] for stat in stats]
    best = None
    if max_depth > 0 and len(rows) >= 2 * min_leaf:
        searched = table.node(X, order, rows, min_leaf)
        best = _choose_split(searched.candidates, order, stats, node_stats, gain)
    if best is None:
        node = leaf(*node_stats)
        if step is not None:
            step[rows] = node["value"]
        return node
    feature, threshold = int(searched.candidates.feature[best]), float(searched.candidates.threshold[best])
    if searched.split != best:
        searched.split, searched.children = best, _children(X, order, rows, feature, threshold)
    left, right = (
        _grow(X, child_order, child_rows, stats, max_depth - 1, min_leaf, leaf, gain, table, step)
        for child_rows, child_order in searched.children
    )
    return {"leaf": False, "feature": feature, "threshold": threshold, "left": left, "right": right}


# -- flat trees -------------------------------------------------------------------
# A fitted or loaded tree is flattened once into parallel node arrays, the
# layout of scikit-learn's Tree (Pedregosa et al., JMLR 2011) and of the
# XGBoost and LightGBM predictors; the dict form is kept only for JSON.

def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# What each leaf value key must hold, as (description, test).
_LEAF_VALUES = {
    "prediction": ("0 or 1", lambda value: type(value) is int and value in (0, 1)),
    "value": ("numeric", _is_number),
}


@dataclass(frozen=True)
class _Forest:
    """Trees as parallel arrays over their concatenated nodes.

    roots[t] is tree t's root node.  A leaf is its own left and right child,
    so walking depth levels (the deepest leaf's) from the roots lands every
    row on its leaf in every tree.
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int


def _flatten(roots: Sequence, value_key: str) -> _Forest:
    """Flatten dict trees, validating each node on the way: ValueError unless
    every tree splits on the cardinality features and every leaf's value_key
    holds what _LEAF_VALUES asks for, as a loaded model needs."""
    value_kind, is_value = _LEAF_VALUES[value_key]
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    # Breadth first over all trees at once: node i of the list, which grows
    # while it is walked, is node i of the arrays, and the roots come first.
    nodes = [(root, 0) for root in roots]
    for node_id, (node, level) in enumerate(nodes):
        if not isinstance(node, dict) or not isinstance(node.get("leaf"), bool):
            raise ValueError(f"malformed model tree: node without a boolean 'leaf': {node!r:.80}")
        if node["leaf"]:
            if not is_value(node.get(value_key)):
                raise ValueError(f"malformed model tree: leaf without a {value_kind} {value_key!r}")
            feature.append(0)
            threshold.append(0.0)
            left.append(node_id)
            right.append(node_id)
            value.append(node[value_key])
            continue
        split_on = node.get("feature")
        if type(split_on) is not int or not 0 <= split_on < len(FEATURE_NAMES):
            raise ValueError(f"malformed model tree: split on feature {split_on!r}")
        if not _is_number(node.get("threshold")) or "left" not in node or "right" not in node:
            raise ValueError("malformed model tree: split without 'threshold', 'left' and 'right'")
        feature.append(split_on)
        threshold.append(node["threshold"])
        left.append(len(nodes))
        right.append(len(nodes) + 1)
        value.append(0.0)
        nodes += [(node["left"], level + 1), (node["right"], level + 1)]
    return _Forest(
        roots=np.arange(len(roots), dtype=np.intp),
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=np.array(value, dtype=float),
        depth=max(level for _, level in nodes) if nodes else 0,
    )


def _apply(forest: _Forest, X: np.ndarray) -> np.ndarray:
    """(n, trees) matrix of the leaf value that each row of the (n, d) matrix
    X reaches in each tree.  All rows walk all trees at once, level by level;
    a row exactly on a threshold goes left."""
    rows = np.arange(len(X))[:, None]
    nodes = np.broadcast_to(forest.roots, (len(X), len(forest.roots)))
    for _ in range(forest.depth):
        go_left = X[rows, forest.feature[nodes]] <= forest.threshold[nodes]
        nodes = np.where(go_left, forest.left[nodes], forest.right[nodes])
    return forest.value[nodes]


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
        self._forest: _Forest | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        self.root = _grow(
            X, _presort(X), np.arange(len(X)), (y,), self.max_depth, self.min_leaf, _class_leaf, _gini_gain,
            _NodeTable(),
        )
        self._forest = _flatten([self.root], "prediction")
        return self

    def predict_one(self, x: Sequence[float]) -> int:
        return int(self.predict(np.asarray([x], dtype=float))[0])

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._forest is None:
            raise RuntimeError("model is not fitted")
        return _apply(self._forest, np.asarray(X, dtype=float))[:, 0].astype(int)

    def to_dict(self) -> dict:
        return {"kind": "dt", "max_depth": self.max_depth, "min_leaf": self.min_leaf, "root": self.root}

    @classmethod
    def from_dict(cls, doc: dict) -> "DecisionTreeClassifier":
        forest = _flatten([doc["root"]], "prediction")
        model = cls(max_depth=doc["max_depth"], min_leaf=doc["min_leaf"])
        model.root = doc["root"]
        model._forest = forest
        return model


# -- gradient boosting ---------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, 1e-12, 1 - 1e-12)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


def _newton_leaf(g: np.ndarray, h: np.ndarray) -> dict:
    return {"leaf": True, "value": float(g.sum() / (h.sum() + 1e-9)), "samples": len(g)}


class GradientBoostingClassifier:
    """Additive depth-limited regression trees on logistic loss."""

    def __init__(self, n_rounds: int = 100, max_depth: int = 3, learning_rate: float = 0.1, min_leaf: int = 1):
        self.n_rounds = n_rounds
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.min_leaf = min_leaf
        self.base_score: float | None = None  # set by fit
        self.trees: list[dict] = []
        self.train_losses: list[float] = []
        self._forest: _Forest | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        prior = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        self.base_score = math.log(prior / (1 - prior))
        scores = np.full(len(y), self.base_score)
        probabilities = _sigmoid(scores)
        order, rows = _presort(X), np.arange(len(X))
        # Each round's tree writes its leaf values at their rows here, so the
        # round's update needs no walk of the tree.
        step = np.empty(len(y))
        table = _NodeTable()
        self.trees = []
        self.train_losses = []
        for _ in range(self.n_rounds):
            gradients = y - probabilities
            hessians = probabilities * (1 - probabilities)
            tree = _grow(
                X, order, rows, (gradients, hessians), self.max_depth, self.min_leaf, _newton_leaf, _newton_gain,
                table, step,
            )
            table.next_round()
            scores = scores + self.learning_rate * step
            probabilities = _sigmoid(scores)
            self.trees.append(tree)
            self.train_losses.append(_log_loss(y, probabilities))
        self._forest = _flatten(self.trees, "value")
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self._forest is None:
            raise RuntimeError("model is not fitted")
        steps = self.learning_rate * _apply(self._forest, np.asarray(X, dtype=float))
        scores = np.full(len(steps), self.base_score)
        # One tree at a time in tree order, as fit adds them, so that every
        # score is bit-identical to the one fit reached.
        for step in steps.T:
            scores = scores + step
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
        if not (_is_number(doc["base_score"]) and _is_number(doc["learning_rate"]) and isinstance(doc["trees"], list)):
            raise ValueError(
                "malformed model document: 'base_score' and 'learning_rate' must be numbers and 'trees' a list"
            )
        model._forest = _flatten(doc["trees"], "value")
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
        return indented_json(doc, sort_keys=True)

    def save(self, path: Path | str) -> None:
        atomic_write_text(path, self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "CardinalityModel":
        """Raises ValueError for malformed JSON, an unknown kind, a missing key,
        a malformed tree or feature names other than FEATURE_NAMES."""
        doc = decode_json(text)
        try:
            model_class, _ = _model_kind(doc["kind"])
            model = cls(
                kind=doc["kind"],
                min_model=model_class.from_dict(doc["min_model"]),
                max_model=model_class.from_dict(doc["max_model"]),
                seed=doc["seed"],
                params=doc["params"],
                feature_names=tuple(doc["feature_names"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed model document ({type(exc).__name__}: {exc})") from exc
        if model.feature_names != FEATURE_NAMES:
            # The trees split on feature positions, so other names would
            # mispredict every row.
            raise ValueError(
                f"malformed model document: 'feature_names' {list(model.feature_names)!r:.120} "
                f"are not this version's {len(FEATURE_NAMES)} features in order"
            )
        return model

    @classmethod
    def load(cls, path: Path | str) -> "CardinalityModel":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


def train(
    model_kind: str,
    data: Sequence[tuple[FeatureVector, CardinalityLabel]],
    seed: int = 42,
) -> CardinalityModel:
    """Fit min/max classifiers with the kind's parameters; deterministic under the seed.

    Single-class targets degrade to constant predictors with a warning rather
    than failing, so tiny benchmark slices still train.
    """
    model_class, params = _model_kind(model_kind)
    if not data:
        raise EmptyDatasetError("no training rows")
    X, y_min, y_max = _design_matrix(data)

    models = []
    for name, y in (("min", y_min), ("max", y_max)):
        if len(set(y.tolist())) < 2:
            warnings.warn(f"{name} target is single-class; training a constant predictor", stacklevel=2)
        models.append(model_class(**params).fit(X, y))
    return CardinalityModel(kind=model_kind, min_model=models[0], max_model=models[1], seed=seed, params=dict(params))


def _design_matrix(
    data: Sequence[tuple[FeatureVector, CardinalityLabel]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Feature matrix and the min and max targets (1 for max one) of data's rows."""
    X = np.array([features.to_array() for features, _ in data], dtype=float)
    y_min = np.array([label.min_class for _, label in data], dtype=int)
    y_max = np.array([int(label.max_class is MaxBound.ONE) for _, label in data], dtype=int)
    return X, y_min, y_max


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
    X, y_min, y_max = _design_matrix(data)
    min_ok = model.min_model.predict(X) == y_min
    max_ok = model.max_model.predict(X) == y_max
    n = len(data)
    return int(min_ok.sum()) / n, int(max_ok.sum()) / n, int((min_ok & max_ok).sum()) / n


def write_feature_csv(
    rows: Sequence[tuple[FeatureVector, CardinalityLabel]],
    path: Path | str,
    class_uris: Sequence[str],
    predicates: Sequence[str],
) -> None:
    """Feature table with a documented header: identifiers, features, labels;
    ``class_uris`` and ``predicates`` name each row's class and predicate.
    Renamed into place, so a failed write leaves an earlier file unchanged."""
    header = ["class_uri", "predicate_uri", *FEATURE_NAMES, "min_class", "max_class"]
    table = [[class_uris[index], predicates[index], *features.to_array(), label.min_class, label.max_class.value]
             for index, (features, label) in enumerate(rows)]
    atomic_write_text(path, csv_text(header, table))
