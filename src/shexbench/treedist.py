"""Schema-to-tree conversion and edit-distance similarity metrics.

A schema becomes a rooted labeled tree: the focus class at the root, one child
per constraint predicate, below each predicate its node-constraint label, and
below that a single cardinality leaf.  Distances are the ordered tree edit
distance.  Under unit costs two such fixed-depth trees whose depths share no
label are compared as a sequence alignment of their (predicate, node,
cardinality) paths; every other input goes to the general Zhang-Shasha
algorithm.  The normalized variant divides by three times the number of
ground-truth constraints (the cost of deleting the ground truth outright).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    DatatypeConstraint,
    Iri,
    NodeConstraint,
    NodeKindIri,
    Schema,
    ShapeRef,
    ValueSet,
    canonicalize,
    classes_of,
    render_value,
)


class EmptyGroundTruthError(ValueError):
    """Normalization is undefined for a ground truth with no constraints."""


@dataclass(frozen=True)
class TreeNode:
    """Ordered labeled tree node."""

    label: str
    children: tuple["TreeNode", ...] = ()

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)


@dataclass(frozen=True)
class EditCostModel:
    """Unit-style edit costs; relabeling identical labels is free."""

    insert_cost: int = 1
    delete_cost: int = 1
    relabel_cost: int = 1

    def __post_init__(self) -> None:
        if min(self.insert_cost, self.delete_cost, self.relabel_cost) < 0:
            raise ValueError("edit costs must be non-negative")

    def relabel(self, a: str, b: str) -> int:
        return 0 if a == b else self.relabel_cost


UNIT_COSTS = EditCostModel()


def _node_label(nc: NodeConstraint, schema: Schema) -> str:
    if isinstance(nc, NodeKindIri):
        return "IRI"
    if isinstance(nc, DatatypeConstraint):
        return nc.datatype.value
    if isinstance(nc, ValueSet):
        return "[" + " ".join(sorted(render_value(v) for v in nc.values)) + "]"
    if isinstance(nc, ShapeRef):
        classes = classes_of(nc, schema)
        return "@[" + " ".join(sorted(c.value for c in classes)) + "]"
    raise TypeError(f"not a node constraint: {nc!r}")


def schema_to_tree(schema: Schema, root_label: str | None = None) -> TreeNode:
    """Fixed-depth tree over the start shape of the canonicalized schema.

    Shape names never appear: the root carries the focus-class IRI and shape
    references are rendered as the sorted typing-class set of their target.
    """
    return _canonical_tree(canonicalize(schema), root_label)


def _canonical_tree(canon: Schema, root_label: str | None) -> TreeNode:
    if root_label is None:
        root_label = canon.focus_class.value if canon.focus_class else canon.start_label
    children = []
    for constraint in canon.start_shape.constraints:
        leaf = TreeNode(constraint.cardinality.range_label())
        node = TreeNode(_node_label(constraint.node_constraint, canon), (leaf,))
        children.append(TreeNode(constraint.predicate.value, (node,)))
    return TreeNode(root_label, tuple(children))


def _postorder(root: TreeNode) -> tuple[list[TreeNode], list[int]]:
    """Postorder node list plus leftmost-leaf-descendant index per node."""
    nodes: list[TreeNode] = []
    lmds: list[int] = []

    def walk(node: TreeNode) -> int:
        child_indices = [walk(child) for child in node.children]
        index = len(nodes)
        nodes.append(node)
        lmds.append(lmds[child_indices[0]] if child_indices else index)
        return index

    walk(root)
    return nodes, lmds


def _keyroots(lmds: list[int]) -> list[int]:
    last: dict[int, int] = {}
    for index, lmd in enumerate(lmds):
        last[lmd] = index
    return sorted(last.values())


def tree_edit_distance(a: TreeNode, b: TreeNode, costs: EditCostModel = UNIT_COSTS) -> int:
    """Minimum edit cost transforming ``a`` into ``b``.

    Two schema-shaped trees (every root child has one child, which has one
    leaf child) whose labels never repeat across depths are compared under
    unit costs as an alignment of their root-to-leaf paths, in O(|a|·|b|)
    time: the roots' relabel cost plus, per path, 3 to insert or delete it
    and the number of differing labels to substitute it.  A label shared
    across depths would let an edit mapping pair nodes of different depths
    at no relabel cost, which the alignment cannot express, so that case,
    like every other input, is left to Zhang-Shasha (the fast path's test
    oracle).
    """
    if costs == UNIT_COSTS:
        a_paths, b_paths = _schema_paths(a), _schema_paths(b)
        if a_paths is not None and b_paths is not None and _depths_disjoint(a, b, a_paths + b_paths):
            return costs.relabel(a.label, b.label) + _path_alignment(a_paths, b_paths)
    return _zhang_shasha(a, b, costs)


def _schema_paths(root: TreeNode) -> list[tuple[str, str, str]] | None:
    """The (predicate, node, cardinality) label paths of a schema-shaped tree, else None."""
    paths = []
    for predicate in root.children:
        if len(predicate.children) != 1:
            return None
        (node,) = predicate.children
        if len(node.children) != 1 or node.children[0].children:
            return None
        paths.append((predicate.label, node.label, node.children[0].label))
    return paths


def _depths_disjoint(a: TreeNode, b: TreeNode, paths: list[tuple[str, str, str]]) -> bool:
    """Whether no label occurs at two depths across both trees."""
    levels = [{a.label, b.label}, *(set(column) for column in zip(*paths))]
    return sum(map(len, levels)) == len(set().union(*levels))


def _path_alignment(a: list[tuple[str, str, str]], b: list[tuple[str, str, str]]) -> int:
    """Unit-cost alignment of path lists, in two rows."""
    previous = list(range(0, 3 * len(b) + 1, 3))
    for i, (p, n, c) in enumerate(a, 1):
        current = [3 * i]
        for j, (q, m, d) in enumerate(b, 1):
            current.append(min(previous[j] + 3, current[j - 1] + 3,
                               previous[j - 1] + (p != q) + (n != m) + (c != d)))
        previous = current
    return previous[-1]


def _zhang_shasha(a: TreeNode, b: TreeNode, costs: EditCostModel) -> int:
    """Zhang-Shasha ordered tree edit distance of arbitrary trees.

    Runs in O(|a|·|b|) space and better-than-quartic time; symmetric under
    unit costs.
    """
    a_nodes, a_lmds = _postorder(a)
    b_nodes, b_lmds = _postorder(b)
    treedists = [[0] * len(b_nodes) for _ in range(len(a_nodes))]
    delete, insert = costs.delete_cost, costs.insert_cost

    def compute(i: int, j: int) -> None:
        m = i - a_lmds[i] + 2
        n = j - b_lmds[j] + 2
        fd = [[0] * n for _ in range(m)]
        ioff = a_lmds[i] - 1
        joff = b_lmds[j] - 1
        for x in range(1, m):
            fd[x][0] = fd[x - 1][0] + delete
        for y in range(1, n):
            fd[0][y] = fd[0][y - 1] + insert
        for x in range(1, m):
            for y in range(1, n):
                if a_lmds[i] == a_lmds[x + ioff] and b_lmds[j] == b_lmds[y + joff]:
                    fd[x][y] = min(
                        fd[x - 1][y] + delete,
                        fd[x][y - 1] + insert,
                        fd[x - 1][y - 1] + costs.relabel(a_nodes[x + ioff].label, b_nodes[y + joff].label),
                    )
                    treedists[x + ioff][y + joff] = fd[x][y]
                else:
                    p = a_lmds[x + ioff] - 1 - ioff
                    q = b_lmds[y + joff] - 1 - joff
                    fd[x][y] = min(
                        fd[x - 1][y] + delete,
                        fd[x][y - 1] + insert,
                        fd[p][q] + treedists[x + ioff][y + joff],
                    )

    for i in _keyroots(a_lmds):
        for j in _keyroots(b_lmds):
            compute(i, j)
    return treedists[-1][-1]


def schema_ged(generated: Schema, ground_truth: Schema, costs: EditCostModel = UNIT_COSTS) -> int:
    """Edit distance between the schema trees of a generated/ground-truth pair."""
    return _canonical_ged(canonicalize(generated), canonicalize(ground_truth), costs)


def _canonical_ged(gen_canon: Schema, gt_canon: Schema, costs: EditCostModel) -> int:
    """``schema_ged`` of a pair already canonical under the default typing predicates."""
    # Both schemas target the same class by construction, so both roots carry
    # the ground truth's focus-class label and never contribute relabel cost.
    root = gt_canon.focus_class.value if gt_canon.focus_class else gt_canon.start_label
    return tree_edit_distance(_canonical_tree(gen_canon, root), _canonical_tree(gt_canon, root), costs)


def nged(generated: Schema, ground_truth: Schema, costs: EditCostModel = UNIT_COSTS) -> float:
    """Edit distance normalized by 3x the ground-truth constraint count.

    0 for identical trees, exactly 1 for an empty generated schema, and above
    1 when the generated schema needs more edits than deleting the ground
    truth would.
    """
    return ged_and_nged(generated, ground_truth, costs)[1]


def ged_and_nged(generated: Schema, ground_truth: Schema,
                 costs: EditCostModel = UNIT_COSTS) -> tuple[int, float]:
    """``schema_ged`` and ``nged`` of one pair from a single tree-distance run."""
    # canonicalize keeps every start-shape constraint, so the raw count is |GT|.
    gt_size = len(ground_truth.start_shape.constraints)
    if gt_size == 0:
        raise EmptyGroundTruthError("ground-truth schema has no constraints")
    distance = schema_ged(generated, ground_truth, costs)
    return distance, distance / (3 * gt_size)
