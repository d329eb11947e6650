"""Output checks for one benchmark repetition.

An operation is one class in one stage.  Each check returns the set of class
URIs whose operation failed, so the caller can count failures against the
number attempted.  The GED check is independent of ``shexbench.treedist``'s
edit distance: schema trees are depth-3 (predicate, node, cardinality) paths
in predicate order, so their unit-cost ordered edit distance is a sequence
alignment where substituting a path costs its number of differing labels and
inserting or deleting one costs 3.
"""

from __future__ import annotations

from pathlib import Path


def tree_paths(tree) -> list[tuple[str, str, str]]:
    """The (predicate, node, cardinality) label paths under a schema tree's root."""
    paths = []
    for predicate in tree.children:
        (node,) = predicate.children
        (card,) = node.children
        paths.append((predicate.label, node.label, card.label))
    return paths


def alignment_distance(a: list[tuple[str, str, str]], b: list[tuple[str, str, str]]) -> int:
    previous = [3 * j for j in range(len(b) + 1)]
    for i, path in enumerate(a, 1):
        current = [3 * i]
        for j, other in enumerate(b, 1):
            substitute = previous[j - 1] + sum(x != y for x, y in zip(path, other))
            current.append(min(previous[j] + 3, current[j - 1] + 3, substitute))
        previous = current
    return previous[-1]


def independent_ged(generated_text: str, ground_truth_text: str, class_uri: str) -> int:
    from shexbench.model import Iri, canonicalize
    from shexbench.shexc import parse_shexc
    from shexbench.treedist import schema_to_tree

    focus = Iri(class_uri)
    gen = parse_shexc(generated_text, focus_class=focus)
    gt = canonicalize(parse_shexc(ground_truth_text, focus_class=focus))
    return alignment_distance(tree_paths(schema_to_tree(gen, root_label=class_uri)),
                              tree_paths(schema_to_tree(gt, root_label=class_uri)))


def failed_statuses(report: dict) -> set[str]:
    """Classes of an extract or generate report whose status is not ``ok``."""
    return {c["class_uri"] for c in report["classes"] if c["status"] != "ok"}


def failed_replays(out_dir: Path, recorded_dir: Path, slugs: dict[str, str]) -> set[str]:
    """Classes whose replayed schema differs from the recorded one, byte for byte."""
    failed = set()
    for class_uri, slug in slugs.items():
        replayed, recorded = out_dir / f"{slug}.shex", recorded_dir / f"{slug}.shex"
        if not replayed.exists() or replayed.read_bytes() != recorded.read_bytes():
            failed.add(class_uri)
    return failed


def failed_evaluations(doc: dict, out_dir: Path, slugs: dict[str, str], gt_paths: dict[str, Path],
                       verify_ged: bool = True) -> set[str]:
    """Classes whose evaluate record is not ok, whose error breakdown does not
    sum to the ground-truth constraint count, or (with ``verify_ged``) whose
    GED disagrees with the independent alignment distance."""
    failed = set()
    for record in doc["records"]:
        class_uri = record["class_uri"]
        if record["status"] != "ok" or sum((record["error_breakdown"] or {}).values()) != record["n_gt_constraints"]:
            failed.add(class_uri)
            continue
        if not verify_ged:
            continue
        generated = (out_dir / f"{slugs[class_uri]}.shex").read_text()
        if record["ged"] != independent_ged(generated, gt_paths[class_uri].read_text(), class_uri):
            failed.add(class_uri)
    return failed | (set(slugs) - {r["class_uri"] for r in doc["records"]})


def stable_records(doc: dict) -> list[dict]:
    """Evaluate records without their timings, for comparing repetitions."""
    return [{k: v for k, v in record.items() if k != "timings"} for record in doc["records"]]
