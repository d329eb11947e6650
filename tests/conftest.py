from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import settings

from shexbench.model import Iri
from shexbench.shexc import parse_shexc

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: ``--hypothesis-profile thorough`` runs each property test (one without its
#: own ``max_examples``) on many more examples than the default 100.
settings.register_profile("thorough", max_examples=10000)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def manifest_doc() -> dict:
    return json.loads((FIXTURES / "manifest.json").read_text())


@pytest.fixture(scope="session")
def fixture_paths(manifest_doc) -> list[Path]:
    return [FIXTURES / entry["ground_truth_path"] for entry in manifest_doc["entries"]]


@pytest.fixture(scope="session")
def fixture_schemas(manifest_doc):
    """(class_uri, schema) for every bundled ground-truth file."""
    pairs = []
    for entry in manifest_doc["entries"]:
        text = (FIXTURES / entry["ground_truth_path"]).read_text()
        pairs.append((Iri(entry["class_uri"]), parse_shexc(text)))
    return pairs


@pytest.fixture(scope="session")
def fixture_texts() -> list[str]:
    """Every bundled ground-truth file, and both sides of every few-shot
    exemplar (ShExC scripts, prompts and JSON replies)."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.rglob("*.shex"))]
    for path in sorted((FIXTURES / "fewshot").glob("*.json")):
        exemplar = json.loads(path.read_text(encoding="utf-8"))
        texts += [exemplar["user"], exemplar["assistant"]]
    return texts


@pytest.fixture(scope="session")
def museum_text() -> str:
    return (FIXTURES / "wes" / "museum.shex").read_text()


@pytest.fixture(scope="session")
def museum_schema(museum_text):
    return parse_shexc(museum_text)
