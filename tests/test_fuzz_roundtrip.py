"""Seeded fuzz: canonicalization and serialization over mutated schemas.

The focus class is out-of-band metadata: it survives text round-trips exactly
when the start shape keeps a typing value set to infer it from, so schemas
whose typing constraint was mutated away are compared modulo focus class.
"""

from __future__ import annotations

import random
from dataclasses import replace

from shexbench.model import canonicalize, shape_focus_class
from shexbench.shexc import parse_shexc, serialize_shexc
from support import mutate_schema


def test_mutated_schemas_round_trip(fixture_schemas):
    rng = random.Random(777)
    schemas = [schema for _, schema in fixture_schemas]
    for i in range(200):
        schema = mutate_schema(schemas[i % len(schemas)], rng, n_mutations=rng.randint(1, 5))
        canon = canonicalize(schema)
        assert canonicalize(canon) == canon, f"canonicalize not idempotent at iteration {i}"
        reparsed = parse_shexc(serialize_shexc(schema))
        if shape_focus_class(canon.start_shape) is None:
            reparsed = replace(reparsed, focus_class=canon.focus_class)
        assert reparsed == canon, f"round trip diverged at iteration {i}"


def test_focus_class_survives_round_trip_with_typing_constraint(fixture_schemas):
    for _, schema in fixture_schemas:
        reparsed = parse_shexc(serialize_shexc(schema))
        assert reparsed.focus_class == canonicalize(schema).focus_class
        assert reparsed.focus_class is not None
