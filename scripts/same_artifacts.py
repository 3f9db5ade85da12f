#!/usr/bin/env python3
"""Check that experiment artifacts agree modulo their volatile fields.

Each argument is an artifact: a ``results/<artifact>.json`` file written
by ``zbp-cli experiment run``, or an NDJSON stream saved from
``zbp-serve``'s ``POST /run``, whose ``result`` event carries the
artifact. Every artifact must equal the first once the manifest fields
that legitimately differ between two runs are removed. Exits non-zero
on the first mismatch.

Usage: python3 scripts/same_artifacts.py FIRST OTHER [OTHER ...]
"""
import json
import sys

# Kept in lockstep with `zbp_sim::registry::VOLATILE_MANIFEST_FIELDS`.
VOLATILE = {"wall_time_ms", "generated_unix", "cache_hits", "git_revision",
            "trace_store_hits", "trace_store_misses"}


def load(path):
    """The artifact in ``path``, with its volatile manifest fields removed."""
    if path.endswith(".ndjson"):
        events = [json.loads(line) for line in open(path) if line.strip()]
        artifact = next(e for e in events if e.get("event") == "result")["artifact"]
    else:
        artifact = json.load(open(path))
    for key in VOLATILE:
        artifact["manifest"].pop(key, None)
    return artifact


if len(sys.argv) < 3:
    sys.exit(__doc__)
first = load(sys.argv[1])
for path in sys.argv[2:]:
    if load(path) != first:
        sys.exit(f"error: {path} differs from {sys.argv[1]} beyond the volatile fields")
print(f"{len(sys.argv) - 1} artifacts identical modulo volatile fields")
