"""The benchmark's tracer names scriptmap functions as "layer.function" strings.

A renamed or removed function makes its per-layer metric read 0 without any
error, so every name perfbench/tracing.py uses must still name a function of
that scriptmap module. The file is read as source, not imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# Functions gone from scriptmap whose names the tracer still holds; their
# metrics read 0, and the next change to the benchmark drops them.
KNOWN_STALE = {"corpus.resolve_pronouns", "corpus.with_predictions", "features.column_names"}


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{TRACING.name} assigns no {name}")


def traced_names() -> dict[str, set[str]]:
    """Every "layer.function" name of the tracer, by where it is used."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    counters = _assigned(tree, "COUNTERS")
    assert isinstance(counters, ast.Dict)
    helpers = ast.literal_eval(_assigned(tree, "LEAF_HELPERS"))
    metrics = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"
    )
    return {
        "COUNTERS": {ast.literal_eval(key) for key in counters.keys},
        "LOADS": set(ast.literal_eval(_assigned(tree, "LOADS"))),
        "LEAF_HELPERS": {f"{layer}.{fn}" for layer, fns in helpers.items() for fn in fns},
        "layer_metrics": {
            node.slice.value
            for node in ast.walk(metrics)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("total", "calls")
            and isinstance(node.slice, ast.Constant)
        },
    }


def _is_function(name: str) -> bool:
    layer, fn = name.split(".")
    return callable(getattr(importlib.import_module(f"scriptmap.{layer}"), fn, None))


class TestTracedNames:
    def test_every_kind_of_name_is_read(self):
        names = traced_names()
        assert {"corpus.parse_corpus_file", "crf.train", "crf.minimize"} <= names["COUNTERS"]
        assert "embeddings.load_embeddings" in names["LOADS"]
        assert "baselines.jaccard" in names["LEAF_HELPERS"]
        assert {"crf.objective_and_gradient", "baselines.build_ed_index"} <= names[
            "layer_metrics"
        ]

    def test_names_are_scriptmap_functions(self):
        missing = {
            name for used in traced_names().values() for name in used if not _is_function(name)
        }
        assert missing <= KNOWN_STALE
