"""Spans around the public functions of scriptmap, recorded from outside.

A Tracer replaces module attributes with timing wrappers. Each call records a
span (name, start, end, parent index) in memory, plus counts taken from the
call's arguments or result. Where a module imported a function by name
(``from .corpus import resolve_pronouns``), the wrapper is installed under
every module attribute that holds the original, so callers see it whichever
name they look up.

Per-layer numbers are derived from the spans: a span's self time is its
duration minus that of its direct children, and a layer's self time is the
sum over the spans whose name starts with the layer.
"""

from __future__ import annotations

import json
import statistics
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("corpus", "embeddings", "features", "crf", "identify", "baselines",
           "evaluation", "cli")

# Public functions left unwrapped: leaf helpers called per token, per ED pair
# or recursively per tree node, where a span would cost more than the call.
LEAF_HELPERS = {
    "corpus": {"is_verbal", "is_nominal", "is_pronominal", "collapse_label",
               "dependent_tokens"},
    "embeddings": {"cosine"},
    "features": {"column_names", "tfidf", "mention_tfidf"},
    "identify": {"row_schema", "node_error_estimate"},
    "baselines": {"jaccard"},
    "evaluation": {"f1_score", "prf", "micro_accuracy", "macro_prf"},
    "cli": {"build_parser"},
}

# Load calls whose top-level spans make up the set-up time of a run.
LOADS = ("corpus.parse_corpus_path", "corpus.parse_corpus_file",
         "embeddings.load_embeddings", "identify.load_tree",
         "identify.load_nonaction_list", "crf.load_model")

ROOT = "bench.op"


def _count_parse(c: Counter, args, kwargs, docs):
    for doc in docs:
        if hasattr(doc, "mentions"):
            c["stories"] += 1
            c["mentions"] += len(doc.mentions)
            c["tokens"] += sum(len(s) for s in doc.sentences)
        else:
            c["esds"] += 1
            c["eds"] += len(doc.script_eds())
            c["tokens"] += sum(len(ed.tokens) for ed in doc.eds)


def _count_extract(c: Counter, args, kwargs, row):
    mention, story = args[0], args[1]
    if row.tfidf_score is not None:
        c.tfidf[story.scenario][(story.doc_id, mention.sentence, mention.token_index)] = (
            row.tfidf_score
        )


COUNTERS = {
    "corpus.parse_corpus_file": _count_parse,
    "crf.minimize": lambda c, a, k, r: c.update(lbfgs_iterations=int(r.nit)),
    "crf.train": lambda c, a, k, r: c.update(features=r.index.n_features),
    "crf.load_model": lambda c, a, k, r: c.update(features=r.index.n_features),
    "crf.viterbi": lambda c, a, k, r: c.update(decoded_positions=len(r[0])),
    "identify.train_tree": lambda c, a, k, r: c.update(tree_rows=len(a[0])),
    "identify.extract_row": _count_extract,
    "features.story_decode_sequence": lambda c, a, k, r: c.update(observations=len(r)),
}


class Counts(Counter):
    def __init__(self):
        super().__init__()
        self.tfidf: dict[str, dict] = defaultdict(dict)


class Tracer:
    """Installs wrappers on scriptmap modules; `restore` takes them off."""

    def __init__(self, names: set[str] | None = None):
        """Wrap every public function, or only those in `names` ("layer.func")."""
        import scriptmap

        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts = Counts()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        mods = {m: getattr(scriptmap, m) for m in MODULES}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                public = not attr.startswith("_") and attr not in LEAF_HELPERS.get(layer, ())
                if not (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                        and public):
                    continue
                if names is None or name in names:
                    self._install(mods, fn, self._wrapper(name, fn))
        if names is None or "crf.minimize" in names:
            self._install(mods, mods["crf"].minimize,
                          self._wrapper("crf.minimize", mods["crf"].minimize))

    def _install(self, mods, original, wrapper):
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, fn):
        """Run fn() inside the root span; returns its result."""
        return self._wrapper(ROOT, fn)()

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path: str | Path):
        Path(path).write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        ))


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its direct children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def setup_seconds(spans) -> float:
    """Total duration of load spans not nested in another load span."""
    total = 0.0
    loads = set(LOADS)
    for name, start, end, parent in spans:
        if name in loads and (parent < 0 or spans[parent][0] not in loads):
            total += end - start
    return total


def layer_metrics(spans, counts: Counts) -> dict[str, float]:
    """Per-layer times and counts of one traced workload run."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    layer_self: dict[str, float] = defaultdict(float)
    for (name, start, end, _), self_s in zip(spans, own):
        total[name] += end - start
        calls[name] += 1
        layer_self[name.split(".")[0]] += self_s
    stories = max(counts["stories"], 1)
    evals = calls["crf.objective_and_gradient"]
    shares = [len(set(rows.values())) / len(rows) for rows in counts.tfidf.values() if rows]
    m = {
        "crf.objective_s": total["crf.objective_and_gradient"],
        "crf.objective_evals": evals,
        "crf.train_s": total["crf.train"],
        "crf.train_calls": calls["crf.train"],
        "crf.lbfgs_iterations": counts["lbfgs_iterations"],
        "crf.evals_per_iteration": evals / counts["lbfgs_iterations"]
        if counts["lbfgs_iterations"] else 0.0,
        "crf.viterbi_s": total["crf.viterbi"],
        "crf.viterbi_calls": calls["crf.viterbi"],
        "crf.decoded_positions": counts["decoded_positions"],
        "crf.load_model_s": total["crf.load_model"],
        "crf.features": counts["features"],
        "identify.load_tree_s": total["identify.load_tree"],
        "identify.train_tree_s": total["identify.train_tree"],
        "identify.train_tree_calls": calls["identify.train_tree"],
        "identify.tree_rows": counts["tree_rows"],
        "identify.extract_row_s": total["identify.extract_row"],
        "identify.extract_row_calls": calls["identify.extract_row"],
        "identify.rows_per_mention": calls["identify.extract_row"] / max(counts["mentions"], 1),
        "identify.classify_s": total["identify.classify"],
        "identify.classify_calls": calls["identify.classify"],
        "identify.tfidf_distinct_share": statistics.fmean(shares) if shares else 0.0,
        "features.esd_sequences_s": total["features.esd_training_sequences"],
        "features.esd_sequences_calls": calls["features.esd_training_sequences"],
        "features.decode_sequence_s": total["features.story_decode_sequence"],
        "features.observations": counts["observations"],
        "corpus.parse_s": total["corpus.parse_corpus_file"],
        "corpus.tokens": counts["tokens"],
        "corpus.mentions": counts["mentions"],
        "corpus.eds": counts["eds"],
        "corpus.resolve_s": total["corpus.resolve_pronouns"],
        "corpus.resolve_calls_per_story": calls["corpus.resolve_pronouns"] / stories,
        "corpus.write_s": total["corpus.with_predictions"] + total["corpus.serialize_corpus"],
        "embeddings.load_s": total["embeddings.load_embeddings"],
        "baselines.ed_index_s": total["baselines.build_ed_index"],
        "baselines.classify_s": total["baselines.overlap_classify"]
        + total["baselines.cosine_classify"],
    }
    for layer in MODULES:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.spans"] = len(spans)
    m["trace.unattributed_s"] = layer_self["bench"]
    return m


def top_layers(metrics: dict[str, float], n: int = 3) -> list[str]:
    ranked = sorted(MODULES, key=lambda layer: -metrics[f"{layer}.self_s"])
    return ranked[:n]
