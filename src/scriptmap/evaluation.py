"""Confusion-matrix metrics, the system registry and the three protocols.

The system has two stages. An identifier decides which verb mentions are
script events; a classifier assigns event types to them. Every system is one
fit function and one predict function, chosen by name from IDENTIFIERS or
CLASSIFIERS, which also record what a system needs (ESDs, an embedding
table).

Identification runs k-fold cross-validation over each scenario's stories (or
leave-one-scenario-out in scenario-independent mode) and scores the binary
event class. Classification trains one model per scenario on its ESDs alone
and decodes the gold script-relevant mentions of that scenario's stories.
The pipeline chains both: mentions the identifier accepts are labeled by the
classifier; a mention counts as a true positive of type t only if it was
identified, labeled t, and gold-labeled t, while wrongly identified mentions
become false positives of their predicted type.

Each protocol takes a list of system names and returns one report per name.
One call groups the stories by scenario, builds the scenario statistics and
the fold plan, extracts each story's tree rows, codes them for the tree,
featurizes each scenario's ESDs and each story's decoded mentions once, and
bins the ESDs for the CRFs once; its systems share them, each fold's tree
trains from a view of the coded rows, and the pipeline's classifiers share
one identification pass. The classification and pipeline protocols fit
their (system, scenario) pairs in forked workers, one per usable CPU, and
decode in the parent; the outputs and the log are those of one process.

Metric conventions: precision/recall with zero denominators are 0; F1 is the
harmonic mean (0 when P + R = 0); macro averages run over event types within
a scenario, then over scenarios; fold counts are pooled into one confusion
matrix per scenario before computing P/R.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import threading
from collections import Counter
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

from . import baselines as baselines_mod
from . import crf as crf_mod
from . import features as features_mod
from . import identify as identify_mod
from .corpus import (
    EVENT,
    NON_SCRIPT,
    NON_SCRIPT_KINDS,
    EsdDocument,
    Story,
    collapse_label,
    group_by_scenario,
    leave_one_scenario_out,
    within_scenario_plan,
)
from .embeddings import DiscretizationConfig, EmbeddingTable

logger = logging.getLogger(__name__)


class ConfusionMatrix:
    """Gold-by-predicted counts; labels grow in first-appearance order."""

    def __init__(self, labels: Sequence[str] = ()):
        self.labels: list[str] = list(dict.fromkeys(labels))
        self._counts: Counter = Counter()

    def add(self, gold: str, pred: str, n: int = 1):
        for label in (gold, pred):
            if label not in self.labels:
                self.labels.append(label)
        self._counts[(gold, pred)] += n

    def count(self, gold: str, pred: str) -> int:
        return self._counts[(gold, pred)]

    def merge(self, other: "ConfusionMatrix"):
        for (gold, pred), n in other._counts.items():
            self.add(gold, pred, n)

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    @property
    def diagonal(self) -> int:
        return sum(n for (g, p), n in self._counts.items() if g == p)

    def gold_total(self, label: str) -> int:
        return sum(n for (g, _), n in self._counts.items() if g == label)

    def pred_total(self, label: str) -> int:
        return sum(n for (_, p), n in self._counts.items() if p == label)

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "counts": [[self._counts[(g, p)] for p in self.labels] for g in self.labels],
        }


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean; 0 when both components vanish."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def prf(cm: ConfusionMatrix, label: str) -> tuple[float, float, float]:
    """Precision, recall, F1 of one class; zero denominators give 0."""
    tp = cm.count(label, label)
    predicted = cm.pred_total(label)
    gold = cm.gold_total(label)
    precision = tp / predicted if predicted else 0.0
    recall = tp / gold if gold else 0.0
    return precision, recall, f1_score(precision, recall)


def micro_accuracy(cm: ConfusionMatrix) -> float:
    return cm.diagonal / cm.total if cm.total else 0.0


def macro_prf(cm: ConfusionMatrix, classes: Sequence[str]) -> tuple[float, float, float]:
    """Unweighted mean of per-class P/R/F1 over `classes`."""
    if not classes:
        return 0.0, 0.0, 0.0
    triples = [prf(cm, c) for c in classes]
    n = len(triples)
    return (
        sum(t[0] for t in triples) / n,
        sum(t[1] for t in triples) / n,
        sum(t[2] for t in triples) / n,
    )


@dataclass
class ScenarioResult:
    scenario: str
    confusion: ConfusionMatrix
    classes: list[str]
    precision: float
    recall: float
    f1: float
    micro_accuracy: float
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        per_class = {}
        for c in self.classes:
            p, r, f = prf(self.confusion, c)
            per_class[c] = {"precision": p, "recall": r, "f1": f}
        return {
            "scenario": self.scenario,
            "classes": per_class,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "micro_accuracy": self.micro_accuracy,
            "confusion": self.confusion.to_dict(),
            "notes": list(self.notes),
        }


@dataclass
class EvalReport:
    experiment: str
    system: str
    scenarios: list[ScenarioResult]
    precision: float
    recall: float
    f1: float
    micro_accuracy: float
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "system": self.system,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "micro_accuracy": self.micro_accuracy,
            "scenarios": [s.to_dict() for s in self.scenarios],
            "metadata": dict(self.metadata),
        }


def _scenario_event_classes(cm: ConfusionMatrix) -> list[str]:
    return [l for l in cm.labels if l != NON_SCRIPT]


def _finish_report(
    experiment: str,
    system: str,
    confusions: Mapping[str, ConfusionMatrix],
    notes: Mapping[str, list[str]],
    metadata: dict,
    classes_of: Callable[[ConfusionMatrix], list[str]] = _scenario_event_classes,
) -> EvalReport:
    """Assemble per-scenario results and the cross-scenario macro average."""
    results = []
    pooled = ConfusionMatrix()
    for scenario in sorted(confusions):
        cm = confusions[scenario]
        classes = classes_of(cm)
        p, r, f = macro_prf(cm, classes)
        results.append(
            ScenarioResult(
                scenario=scenario,
                confusion=cm,
                classes=classes,
                precision=p,
                recall=r,
                f1=f,
                micro_accuracy=micro_accuracy(cm),
                notes=list(notes.get(scenario, [])),
            )
        )
        pooled.merge(cm)
    n = len(results)
    return EvalReport(
        experiment=experiment,
        system=system,
        scenarios=results,
        precision=sum(r.precision for r in results) / n if n else 0.0,
        recall=sum(r.recall for r in results) / n if n else 0.0,
        f1=sum(r.f1 for r in results) / n if n else 0.0,
        micro_accuracy=micro_accuracy(pooled),
        metadata=metadata,
    )


@dataclass
class _Run:
    """What one protocol call computes once and all its systems share.

    Holds the stories by id and by scenario (id order), the ESDs by scenario
    with their statistics, featurization and CRF training sequences, each
    story's tree rows and their coded table, the featurization of each
    story's decoded mentions, and the settings the systems read.
    """

    story_list: InitVar[Sequence[Story]]
    esd_docs: Sequence[EsdDocument] | None
    scenario_specific: bool = True
    nonaction: frozenset[str] | None = None
    tree_config: identify_mod.TreeConfig | None = None
    table: EmbeddingTable | None = None
    disc: DiscretizationConfig | None = None
    train_config: crf_mod.TrainConfig | None = None

    def __post_init__(self, story_list: Sequence[Story]):
        self.stories: dict[str, Story] = {}
        for story in story_list:
            if story.doc_id in self.stories:
                raise ValueError(f"duplicate story id {story.doc_id!r}")
            self.stories[story.doc_id] = story
        self.by_scenario = {
            scenario: sorted(group, key=lambda s: s.doc_id)
            for scenario, group in sorted(group_by_scenario(self.stories.values()).items())
        }
        self.esd_docs = list(self.esd_docs or ())
        self.esds = group_by_scenario(self.esd_docs)
        self.disc = self.disc or DiscretizationConfig()
        self._rows: dict[str, list[identify_mod.TreeRow]] = {}
        self._mentions: dict[str, features_mod.UnitColumns] = {}

    @cached_property
    def script_esds(self) -> dict[str, list[EsdDocument]]:
        """The ESDs of each story scenario whose ESDs hold a script ED. The
        other scenarios are warned about here, once per call, and skipped."""
        usable = {}
        for scenario in self.by_scenario:
            docs = self.esds.get(scenario, [])
            if any(doc.script_eds() for doc in docs):
                usable[scenario] = docs
            elif docs:
                logger.warning("scenario %r has no script EDs; skipped", scenario)
            else:
                logger.warning("scenario %r has no ESDs; stories skipped", scenario)
        return usable

    @cached_property
    def esd_columns(self) -> dict[str, features_mod.UnitColumns]:
        """The featurized training EDs of each scenario in script_esds, built
        once for the cosine index and every CRF system."""
        return {
            scenario: features_mod.esd_columns(docs, self.table)
            for scenario, docs in self.script_esds.items()
        }

    @cached_property
    def crf_sequences(self) -> dict[str, crf_mod.CodedSequences]:
        """The CRF training sequences of each scenario in script_esds, built
        once for every CRF system. A scenario without a usable ED is warned
        about here, once per call, and left out."""
        return {
            scenario: features_mod.esd_training_sequences(self.esd_columns[scenario], self.disc)
            for scenario, docs in self.script_esds.items()
            if features_mod.has_training_eds(docs)
        }

    def mention_columns(self, story: Story, mentions) -> features_mod.UnitColumns:
        """The featurization of the mentions of `story` that the call decodes,
        built on the first system that reads them; every system of one call
        decodes the same mentions of a story."""
        if story.doc_id not in self._mentions:
            self._mentions[story.doc_id] = features_mod.mention_columns(mentions, self.table)
        return self._mentions[story.doc_id]

    @cached_property
    def stats(self) -> dict[str, features_mod.ScenarioStats]:
        return features_mod.build_scenario_stats(self.esd_docs) if self.esd_docs else {}

    def rows(self, story: Story) -> list[identify_mod.TreeRow]:
        if story.doc_id not in self._rows:
            stats = self.stats.get(story.scenario) if self.scenario_specific else None
            self._rows[story.doc_id] = identify_mod.story_rows(story, stats, self.nonaction)
        return self._rows[story.doc_id]

    @cached_property
    def _coded(self) -> tuple[identify_mod.CodedRows, dict[str, range]]:
        """Every story's tree rows in doc-id order, coded once for the tree,
        and each story's span of row indices; built on the first fit."""
        rows: list[identify_mod.TreeRow] = []
        spans = {}
        for doc_id in sorted(self.stories):
            start = len(rows)
            rows.extend(self.rows(self.stories[doc_id]))
            spans[doc_id] = range(start, len(rows))
        schema = identify_mod.row_schema(self.scenario_specific)
        return identify_mod.CodedRows(rows, schema), spans

    def rows_of(self, doc_ids: Sequence[str]) -> identify_mod.CodedRows:
        """A view of the coded tree rows of the stories `doc_ids`, in order."""
        coded, spans = self._coded
        return coded.subset(i for doc_id in doc_ids for i in spans[doc_id])


@dataclass(frozen=True)
class System:
    """One system of a stage, chosen by name from IDENTIFIERS or CLASSIFIERS.

    Identifiers: fit(rows, run) trains on a CodedRows view of the tree rows
    of a fold's training stories, or is None when the system learns nothing
    from stories; predict(model, run, story) labels each mention event or
    non_script.
    Classifiers: fit(esds, run) trains on one scenario's ESDs, which hold a
    script ED, and returns (model, training labels), or None when the ESDs
    leave nothing to train on; predict(model, run, story, mentions) gives
    each mention an event type. needs_sequences marks a fit that reads the
    run's CRF training sequences.
    """

    fit: Callable | None
    predict: Callable
    needs_table: bool = False
    needs_esds: bool = False
    needs_sequences: bool = False


def _fit_crf(esds, run: _Run, use_transitions: bool = True):
    sequences = run.crf_sequences.get(esds[0].scenario)
    if sequences is None:
        return None
    model = crf_mod.train(sequences, run.disc, run.train_config, use_transitions)
    return model, model.labels


def _fit_index(esds, run: _Run, columns: features_mod.UnitColumns | None = None):
    """The scenario's ED index and its event types in corpus order."""
    index = baselines_mod.build_ed_index(esds, columns)
    return index, index.labels


def _fit_oracle(esds, run: _Run):
    # The oracle learns no labels. Its model is the scenario's first event
    # type, given to identified mentions whose gold label is not an event type.
    return next(ed.event_type for doc in esds for ed in doc.script_eds()), ()


def _label_crf(model, run: _Run, story: Story, mentions):
    return features_mod.label_mentions(model, mentions, run.mention_columns(story, mentions))


IDENTIFIERS: dict[str, System] = {
    "tree": System(
        fit=lambda rows, run: identify_mod.train_tree(rows, run.tree_config),
        predict=lambda tree, run, story: [
            identify_mod.classify_binary(tree, attrs) for attrs, _ in run.rows(story)
        ],
    ),
    "lemma": System(
        fit=None,
        predict=lambda _, run, story: [
            baselines_mod.lemma_identify(m, run.stats[story.scenario].verb_lemmas)
            for m in story.mentions
        ],
        needs_esds=True,
    ),
    "oracle": System(
        fit=None,
        predict=lambda _, run, story: [collapse_label(m.gold_label) for m in story.mentions],
    ),
    "majority": System(
        fit=None, predict=lambda _, run, story: [NON_SCRIPT] * len(story.mentions)
    ),
}

CLASSIFIERS: dict[str, System] = {
    "crf": System(fit=_fit_crf, predict=_label_crf, needs_table=True, needs_sequences=True),
    "crf_noseq": System(
        fit=lambda esds, run: _fit_crf(esds, run, use_transitions=False),
        predict=_label_crf,
        needs_table=True,
        needs_sequences=True,
    ),
    "lemma": System(
        fit=_fit_index,
        predict=lambda index, run, story, mentions: baselines_mod.overlap_classify(
            mentions, index
        ),
    ),
    "cosine": System(
        fit=lambda esds, run: _fit_index(esds, run, run.esd_columns[esds[0].scenario]),
        predict=lambda index, run, story, mentions: baselines_mod.cosine_classify(
            mentions, index, run.mention_columns(story, mentions)
        ),
        needs_table=True,
    ),
    "oracle": System(
        fit=_fit_oracle,
        predict=lambda fallback, run, story, mentions: [
            m.gold_label if m.gold_label not in NON_SCRIPT_KINDS else fallback
            for m in mentions
        ],
    ),
}


class _KeptRecords(logging.Handler):
    """The records a worker process logs, kept to be sent to the parent: the
    message is formatted (with any exception text) and the arguments are
    dropped, so that every record pickles."""

    def __init__(self):
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord):
        record.msg = self.format(record)
        record.args = record.exc_info = record.exc_text = record.stack_info = None
        self.records.append(record)


# In a fit worker: the run and the (name, system, scenario) tasks, which
# reach the worker through the fork, and the records it logs.
_worker: tuple = ()


def _start_worker(run: _Run, tasks: list):
    global _worker
    kept = _KeptRecords()
    logging.getLogger().handlers = [kept]  # the parent writes the records out
    _worker = run, tasks, kept


def _fit_task(i: int) -> tuple[list[logging.LogRecord], object, Exception | None]:
    """What task i logged, its fit and the exception that stopped it."""
    run, tasks, kept = _worker
    _, system, scenario = tasks[i]
    kept.records = []
    try:
        fitted, error = system.fit(run.script_esds[scenario], run), None
    except Exception as exc:
        fitted, error = None, exc
    return kept.records, fitted, error


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fit_scenarios(
    run: _Run, selected: Sequence[tuple[str, System]]
) -> dict[tuple[str, str], object]:
    """system.fit(esds, run) of every selected system on the ESDs of every
    scenario in run.script_esds, by (name, scenario) in that order.

    The fits run in forked worker processes, one per usable CPU, and each
    worker reaches the run through the fork; only the fitted models are
    pickled. (A spawned worker would import scipy anew and need the run
    pickled, which costs more than the fits of a small corpus.) The parent
    builds what the fits read first, so each warning about a scenario fires
    once. A worker's log records and exception come back with its fit: the
    parent writes the records out in task order and raises the first
    exception, so the log and the failure are those of fitting one after
    another. With one CPU or one fit no process is started, nor in a process
    running other threads, which a fork does not copy.
    """
    script_esds = run.script_esds
    if any(system.needs_table for _, system in selected):
        run.esd_columns
    if any(system.needs_sequences for _, system in selected):
        run.crf_sequences
    tasks = [(name, system, scenario) for name, system in selected for scenario in script_esds]
    workers = min(_usable_cpus(), len(tasks)) if threading.active_count() == 1 else 1
    if workers < 2:
        return {(name, s): system.fit(script_esds[s], run) for name, system, s in tasks}
    with multiprocessing.get_context("fork").Pool(
        workers, initializer=_start_worker, initargs=(run, tasks)
    ) as pool:
        outcomes = pool.map(_fit_task, range(len(tasks)), chunksize=1)
    fitted = {}
    for (name, _, scenario), (records, model, error) in zip(tasks, outcomes):
        for record in records:
            logging.getLogger(record.name).handle(record)
        if error is not None:
            raise error
        fitted[name, scenario] = model
    return fitted


def select_systems(
    registry: Mapping[str, System], names: Sequence[str], what: str, has_table: bool
) -> list[tuple[str, System]]:
    """(name, system) pairs in request order, repeats dropped. ValueError for
    an unknown name, no name, or a system whose embedding table is missing."""
    if not names:
        raise ValueError(f"no {what} given; choose from {', '.join(registry)}")
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise ValueError(f"unknown {what} {unknown}; choose from {', '.join(registry)}")
    needing = [n for n in names if registry[n].needs_table]
    if needing and not has_table:
        raise ValueError(f"{what} {', '.join(needing)} needs an embedding table")
    return [(n, registry[n]) for n in dict.fromkeys(names)]


def reads_esds(system: System, scenario_independent: bool) -> bool:
    """Whether an identification system reads its scenarios' ESDs: for its
    lemma lists, or for the script features of scenario-specific trees."""
    return system.needs_esds or (system.fit is not None and not scenario_independent)


def _require_esds(run: _Run, what: str):
    missing = sorted(set(run.by_scenario) - set(run.esds))
    if missing:
        raise ValueError(f"{what} needs ESDs for scenarios {missing}")


def evaluate_identification(
    stories: Sequence[Story],
    esd_docs: Sequence[EsdDocument] | None = None,
    *,
    systems: Sequence[str] = ("tree",),
    k: int = 10,
    seed: int = 42,
    scenario_independent: bool = False,
    nonaction: frozenset[str] | None = None,
    tree_config: identify_mod.TreeConfig | None = None,
) -> list[EvalReport]:
    """Cross-validated binary identification scored on the event class, one
    report per system.

    Scenario-specific mode folds each scenario's stories separately and uses
    script features from that scenario's ESDs; scenario-independent mode
    leaves one scenario out at a time and drops the script features. Folds
    whose training rows hold a single class are skipped with a warning.
    """
    selected = select_systems(IDENTIFIERS, systems, "identification system", False)
    run = _Run(
        stories,
        esd_docs,
        scenario_specific=not scenario_independent,
        nonaction=nonaction if nonaction is not None else identify_mod.load_nonaction_list(),
        tree_config=tree_config,
    )
    for name, system in selected:
        if reads_esds(system, scenario_independent):
            _require_esds(run, f"identification system {name!r}")
    if scenario_independent:
        plan = leave_one_scenario_out(
            {s: [story.doc_id for story in group] for s, group in run.by_scenario.items()}
        )
    else:
        plan = within_scenario_plan(list(run.stories.values()), k, seed)
    reports = []
    for name, system in selected:
        confusions: dict[str, ConfusionMatrix] = {}
        notes: dict[str, list[str]] = {}
        skipped = 0
        for fold_idx, (train_ids, test_ids) in enumerate(plan.folds):
            model = None
            if system.fit is not None:
                rows = run.rows_of(train_ids)
                classes = rows.class_counts()
                if len(classes) < 2:
                    skipped += 1
                    logger.warning(
                        "fold %d: training rows contain %d class(es); fold skipped",
                        fold_idx,
                        len(classes),
                    )
                    for doc_id in test_ids:
                        notes.setdefault(run.stories[doc_id].scenario, []).append(
                            f"fold {fold_idx} skipped: single-class training data"
                        )
                    continue
                model = system.fit(rows, run)
            for doc_id in test_ids:
                story = run.stories[doc_id]
                cm = confusions.setdefault(story.scenario, ConfusionMatrix([EVENT, NON_SCRIPT]))
                for m, pred in zip(story.mentions, system.predict(model, run, story)):
                    cm.add(collapse_label(m.gold_label), pred)
        metadata = {
            "fold_kind": plan.kind,
            "k": k,
            "seed": seed,
            "scenario_independent": scenario_independent,
            "skipped_folds": skipped,
        }
        reports.append(
            _finish_report(
                "identification", name, confusions, notes, metadata, lambda cm: [EVENT]
            )
        )
    return reports


def evaluate_classification(
    esd_docs: Sequence[EsdDocument],
    stories: Sequence[Story],
    *,
    systems: Sequence[str] = ("crf",),
    table: EmbeddingTable | None = None,
    disc: DiscretizationConfig | None = None,
    train_config: crf_mod.TrainConfig | None = None,
) -> list[EvalReport]:
    """Event-type assignment for gold script-relevant mentions, one report
    per system.

    One model per scenario, trained on that scenario's ESDs only, decodes
    each story's script mentions as one sequence (crf), independently
    (crf_noseq), or via ED similarity (lemma/cosine). Scenarios without
    usable ESDs are skipped with a warning; gold event types absent from the
    training labels are flagged and count as unrecoverable misses.
    """
    selected = select_systems(CLASSIFIERS, systems, "classification system", table is not None)
    run = _Run(stories, esd_docs, table=table, disc=disc, train_config=train_config)
    metadata = {"epsilon": run.disc.epsilon, "l2": (train_config or crf_mod.TrainConfig()).l2}
    fits = _fit_scenarios(run, selected)
    reports = []
    for name, system in selected:
        confusions: dict[str, ConfusionMatrix] = {}
        notes: dict[str, list[str]] = {}
        for scenario in run.script_esds:
            fitted = fits[name, scenario]
            if fitted is None:
                continue
            model, training_labels = fitted
            cm = confusions.setdefault(scenario, ConfusionMatrix())
            unseen: set[str] = set()
            for story in run.by_scenario[scenario]:
                mentions = story.script_mentions()
                if not mentions:
                    continue
                for m, pred in zip(mentions, system.predict(model, run, story, mentions)):
                    cm.add(m.gold_label, pred)
                    # An untrained system (the oracle) has no training labels.
                    if training_labels and m.gold_label not in training_labels:
                        unseen.add(m.gold_label)
            if unseen:
                notes[scenario] = [
                    "gold event types absent from training: " + ", ".join(sorted(unseen))
                ]
        reports.append(_finish_report("classification", name, confusions, notes, metadata))
    return reports


def evaluate_pipeline(
    esd_docs: Sequence[EsdDocument],
    stories: Sequence[Story],
    *,
    identifier: str = "tree",
    classifiers: Sequence[str] = ("crf",),
    table: EmbeddingTable | None = None,
    disc: DiscretizationConfig | None = None,
    k: int = 10,
    seed: int = 42,
    nonaction: frozenset[str] | None = None,
    tree_config: identify_mod.TreeConfig | None = None,
    train_config: crf_mod.TrainConfig | None = None,
) -> list[EvalReport]:
    """End-to-end scoring over every labeled verb mention, one report per
    classifier.

    One identification pass serves every classifier. A trained identifier
    (the tree) decodes each story with the fold tree that held it out; a
    single-class fold yields a one-leaf tree. Mentions identified as events
    are labeled by the classifier; all mentions enter the confusion matrix,
    with non-script gold or predictions mapped to the reserved non_script
    class. Macro averages cover event types only. A scenario whose ESDs hold
    no script ED is skipped with a warning.
    """
    [(_, ident)] = select_systems(IDENTIFIERS, [identifier], "pipeline identifier", False)
    selected = select_systems(CLASSIFIERS, classifiers, "pipeline classifier", table is not None)
    run = _Run(
        stories,
        esd_docs,
        nonaction=nonaction if nonaction is not None else identify_mod.load_nonaction_list(),
        tree_config=tree_config,
        table=table,
        disc=disc,
        train_config=train_config,
    )
    _require_esds(run, "pipeline")

    # Stage 1: event or non_script for every mention, per story id. The folds
    # are planned for every identifier, so each k is checked the same way.
    identified: dict[str, list[str]] = {}
    for train_ids, test_ids in within_scenario_plan(list(run.stories.values()), k, seed).folds:
        model = None if ident.fit is None else ident.fit(run.rows_of(train_ids), run)
        for doc_id in test_ids:
            identified[doc_id] = ident.predict(model, run, run.stories[doc_id])

    # Stage 2: event types for the identified mentions, one model per scenario.
    metadata = {"identifier": identifier, "k": k, "seed": seed, "epsilon": run.disc.epsilon}
    fits = _fit_scenarios(run, selected)
    reports = []
    for name, system in selected:
        confusions: dict[str, ConfusionMatrix] = {}
        for scenario in run.script_esds:
            fitted = fits[name, scenario]
            if fitted is None:
                continue
            cm = confusions.setdefault(scenario, ConfusionMatrix())
            for story in run.by_scenario[scenario]:
                flags = identified[story.doc_id]
                accepted = [m for m, flag in zip(story.mentions, flags) if flag == EVENT]
                labels = iter(system.predict(fitted[0], run, story, accepted) if accepted else ())
                for m, flag in zip(story.mentions, flags):
                    gold = NON_SCRIPT if m.gold_label in NON_SCRIPT_KINDS else m.gold_label
                    cm.add(gold, next(labels) if flag == EVENT else NON_SCRIPT)
        reports.append(
            _finish_report(
                "pipeline",
                f"{identifier}+{name}",
                confusions,
                {},
                {**metadata, "classifier": name},
            )
        )
    return reports


def format_table(reports: Sequence[EvalReport]) -> str:
    """Fixed-width summary table, one row per system."""
    width = max([len("system")] + [len(r.system) for r in reports])
    lines = [f"{'system':<{width}}      P      R     F1    acc"]
    for r in reports:
        lines.append(
            f"{r.system:<{width}}  {r.precision:5.3f}  {r.recall:5.3f}"
            f"  {r.f1:5.3f}  {r.micro_accuracy:5.3f}"
        )
    return "\n".join(lines)
