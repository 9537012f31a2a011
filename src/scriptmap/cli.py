"""Command line entry points for corpus validation, training, and evaluation.

Subcommands:

  validate        parse corpus files and report documents/scenarios/tokens
  train-identify  fit decision trees that find script-relevant verbs
  identify        apply saved trees; write a corpus with predicted labels
  train-map       fit per-scenario sequence models on ESDs
  map             decode event types for gold script mentions
  evaluate        run the identification / classification / pipeline protocols

The commands share the stage helpers of the evaluation protocols; `evaluate`
takes system names from evaluation's registries and scores them in one pass.
The library's readers take a file's text and its writers return text; this
module reads and writes the files, and prefixes a format error with the path.
Parsing a story file resolves its pronouns, so every command that reads
stories, `validate` too, warns once per story about a chain of pronouns alone.

Exit codes: 0 success, 1 usage error, 2 data or model format error,
3 numeric failure during optimization. Logs go to stderr; results go to
stdout or the requested output files. `--config FILE` (a JSON object or
key=value lines) may give any option of the command, required ones included:
each entry is parsed as `--key=value` ahead of the command line, which still
wins; unknown keys are warned about, and a bad entry exits 1 like a bad flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import random
import sys
from pathlib import Path
from typing import Sequence

from . import corpus as corpus_mod
from . import crf as crf_mod
from . import embeddings as embeddings_mod
from . import evaluation as evaluation_mod
from . import features as features_mod
from . import identify as identify_mod
from .corpus import EsdDocument, Story
from .crf import NumericError, TrainConfig
from .embeddings import DEFAULT_EPSILON_GRID, DiscretizationConfig
from .identify import TreeConfig

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

INDEPENDENT_TREE_FILE = "independent.tree.json"
MAPPING_CONFIG_FILE = "mapping_config.json"
LOG_LEVELS = ("debug", "info", "warning", "error")


class CliUsageError(Exception):
    """Bad command line or config input; mapped to exit code 1."""


class _ConfigFound(Exception):
    """Raised by the first `--config` of a parse; args[0] is the file's path."""


class _ConfigAction(argparse.Action):
    # The first --config stops the parse; the parser then puts the file's
    # options ahead of the command line and parses again with `config` set.
    def __call__(self, parser, namespace, values, option_string=None):
        if namespace.config is None:
            raise _ConfigFound(values)
        if values != namespace.config:
            parser.error("--config may be given only once")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1.
    def error(self, message):
        raise CliUsageError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        try:
            return super().parse_known_args(args, namespace)
        except _ConfigFound as found:
            path = found.args[0]
            tokens, unused = self._config_tokens(path)
            # main warns about the unused keys once logging is set up
            namespace = argparse.Namespace(config=path, unused_config_keys=unused)
            return super().parse_known_args([*tokens, *args], namespace)

    def _config_tokens(self, path: str) -> tuple[list[str], list[str]]:
        """The entries of a config file as `--key=value` tokens: `true` is the
        bare switch, `false` and `null` give nothing, a list is a comma list.
        Also returns the keys that the command does not take."""
        tokens, unused = [], []
        for key, value in _load_config_file(path).items():
            option = "--" + key.replace("_", "-")
            action = self._option_string_actions.get(option)
            if action is None or action.dest in ("help", "config"):
                unused.append(key)
            elif isinstance(value, dict):
                raise CliUsageError(f"{path}: {key}: expected a value or a list")
            elif value is True:
                tokens.append(option)
            elif value is not False and value is not None:
                if isinstance(value, list):
                    value = ",".join(map(str, value))
                tokens.append(f"{option}={value}")
        return tokens, unused


def _checked(convert, valid, need: str):
    """An option type: `convert` the text, then require `valid(value)`."""

    def check(text: str):
        try:
            value = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
        return value

    return check


def _epsilon_grid(text: str) -> list[float]:
    return [DiscretizationConfig(float(x)).epsilon for x in text.split(",") if x.strip()]


def _str_list(text: str) -> list[str]:
    return [x.strip() for x in text.split(",") if x.strip()]


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
        if text.lstrip().startswith("{"):
            return json.loads(text)
        data = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliUsageError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            value = value.strip()
            try:
                data[key.strip()] = json.loads(value)
            except json.JSONDecodeError:
                data[key.strip()] = value
        return data
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise CliUsageError(f"{path}: {exc}") from None


def _setup_logging(level_name: str):
    """Log to stderr at `level_name`. The handler of an earlier call is
    replaced; handlers that others put on the root logger stay."""
    root = logging.getLogger()
    for handler in [h for h in root.handlers if h.get_name() == __name__]:
        root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.set_name(__name__)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(handler)
    root.setLevel(getattr(logging, level_name.upper()))


def _load(path: str | Path, loader, *args):
    """`loader(text, *args)` on the text of the file at `path`. Every input
    file is read here, so that a content error names its file."""
    try:
        return loader(Path(path).read_text(encoding="utf-8"), *args)
    except ValueError as exc:  # the *FormatError classes, JSON and UTF-8 errors
        raise ValueError(f"{path}: {exc}") from exc


def _parse_stories(path: str) -> list[Story]:
    return _load(path, corpus_mod.parse_corpus_file, corpus_mod.KIND_STORY)


def _parse_esds(path: str) -> list[EsdDocument]:
    return _load(path, corpus_mod.parse_corpus_file, corpus_mod.KIND_ESD)


def _nonaction(args) -> frozenset[str]:
    if args.nonaction is None:
        return identify_mod.load_nonaction_list()
    return _load(args.nonaction, identify_mod.load_nonaction_list)


def _scenario_filename(scenario: str, suffix: str) -> str:
    if not scenario or any(c in scenario for c in "/\\") or scenario.startswith("."):
        raise ValueError(f"scenario id {scenario!r} is not usable as a file name")
    return f"{scenario}{suffix}"


def _write_text(path: str | Path, text: str):
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _tree_config(args) -> TreeConfig:
    return TreeConfig(
        min_instances=args.min_instances,
        confidence=args.confidence,
        prune=not args.no_prune,
    )


def _train_config(args) -> TrainConfig:
    return TrainConfig(l2=args.l2, max_iterations=args.max_iter)


# ---------------------------------------------------------------- commands


def cmd_validate(args) -> int:
    for path in args.paths:
        docs = _load(path, corpus_mod.parse_corpus_file, args.kind)
        stories = [d for d in docs if isinstance(d, Story)]
        esds = [d for d in docs if isinstance(d, EsdDocument)]
        scenarios = corpus_mod.collect_scenarios(docs)
        tokens = 0
        for doc in docs:
            blocks = doc.sentences if isinstance(doc, Story) else [e.tokens for e in doc.eds]
            tokens += sum(len(b) for b in blocks)
        print(
            f"{path}: {len(docs)} documents ({len(stories)} stories,"
            f" {len(esds)} ESD documents), {len(scenarios)} scenarios, {tokens} tokens"
        )
    print("OK")
    return EXIT_OK


def _identification_stats(args, scenarios) -> dict:
    """Statistics for the trees' script features by scenario; all None in
    scenario-independent mode."""
    if args.scenario_independent:
        return dict.fromkeys(scenarios)
    if not args.esds:
        raise CliUsageError("--esds is required unless --scenario-independent is set")
    stats = features_mod.build_scenario_stats(_parse_esds(args.esds))
    missing = sorted(set(scenarios) - set(stats))
    if missing:
        raise ValueError(f"no ESDs for scenario {missing[0]!r}")
    return stats


def _tree_file(args, scenario: str) -> str:
    if args.scenario_independent:
        return INDEPENDENT_TREE_FILE
    return _scenario_filename(scenario, ".tree.json")


def cmd_train_identify(args) -> int:
    stories = _parse_stories(args.stories)
    nonaction = _nonaction(args)
    tree_cfg = _tree_config(args)
    out_dir = Path(args.out_dir)
    stats = _identification_stats(args, {s.scenario for s in stories})
    if args.scenario_independent:
        groups = {"": stories}
    else:
        groups = corpus_mod.group_by_scenario(stories)
    schema = identify_mod.row_schema(not args.scenario_independent)
    for scenario, subset in sorted(groups.items()):
        rows = [
            row
            for s in subset
            for row in identify_mod.story_rows(s, stats[s.scenario], nonaction)
        ]
        target = out_dir / _tree_file(args, scenario)
        _write_text(target, identify_mod.save_tree(identify_mod.train_tree(rows, schema, tree_cfg)))
        print(f"wrote {target}")
    return EXIT_OK


def _write_predictions(path: str, stories: Sequence[Story], predict) -> list[str]:
    """Write the stories with the labels that `predict(story)` gives to the
    mentions it returns, as (mentions, labels); returns all labels given."""
    predictions = {}
    given: list[str] = []
    for story in stories:
        mentions, labels = predict(story)
        given += labels
        predictions[story.doc_id] = {
            (m.sentence, m.token_index): label for m, label in zip(mentions, labels)
        }
    _write_text(path, corpus_mod.serialize_corpus(stories, predictions))
    return given


def cmd_identify(args) -> int:
    stories = _parse_stories(args.stories)
    nonaction = _nonaction(args)
    model_dir = Path(args.model_dir)
    stats = _identification_stats(args, {s.scenario for s in stories})
    schema = identify_mod.row_schema(not args.scenario_independent)
    tree_for = functools.cache(
        lambda name: _load(model_dir / name, identify_mod.load_tree, schema)
    )

    def predict(story: Story):
        tree = tree_for(_tree_file(args, story.scenario))
        rows = identify_mod.story_rows(story, stats[story.scenario], nonaction)
        return story.mentions, [identify_mod.classify_binary(tree, a) for a, _ in rows]

    preds = _write_predictions(args.out, stories, predict)
    n_event = preds.count(corpus_mod.EVENT)
    print(f"wrote {args.out}: {n_event}/{len(preds)} mentions identified as events")
    return EXIT_OK


def _tuned_epsilon(args, scenario: str, docs, table, cfg) -> float | None:
    """Epsilon tuned on a seeded held-out split of one scenario's ESDs; None,
    with a warning, when the scenario has fewer than two ESDs."""
    if len(docs) < 2:
        logger.warning(
            "scenario %r has %d ESD(s); epsilon tuning needs at least 2", scenario, len(docs)
        )
        return None
    ordered = sorted(docs, key=lambda d: d.doc_id)
    random.Random(args.seed).shuffle(ordered)
    n_dev = min(max(1, round(args.dev_fraction * len(ordered))), len(ordered) - 1)
    return features_mod.tune_epsilon(
        ordered[n_dev:], ordered[:n_dev], args.grid, table, cfg, not args.no_seq
    )


def cmd_train_map(args) -> int:
    esds = _parse_esds(args.esds)
    table = _load(args.embeddings, embeddings_mod.load_embeddings)
    cfg = _train_config(args)
    use_transitions = not args.no_seq
    out_dir = Path(args.out_dir)
    eps_map: dict[str, float] = {}
    for scenario, docs in sorted(corpus_mod.group_by_scenario(esds).items()):
        eps = args.epsilon
        if args.tune:
            eps = _tuned_epsilon(args, scenario, docs, table, cfg) or eps
        model = features_mod.train_esd_crf(
            docs, table, DiscretizationConfig(epsilon=eps), cfg, use_transitions
        )
        if model is None:
            continue
        target = out_dir / _scenario_filename(scenario, ".crf.json")
        _write_text(target, crf_mod.save_model(model))
        eps_map[scenario] = eps
        print(f"wrote {target} (epsilon {eps:g}, {len(model.labels)} event types)")
    sidecar = out_dir / MAPPING_CONFIG_FILE
    _write_text(sidecar, _json_text({"epsilon": eps_map, "epsilon_default": args.epsilon}))
    print(f"wrote {sidecar}")
    return EXIT_OK


def _sidecar_binning(
    text: str, eps_default: float
) -> tuple[dict[str, DiscretizationConfig], DiscretizationConfig]:
    """The per-scenario binning of a model directory's sidecar, and the
    binning of scenarios it does not name."""
    try:
        payload = json.loads(text, parse_int=float)  # a huge integer becomes inf
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if isinstance(payload, dict):
        eps = payload.get("epsilon", {})
        eps_default = payload.get("epsilon_default", eps_default)
        values = [eps_default, *eps.values()] if isinstance(eps, dict) else [None]
        if all(type(v) is float for v in values):  # DiscretizationConfig checks the range
            return (
                {k: DiscretizationConfig(v) for k, v in eps.items()},
                DiscretizationConfig(eps_default),
            )
    raise ValueError(
        "'epsilon' must map scenario names to numbers and 'epsilon_default' must be a number"
    )


def cmd_map(args) -> int:
    stories = _parse_stories(args.stories)
    table = _load(args.embeddings, embeddings_mod.load_embeddings)
    model_dir = Path(args.model_dir)
    sidecar = model_dir / MAPPING_CONFIG_FILE
    disc_by_scenario, disc_default = (
        _load(sidecar, _sidecar_binning, args.epsilon) if sidecar.exists()
        else ({}, DiscretizationConfig(args.epsilon))
    )
    @functools.cache
    def model_for(scenario: str) -> crf_mod.CrfModel:
        path = model_dir / _scenario_filename(scenario, ".crf.json")
        model = _load(path, crf_mod.load_model)
        if model.index.n_columns != 3 + table.dimension:
            raise ValueError(
                f"{path}: model expects {model.index.n_columns - 3}-d vectors,"
                f" but {args.embeddings} has {table.dimension}-d vectors"
            )
        return model

    def predict(story: Story):
        mentions = story.script_mentions()
        if not mentions:
            return (), []
        disc = disc_by_scenario.get(story.scenario, disc_default)
        return mentions, features_mod.label_mentions(
            model_for(story.scenario), mentions, table, disc
        )

    preds = _write_predictions(args.out, stories, predict)
    print(f"wrote {args.out}: {len(preds)} mentions labeled")
    return EXIT_OK


def _evaluation_outputs(args, reports: list, config: dict, experiment: str) -> int:
    table = evaluation_mod.format_table(reports)
    print(table)
    if args.table_out:
        _write_text(args.table_out, table + "\n")
    if args.json_out:
        payload = {
            "experiment": experiment,
            "config": config,
            "systems": {r.system: r.to_dict() for r in reports},
        }
        _write_text(args.json_out, _json_text(payload))
    return EXIT_OK


def _check_systems(requested: Sequence[str], registry, what: str, has_table: bool = False):
    try:
        evaluation_mod.select_systems(registry, requested, what, has_table)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None


def cmd_evaluate_identification(args) -> int:
    _check_systems(args.systems, evaluation_mod.IDENTIFIERS, "system(s)")
    stories = _parse_stories(args.stories)
    esds = _parse_esds(args.esds) if args.esds else None
    reports = evaluation_mod.evaluate_identification(
        stories,
        esds,
        systems=args.systems,
        k=args.k,
        seed=args.seed,
        scenario_independent=args.scenario_independent,
        nonaction=_nonaction(args),
        tree_config=_tree_config(args),
    )
    config = {
        "stories": args.stories,
        "esds": args.esds,
        "k": args.k,
        "seed": args.seed,
        "scenario_independent": args.scenario_independent,
        "min_instances": args.min_instances,
        "confidence": args.confidence,
        "prune": not args.no_prune,
    }
    return _evaluation_outputs(args, reports, config, "identification")


def _classification_inputs(args, what: str):
    """Checked classifier names, then ESDs, stories, table and binning."""
    _check_systems(args.systems, evaluation_mod.CLASSIFIERS, what, bool(args.embeddings))
    esds = _parse_esds(args.esds)
    stories = _parse_stories(args.stories)
    table = _load(args.embeddings, embeddings_mod.load_embeddings) if args.embeddings else None
    return esds, stories, table, DiscretizationConfig(epsilon=args.epsilon)


def cmd_evaluate_classification(args) -> int:
    esds, stories, table, disc = _classification_inputs(args, "system(s)")
    reports = evaluation_mod.evaluate_classification(
        esds, stories, systems=args.systems, table=table, disc=disc,
        train_config=_train_config(args),
    )
    config = {
        "esds": args.esds,
        "stories": args.stories,
        "embeddings": args.embeddings,
        "epsilon": args.epsilon,
        "l2": args.l2,
        "max_iter": args.max_iter,
    }
    return _evaluation_outputs(args, reports, config, "classification")


def cmd_evaluate_pipeline(args) -> int:
    _check_systems([args.identifier], evaluation_mod.IDENTIFIERS, "identifier")
    esds, stories, table, disc = _classification_inputs(args, "classifier(s)")
    reports = evaluation_mod.evaluate_pipeline(
        esds,
        stories,
        identifier=args.identifier,
        classifiers=args.systems,
        table=table,
        disc=disc,
        k=args.k,
        seed=args.seed,
        nonaction=_nonaction(args),
        tree_config=_tree_config(args),
        train_config=_train_config(args),
    )
    config = {
        "esds": args.esds,
        "stories": args.stories,
        "embeddings": args.embeddings,
        "identifier": args.identifier,
        "epsilon": args.epsilon,
        "k": args.k,
        "seed": args.seed,
        "l2": args.l2,
        "max_iter": args.max_iter,
        "min_instances": args.min_instances,
        "confidence": args.confidence,
        "prune": not args.no_prune,
    }
    return _evaluation_outputs(args, reports, config, "pipeline")


# ----------------------------------------------------------------- parser


def _config_option(p: _Parser, flag: str, config_cls, field: str, help: str):
    """An option for one field of a config dataclass: the field's default and
    type, then the dataclass's own range check."""
    default = getattr(config_cls, field)

    def convert(text: str):
        value = type(default)(text)
        try:
            config_cls(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    convert.__name__ = type(default).__name__  # argparse's "invalid float value"
    p.add_argument(flag, type=convert, default=default, help=f"{help} (default %(default)s)")


def build_parser() -> _Parser:
    from . import __version__

    parser = _Parser(prog="scriptmap", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # parent parsers: each option is declared once and shared by the commands taking it
    (common, stories, esds, script_esds, table, embeddings, scope, nonaction, tree, epsilon,
     optimizer, seed, folds, report, predictions) = (
        _Parser(add_help=False) for _ in range(15))
    common.add_argument("--config", action=_ConfigAction,
                        help="JSON or key=value file of options")
    common.add_argument("--log-level", default="info", choices=LOG_LEVELS,
                        help="(default %(default)s)")
    stories.add_argument("--stories", required=True, help="story corpus")
    esds.add_argument("--esds", required=True, help="ESD corpus")
    script_esds.add_argument("--esds", help="ESD corpus for script features")
    table.add_argument("--embeddings", required=True, help="embedding table")
    embeddings.add_argument("--embeddings", help="embedding table for the vector systems")
    scope.add_argument("--scenario-independent", action="store_true",
                       help="one tree for all scenarios, without script features")
    nonaction.add_argument("--nonaction", help="file with one non-action verb lemma per line"
                                               " (default: the packaged list)")
    _config_option(tree, "--min-instances", TreeConfig, "min_instances",
                   "smallest node size the tree may still split")
    _config_option(tree, "--confidence", TreeConfig, "confidence", "pruning confidence")
    tree.add_argument("--no-prune", action="store_true", help="keep the unpruned tree")
    _config_option(epsilon, "--epsilon", DiscretizationConfig, "epsilon",
                   "discretization threshold; `map` uses it where the model directory"
                   " gives none")
    _config_option(optimizer, "--l2", TrainConfig, "l2", "L2 regularization strength")
    _config_option(optimizer, "--max-iter", TrainConfig, "max_iterations",
                   "optimizer iteration cap")
    seed.add_argument("--seed", type=int, default=42,
                      help="seed of the fold split or of the tuning split"
                           " (default %(default)s)")
    folds.add_argument("--k", type=_checked(int, lambda k: k >= 2, "at least 2 folds"), default=10,
                       help="folds per scenario (default %(default)s)")
    report.add_argument("--json-out", help="write the full report as JSON")
    report.add_argument("--table-out", help="write the summary table")
    predictions.add_argument("--out", required=True, help="output corpus with predictions")

    def command(subparsers, name: str, func, help: str, *parents: _Parser) -> _Parser:
        p = subparsers.add_parser(name, parents=[common, *parents], help=help)
        p.set_defaults(func=func)
        return p

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    p = command(sub, "validate", cmd_validate,
                "check corpus files and summarize their contents")
    p.add_argument("paths", nargs="+", metavar="CORPUS")
    p.add_argument("--kind", choices=[corpus_mod.KIND_STORY, corpus_mod.KIND_ESD],
                   help="require every document to have this kind")

    p = command(sub, "train-identify", cmd_train_identify,
                "train decision trees that find script-relevant verbs",
                stories, script_esds, scope, nonaction, tree)
    p.add_argument("--out-dir", required=True, help="directory for tree files")

    p = command(sub, "identify", cmd_identify, "label verb mentions with saved trees",
                stories, script_esds, scope, nonaction, predictions)
    p.add_argument("--model-dir", required=True, help="directory of tree files")

    p = command(sub, "train-map", cmd_train_map,
                "train per-scenario event-type sequence models",
                esds, table, epsilon, optimizer, seed)
    p.add_argument("--out-dir", required=True, help="directory for model files")
    p.add_argument("--no-seq", action="store_true",
                   help="drop transition features (independent labeling)")
    p.add_argument("--tune", action="store_true",
                   help="tune epsilon per scenario on a held-out ESD split")
    p.add_argument("--grid", type=_checked(_epsilon_grid, bool, "at least one epsilon"),
                   default=",".join(map(str, DEFAULT_EPSILON_GRID)),
                   help="comma-separated epsilon candidates (default %(default)s)")
    p.add_argument("--dev-fraction", default=0.1,
                   type=_checked(float, lambda f: 0 < f < 1, "a fraction in (0, 1)"),
                   help="held-out fraction for tuning (default %(default)s)")

    p = command(sub, "map", cmd_map, "assign event types to gold script mentions",
                stories, table, epsilon, predictions)
    p.add_argument("--model-dir", required=True, help="directory of model files")

    p = sub.add_parser("evaluate", help="run an experiment protocol")
    esub = p.add_subparsers(dest="protocol", required=True, metavar="PROTOCOL")
    p = command(esub, "identification", cmd_evaluate_identification,
                "cross-validated binary identification",
                stories, script_esds, scope, nonaction, tree, folds, seed, report)
    p.add_argument("--systems", type=_str_list, default="lemma,tree",
                   help=f"comma list of {','.join(evaluation_mod.IDENTIFIERS)}"
                        " (default %(default)s)")

    p = command(esub, "classification", cmd_evaluate_classification,
                "event types for gold script mentions",
                esds, stories, embeddings, epsilon, optimizer, report)
    p.add_argument("--systems", type=_str_list, default="lemma,cosine,crf,crf_noseq",
                   help=f"comma list of {','.join(evaluation_mod.CLASSIFIERS)}"
                        " (default %(default)s)")

    p = command(esub, "pipeline", cmd_evaluate_pipeline,
                "end-to-end identification plus labeling", esds, stories, embeddings,
                nonaction, tree, epsilon, optimizer, folds, seed, report)
    p.add_argument("--identifier", default="tree",
                   help=f"one of {','.join(evaluation_mod.IDENTIFIERS)} (default %(default)s)")
    p.add_argument("--systems", type=_str_list, default="lemma,cosine,crf",
                   help="comma list of classifiers (default %(default)s)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _setup_logging(args.log_level)
        for key in getattr(args, "unused_config_keys", ()):
            logger.warning("config key %r is not used by this command", key)
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        logger.error("numeric failure: %s", exc)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:  # the *FormatError classes are ValueErrors
        logger.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
