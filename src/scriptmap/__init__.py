"""scriptmap: map verb mentions in scenario-centered stories to script events.

Two-stage pipeline over dependency-annotated narrative text. A decision-tree
identifier decides which verbs take part in the activated script; a
linear-chain CRF, trained only on crowdsourced event sequence descriptions,
labels the identified verbs with scenario-specific event types. Submodules:

corpus      data model, column-file parsing, fold plans, pronoun resolution
embeddings  word-vector table, mention vectors, interval discretization
features    CRF observation columns, ESD training, epsilon tuning, scenario statistics
crf         linear-chain CRF: training, inference, model files
identify    script-relevant verb identifier (gain-ratio decision tree)
baselines   lemma-membership and ED-similarity reference systems
evaluation  confusion metrics, the system registry, the three protocols
cli         command-line front end (``scriptmap`` entry point)
"""

from . import baselines, cli, corpus, crf, embeddings, evaluation, features, identify

__version__ = "0.1.0"

__all__ = [
    "baselines",
    "cli",
    "corpus",
    "crf",
    "embeddings",
    "evaluation",
    "features",
    "identify",
    "__version__",
]
