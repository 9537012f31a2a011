"""scriptmap: map verb mentions in scenario-centered stories to script events.

Two-stage pipeline over dependency-annotated narrative text. A decision-tree
identifier decides which verbs take part in the activated script; a
linear-chain CRF, trained only on crowdsourced event sequence descriptions,
labels the identified verbs with scenario-specific event types. Submodules:

corpus      data model, column-file parsing (mentions with pronouns resolved), fold plans
embeddings  word-vector table, mention vectors, interval discretization
features    CRF observation columns, ESD training, epsilon tuning, scenario statistics
crf         linear-chain CRF: training, inference, model files
identify    script-relevant verb identifier (gain-ratio decision tree)
baselines   lemma-membership and ED-similarity reference systems
evaluation  confusion metrics, the system registry, the three protocols
cli         command-line front end (``scriptmap``, ``python -m scriptmap``)
"""

import importlib
import os

# One BLAS thread unless the caller set a count: with more, OpenBLAS splits
# the vector operations of L-BFGS, which changes the bits of a trained model
# and, at these sizes, makes training slower. numpy reads these variables
# when it is first imported, so this must come before any submodule.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from . import baselines, corpus, crf, embeddings, evaluation, features, identify

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


def __getattr__(name: str):
    # cli is imported on first use, not with the package: `python -m
    # scriptmap.cli` must find it unimported, or runpy warns on every run
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
