"""Toolkit for generating, pruning, assembling, and scoring definition-driven
event-detection datasets."""

from .assembly import SliceSpec, TrainingInstance, render_instance
from .curation import (
    CurationReport,
    GeneratedSample,
    read_dataset,
    write_dataset,
)
from .errors import DivedError
from .evaluation import (
    GoldRecord,
    PredictionRecord,
    ScoreReport,
    drop_rate,
    match_and_score,
    parse_model_output,
)
from .llm_client import (
    Backend,
    GenRequest,
    GenResponse,
    HttpBackend,
    MockBackend,
    TemplateId,
    complete_batch,
    mock_generate,
    render,
)
from .ontology import (
    EventTypeNode,
    Ontology,
    filter_heldout,
    load_ontology,
    save_ontology,
)
from .pruning import OverlapRecord, overlap_ratio, prune_dataset, prune_tree

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "CurationReport",
    "DivedError",
    "EventTypeNode",
    "GenRequest",
    "GenResponse",
    "GeneratedSample",
    "GoldRecord",
    "HttpBackend",
    "MockBackend",
    "Ontology",
    "OverlapRecord",
    "PredictionRecord",
    "ScoreReport",
    "SliceSpec",
    "TemplateId",
    "TrainingInstance",
    "complete_batch",
    "drop_rate",
    "filter_heldout",
    "load_ontology",
    "match_and_score",
    "mock_generate",
    "overlap_ratio",
    "parse_model_output",
    "prune_dataset",
    "prune_tree",
    "read_dataset",
    "render",
    "render_instance",
    "save_ontology",
    "write_dataset",
]
