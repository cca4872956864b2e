"""Metric-based example selection and evaluation for in-context text
simplification."""

__version__ = "0.1.0"

from .corpus import Corpus, InstanceGroup, Sentence, load_jsonl, load_parallel, tokenize
from .metrics import (
    Metric,
    bertscore_precision,
    bleu_corpus,
    compression_ratio,
    sari_sentence,
)
from .selection import (
    Ordering,
    ScoredPair,
    kate_select,
    order_examples,
    random_select,
    score_pairs,
    select_top_k,
)
from .prompting import Prompt, PromptTemplate, build_prompt, parse_completion
from .llm import CompletionClient, GenerationParams, GenerationRecord, ResponseCache
from .evaluation import EvalReport, ExperimentConfig, evaluate, run_experiment

__all__ = [
    "Corpus",
    "InstanceGroup",
    "Sentence",
    "load_jsonl",
    "load_parallel",
    "tokenize",
    "Metric",
    "bertscore_precision",
    "bleu_corpus",
    "compression_ratio",
    "sari_sentence",
    "Ordering",
    "ScoredPair",
    "kate_select",
    "order_examples",
    "random_select",
    "score_pairs",
    "select_top_k",
    "Prompt",
    "PromptTemplate",
    "build_prompt",
    "parse_completion",
    "CompletionClient",
    "GenerationParams",
    "GenerationRecord",
    "ResponseCache",
    "EvalReport",
    "ExperimentConfig",
    "evaluate",
    "run_experiment",
]
