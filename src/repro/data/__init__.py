"""Synthetic dataset substrate (S6) reproducing the paper's Table II corpora.

Importing the package loads only the analytic names: the Table II
statistics (:data:`DATASET_STATS`, :class:`DatasetStats`), the suite
builder and the sequence-length distributions. The generators behind
the synthetic corpora (datasets, worlds, tokenizer and data loader)
resolve on first use through ``__getattr__`` (PEP 562), so a planner
that only reads dataset sizes never imports them. ``from repro.data
import DataLoader`` still works.
"""

import importlib

from .distributions import SeqLenDistribution, empirical_median
from .registry import DATASET_STATS, BenchmarkSuite, DatasetStats, build_benchmark_suite

#: Lazy name -> defining submodule: the synthetic-corpus generators.
_LAZY = {
    "Batch": ".dataloader",
    "DataLoader": ".dataloader",
    "collate": ".dataloader",
    "EvalDataset": ".datasets",
    "EvalItem": ".datasets",
    "IGNORE_INDEX": ".datasets",
    "Query": ".datasets",
    "SyntheticDataset": ".datasets",
    "build_commonsense15k": ".datasets",
    "build_gsm8k": ".datasets",
    "build_hellaswag": ".datasets",
    "build_math14k": ".datasets",
    "build_pretraining_corpus": ".datasets",
    "SPECIAL_TOKENS": ".tokenizer",
    "Vocabulary": ".tokenizer",
    "build_vocabulary": ".tokenizer",
    "ArithmeticWorld": ".world",
    "Fact": ".world",
    "KnowledgeWorld": ".world",
    "MathProblem": ".world",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name], __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "ArithmeticWorld",
    "Batch",
    "BenchmarkSuite",
    "DATASET_STATS",
    "DataLoader",
    "DatasetStats",
    "EvalDataset",
    "EvalItem",
    "Fact",
    "IGNORE_INDEX",
    "KnowledgeWorld",
    "MathProblem",
    "Query",
    "SPECIAL_TOKENS",
    "SeqLenDistribution",
    "SyntheticDataset",
    "Vocabulary",
    "build_benchmark_suite",
    "build_commonsense15k",
    "build_gsm8k",
    "build_hellaswag",
    "build_math14k",
    "build_pretraining_corpus",
    "build_vocabulary",
    "collate",
    "empirical_median",
]
