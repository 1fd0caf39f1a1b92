"""repro — Efficient Record Linkage Using a Compact Hamming Space.

A faithful, self-contained reproduction of Karapiperis, Vatsalan, Verykios
and Christen (EDBT 2016): strings are embedded into a *compact* binary
Hamming space (c-vectors sized by Theorem 1), blocked and matched with the
Hamming LSH mechanism HB, optionally adapted to an AND/OR/NOT
classification rule (attribute-level blocking, Section 5.4).

Quickstart
----------
>>> from repro import CompactHammingLinker, NCVRGenerator, build_linkage_problem, scheme_pl
>>> problem = build_linkage_problem(NCVRGenerator(), 500, scheme_pl(), seed=1)
>>> linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=1)
>>> result = linker.link(problem.dataset_a, problem.dataset_b)
>>> found = result.matches & problem.true_matches
>>> len(found) / len(problem.true_matches) > 0.9
True
"""

from repro.core import (
    CVectorEncoder,
    CalibrationConfig,
    CompactHammingLinker,
    LinkageResult,
    QGramScheme,
    RecordEncoder,
    optimal_cvector_size,
    qgram_index,
)
from repro.data import (
    DBLPGenerator,
    Dataset,
    LinkageProblem,
    NCVRGenerator,
    Operation,
    Schema,
    build_linkage_problem,
    scheme_ph,
    scheme_pl,
)
from repro.evaluation import LinkageQuality, evaluate_linkage
from repro.hamming import BitMatrix, HammingLSH
from repro.rules import Comparison, Rule, RuleAwareBlocker, parse_rule

__version__ = "1.0.0"

__all__ = [
    "BitMatrix",
    "CVectorEncoder",
    "CalibrationConfig",
    "CompactHammingLinker",
    "Comparison",
    "DBLPGenerator",
    "Dataset",
    "HammingLSH",
    "LinkageProblem",
    "LinkageQuality",
    "LinkageResult",
    "NCVRGenerator",
    "Operation",
    "QGramScheme",
    "RecordEncoder",
    "Rule",
    "RuleAwareBlocker",
    "Schema",
    "build_linkage_problem",
    "evaluate_linkage",
    "optimal_cvector_size",
    "parse_rule",
    "qgram_index",
    "scheme_ph",
    "scheme_pl",
]
