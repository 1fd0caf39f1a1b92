"""Shared infrastructure for the per-figure benchmark harness.

Every benchmark regenerates one of the paper's tables or figures as a
plain-text table/series (Section 6 of the paper; see DESIGN.md's
experiment index).  Dataset sizes default to laptop scale and are
multiplied by the ``REPRO_BENCH_SCALE`` environment variable — the paper's
1M-record runs correspond to scale ~500.

Expensive linkage runs are cached per (method, family, scheme) so the
figure benchmarks that share a grid (9, 10, 11, 12) reuse each other's
work within one pytest session.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache

from repro.baselines import BfHLinker, HarraLinker, SMEBLinker
from repro.core.linker import CompactHammingLinker, LinkageResult
from repro.data import (
    DBLPGenerator,
    LinkageProblem,
    NCVRGenerator,
    build_linkage_problem,
    scheme_ph,
    scheme_pl,
)
from repro.evaluation.metrics import LinkageQuality, evaluate_linkage
from repro.rules.parser import parse_rule

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Base dataset size per side (records in A and in B).
BASE_N = 2000
#: SM-EB pays ~40 edit-distance computations per string per attribute, so
#: it runs on a smaller slice, as its absolute numbers only need to show
#: the paper's *relative* shape (slowest by a large margin).
SMEB_N = 400

NCVR_NAMES = ("FirstName", "LastName", "Address", "Town")
DBLP_NAMES = ("FirstName", "LastName", "Title", "Year")

#: Attribute-level K^(f_i) from Table 3 (f4 takes no part in the PH rule).
NCVR_K = {"FirstName": 5, "LastName": 5, "Address": 10}
DBLP_K = {"FirstName": 5, "LastName": 5, "Title": 12}

PH_RULE = {
    "ncvr": parse_rule("(FirstName<=4) & (LastName<=4) & (Address<=8)"),
    "dblp": parse_rule("(FirstName<=4) & (LastName<=4) & (Title<=8)"),
}

GENERATORS = {"ncvr": NCVRGenerator, "dblp": DBLPGenerator}
ATTRIBUTE_NAMES = {"ncvr": NCVR_NAMES, "dblp": DBLP_NAMES}
ATTRIBUTE_K = {"ncvr": NCVR_K, "dblp": DBLP_K}

#: Matching thresholds of Section 6.1 per method and scheme.
HARRA_THRESHOLD = {"pl": 0.35, "ph": 0.45}
HARRA_TABLES = {"pl": 30, "ph": 90}
BFH_THRESHOLDS = {
    "pl": {name: 45 for name in ("f1", "f2", "f3", "f4")},
    "ph": {"f1": 45, "f2": 45, "f3": 90},
}
SMEB_THRESHOLDS = {
    "pl": {name: 4.5 for name in ("f1", "f2", "f3", "f4")},
    "ph": {"f1": 4.5, "f2": 4.5, "f3": 7.7},
}


def scaled(n: int) -> int:
    return max(50, int(n * SCALE))


@lru_cache(maxsize=None)
def problem(family: str, scheme_name: str, n: int | None = None, seed: int = 7) -> LinkageProblem:
    """A cached linkage problem for one (family, scheme) cell."""
    scheme = scheme_pl() if scheme_name == "pl" else scheme_ph()
    n = scaled(BASE_N) if n is None else n
    return build_linkage_problem(GENERATORS[family](), n, scheme, seed=seed)


def make_linker(method: str, family: str, scheme_name: str, seed: int = 7):
    """Instantiate one of the four compared methods, paper-configured."""
    names = ATTRIBUTE_NAMES[family]
    if method == "cbv":
        if scheme_name == "pl":
            return CompactHammingLinker.record_level(threshold=4, k=30, seed=seed)
        return CompactHammingLinker.rule_aware(
            PH_RULE[family],
            k=ATTRIBUTE_K[family],
            attribute_names=names,
            seed=seed,
        )
    if method == "harra":
        # Exact MinHash (permutation_prefix=None): HARRA's PC loss here is
        # driven by early pruning against household/co-author duplicates;
        # the truncated-permutation artifact mainly wrecks RR via sentinel
        # mega-buckets and is exercised separately in the ablations.
        return HarraLinker(
            threshold=HARRA_THRESHOLD[scheme_name],
            k=5,
            n_tables=HARRA_TABLES[scheme_name],
            permutation_prefix=None,
            seed=seed,
        )
    if method == "bfh":
        thresholds = {
            names[int(f[1]) - 1]: value
            for f, value in BFH_THRESHOLDS[scheme_name].items()
        }
        return BfHLinker(thresholds, n_attributes=4, names=list(names), k=30, seed=seed)
    if method == "smeb":
        thresholds = {
            names[int(f[1]) - 1]: value
            for f, value in SMEB_THRESHOLDS[scheme_name].items()
        }
        return SMEBLinker(
            thresholds, n_attributes=4, names=list(names), d=10, pivot_sample=40, seed=seed
        )
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=None)
def run_method(
    method: str, family: str, scheme_name: str, seed: int = 7
) -> tuple[LinkageQuality, float, LinkageResult]:
    """Run one method on one problem cell; cached across benchmark files."""
    n = scaled(SMEB_N) if method == "smeb" else None
    prob = problem(family, scheme_name, n=n)
    linker = make_linker(method, family, scheme_name, seed=seed)
    start = time.perf_counter()
    result = linker.link(prob.dataset_a, prob.dataset_b)
    elapsed = time.perf_counter() - start
    quality = evaluate_linkage(
        result.matches, prob.true_matches, result.n_candidates, prob.comparison_space
    )
    return quality, elapsed, result


METHOD_LABELS = {
    "cbv": "cBV-HB",
    "harra": "HARRA",
    "bfh": "BfH",
    "smeb": "SM-EB",
}
ALL_METHODS = ("cbv", "harra", "bfh", "smeb")
