"""The paper's Section 6 as one grid of cells: ``python benchmarks/paper.py``.

Every table and figure of the paper's evaluation, and the ablations and
extensions DESIGN.md adds beside them, is a list of cells.  A cell is keyed
by ``(figure, method, family, scheme, n, seed)`` plus the few parameters a
sweep varies (K, r, rho, L, window, prefix, pruning, ...); ``seed`` is the
data seed, and each figure's linkers take the fixed seed its runner names.
Running a cell gives:

* ``exact``: integer columns that repeat exactly per seed -- true matches
  found, matches, true pairs, ``n_candidates``, comparison space, and L and
  m̄ where the cell has them (the Jaro-Winkler cells add their tuned
  threshold and mean scores, floats that also repeat exactly);
* ``derived``: PC / PQ / RR (and accuracy, E[pairs]/table) from those
  columns;
* ``wall_s``: the clock of the cell's timed unit, an unjudged column.

Named checks then read the cells.  A ``gate`` is a paper shape this
reproduction asserts; a ``shape`` row is one that is reported, ``pass`` or
``deviation``, and never asserted (EXPERIMENTS.md "Known deviations").
``clock`` checks read ``wall_s``; the others read only exact columns.

The run writes ``BENCH_paper.json`` at the repository root and exits 1 when
a gated check fails or when any cell's ``exact`` columns differ from the
file that was there before, so an intended change is run, reviewed in the
diff, committed, and run again.  ``tests/test_paper_grid.py`` regenerates
the quick cells through :func:`run_cell` and compares them with the file.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time
from collections.abc import Callable, Sequence
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.baselines import BfHLinker, HarraLinker, SMEBLinker  # noqa: E402
from repro.baselines.bloom import BloomRecordEncoder  # noqa: E402
from repro.baselines.canopy import CanopyLinker  # noqa: E402
from repro.baselines.minhash import bigram_matrix  # noqa: E402
from repro.baselines.sorted_neighborhood import SortedNeighborhoodLinker  # noqa: E402
from repro.baselines.stringmap import StringMapEmbedder  # noqa: E402
from repro.core import cvector  # noqa: E402
from repro.core.config import CalibrationConfig  # noqa: E402
from repro.core.cvector import CVectorEncoder  # noqa: E402
from repro.core.encoder import RecordEncoder  # noqa: E402
from repro.core.linker import CompactHammingLinker  # noqa: E402
from repro.core.qgram import QGramScheme  # noqa: E402
from repro.core.sizing import optimal_cvector_size  # noqa: E402
from repro.data import (  # noqa: E402
    DBLPGenerator,
    LinkageProblem,
    NCVRGenerator,
    Operation,
    build_linkage_problem,
    scheme_ph,
    scheme_pl,
)
from repro.data.generators import EXPERIMENT_SCHEME  # noqa: E402
from repro.data.perturb import PerturbationScheme, apply_operation  # noqa: E402
from repro.data.quality import (  # noqa: E402
    CompositeScheme,
    MissingValueScheme,
    WordScrambleScheme,
)
from repro.evaluation.reporting import format_table  # noqa: E402
from repro.hamming.bitmatrix import scatter_bits  # noqa: E402
from repro.hamming.distance import jaccard_distance_sets  # noqa: E402
from repro.hamming.lsh import HammingLSH  # noqa: E402
from repro.rules.blocking import RuleAwareBlocker  # noqa: E402
from repro.rules.parser import parse_rule  # noqa: E402
from repro.text.alphabet import TEXT_ALPHABET, Alphabet  # noqa: E402
from repro.text.jaro import jaro_winkler_distance  # noqa: E402

OUT = ROOT / "BENCH_paper.json"

#: Records per side of the method grid; SM-EB runs on a smaller slice (its
#: pivot edit distances), since only its *relative* shape is compared.
BASE_N = 2000
SMEB_N = 400
#: The data seed of every cell built from the shared 2 000-a-side problems.
DATA_SEED = 7
#: The linker seed of every cell outside the method grid (Figs. 9-12).
LINK_SEED = 5

METHODS = ("cbv", "harra", "bfh", "smeb")
FAMILIES = ("ncvr", "dblp")
NAMES = {
    "ncvr": ("FirstName", "LastName", "Address", "Town"),
    "dblp": ("FirstName", "LastName", "Title", "Year"),
}
GENERATORS = {"ncvr": NCVRGenerator, "dblp": DBLPGenerator}
#: Attribute-level K^(f_i) from Table 3 (f4 takes no part in the PH rule).
ATTRIBUTE_K = {
    "ncvr": {"FirstName": 5, "LastName": 5, "Address": 10},
    "dblp": {"FirstName": 5, "LastName": 5, "Title": 12},
}
PH_RULE = {
    "ncvr": "(FirstName<=4) & (LastName<=4) & (Address<=8)",
    "dblp": "(FirstName<=4) & (LastName<=4) & (Title<=8)",
}
#: Matching thresholds of Section 6.1 per method and scheme (by f_i).
HARRA_THRESHOLD = {"pl": 0.35, "ph": 0.45}
HARRA_TABLES = {"pl": 30, "ph": 90}
BFH_THRESHOLDS = {"pl": (45, 45, 45, 45), "ph": (45, 45, 90)}
SMEB_THRESHOLDS = {"pl": (4.5, 4.5, 4.5, 4.5), "ph": (4.5, 4.5, 7.7)}

#: Figure 6's rules, and the record-level threshold a rule-blind HB must
#: assume for each (the largest total distance a satisfying pair can reach
#: on the constrained attributes; NOT contributes nothing it can bound).
FIG6_RULES = {
    "C1": (PH_RULE["ncvr"], 16),
    "C2": ("[(FirstName<=4) & (LastName<=4)] | (Address<=8)", 16),
    "C3": ("(FirstName<=4) & !(LastName<=4)", 4),
}
FIG6_BUDGETS = (5, 10, 20, 40)
FIG7_R = {"1/2": 1 / 2, "1/3": 1 / 3, "1/4": 1 / 4, "1/5": 1 / 5}
FIG8A_K = (10, 15, 20, 25, 30, 35, 40)
#: theta_PL = 4 and theta_PH = 16 (= 4 + 4 + 8): Section 6.2 sweeps one
#: record-level K for both schemes.
FIG8A_THRESHOLD = {"pl": 4, "ph": 16}
RHO_VALUES = (0.5, 1.0, 2.0, 4.0, 8.0)
SCALING_N = (500, 1000, 2000, 4000)
SELECTIVITY_K = (4, 8, 12, 16, 20, 25, 30, 35, 40)
PAPER_M_BAR = {"ncvr": 120, "dblp": 267}
MISSING_RULE = "(FirstName<=4) & (LastName<=4)"


class Cell(NamedTuple):
    """One grid cell: its key and the parameters its sweep varies."""

    figure: str
    method: str
    family: str
    scheme: str
    n: int
    seed: int
    params: tuple[tuple[str, object], ...] = ()

    @property
    def id(self) -> str:
        extra = "".join(f"/{name}={value}" for name, value in self.params)
        key = f"{self.figure}/{self.method}/{self.family}/{self.scheme}"
        return f"{key}/n={self.n}/seed={self.seed}{extra}"

    def param(self, name: str) -> object:
        return dict(self.params)[name]


def _grid() -> list[Cell]:
    ncvr = ("ncvr", "pl", BASE_N, DATA_SEED)
    cells = [Cell("table3", "theorem1", family, "none", BASE_N, 3) for family in FAMILIES]
    cells += [
        Cell("fig6", method, "ncvr", "ph", BASE_N, DATA_SEED, (("rule", rule), ("L", budget)))
        for rule in FIG6_RULES
        for budget in FIG6_BUDGETS
        for method in ("cbv-rule", "cbv-standard")
    ]
    cells += [Cell("fig7", "cbv", *ncvr, (("K", 35), ("r", r))) for r in FIG7_R]
    cells += [
        Cell("fig8a", "cbv", "ncvr", scheme, BASE_N, DATA_SEED, (("K", k),))
        for scheme in ("pl", "ph")
        for k in FIG8A_K
    ]
    cells += [
        Cell("fig8b", method, "ncvr", "pl", SMEB_N if method == "smeb" else BASE_N, DATA_SEED)
        for method in METHODS
    ]
    cells += [
        Cell("fig9-12", method, family, scheme, SMEB_N if method == "smeb" else BASE_N, DATA_SEED)
        for method in METHODS
        for family in FAMILIES
        for scheme in ("pl", "ph")
    ]
    fig11_schemes = [f"{scheme}:{op.value}" for scheme in ("pl", "ph") for op in Operation]
    cells += [
        Cell("fig11", method, "ncvr", scheme, 1500, 17 + i)
        for i, scheme in enumerate(fig11_schemes)
        for method in ("cbv", "harra", "bfh")
    ]
    cells += [Cell("ablation-vectors", method, *ncvr) for method in ("cbv", "full-qgram")]
    cells += [Cell("ablation-rho", "cbv", *ncvr, (("rho", rho),)) for rho in RHO_VALUES]
    cells += [
        Cell("ablation-padding", "cbv", *ncvr, (("padded", padded),)) for padded in (False, True)
    ]
    cells += [Cell("ablation-dedup", "cbv", *ncvr, (("K", 30),))]
    cells += [
        Cell("ablation-harra", "harra", *ncvr, (("prefix", prefix), ("pruning", pruning)))
        for prefix, pruning in ((None, True), (0.02, True), (0.02, False))
    ]
    classic = (
        ("cbv", ()),
        ("sorted-neighbourhood", (("window", 10), ("passes", 1))),
        ("sorted-neighbourhood", (("window", 10), ("passes", 3))),
        ("canopy", (("loose", 0.7), ("tight", 0.3))),
    )
    for problem_key in (ncvr, ("ncvr", "first-attr", 1000, 37)):
        cells += [Cell("classic", method, *problem_key, params) for method, params in classic]
    cells += [
        Cell("jaro-winkler", metric, "ncvr", "one-edit", 1500, 29)
        for metric in ("hamming", "jaro-winkler", "jaccard")
    ]
    cells += [
        Cell("missing", method, "ncvr", corruption, 1500, 23 + i)
        for i, corruption in enumerate(("pl", "pl+missing", "pl+scramble"))
        for method in ("cbv-rule", "cbv-record", "harra")
    ]
    cells += [Cell("scaling", "cbv", "ncvr", "pl", n, LINK_SEED) for n in SCALING_N]
    cells += [Cell("selectivity", "cbv", *ncvr, (("K", k),)) for k in SELECTIVITY_K]
    return cells


# -- data ------------------------------------------------------------------------


def _scheme(name: str) -> object:
    base, __, variant = name.partition(":")
    factory = {"pl": scheme_pl, "ph": scheme_ph}
    if variant:
        return factory[base](operations=[Operation(variant)])
    if name == "first-attr":
        return PerturbationScheme(name="first-attr", ops_per_attribute={0: 1})
    if name == "pl+missing":
        return CompositeScheme((scheme_pl(), MissingValueScheme(0.5, protect=(0, 1))))
    if name == "pl+scramble":
        return CompositeScheme((scheme_pl(), WordScrambleScheme(0.8)))
    return factory[name]()


@lru_cache(maxsize=None)
def problem(family: str, scheme: str, n: int, seed: int) -> LinkageProblem:
    """A cached linkage problem: cells of one figure share their data."""
    return build_linkage_problem(GENERATORS[family](), n, _scheme(scheme), seed=seed)


def _problem(cell: Cell) -> LinkageProblem:
    return problem(cell.family, cell.scheme, cell.n, cell.seed)


# -- columns ---------------------------------------------------------------------


def _quality(
    found: set[tuple[int, int]], truth: set[tuple[int, int]], n_candidates: int, space: int
) -> dict[str, int]:
    return {
        "true_found": len(found & truth),
        "matches": len(found),
        "true_pairs": len(truth),
        "n_candidates": int(n_candidates),
        "comparison_space": int(space),
    }


def derived(exact: dict[str, object]) -> dict[str, float]:
    """PC / PQ / RR (and the other ratios a cell has) from its exact columns."""
    out: dict[str, float] = {}
    if "true_pairs" in exact:
        found, truth = int(exact["true_found"]), int(exact["true_pairs"])
        candidates, space = int(exact["n_candidates"]), int(exact["comparison_space"])
        out["PC"] = found / truth if truth else 1.0
        out["PQ"] = found / candidates if candidates else 0.0
        out["RR"] = 1.0 - candidates / space
    if "pairs_scored" in exact:
        scored = int(exact["pairs_scored"])
        out["accuracy"] = int(exact["correct_at_best"]) / scored
        if "correct_at_4" in exact:
            out["accuracy_at_4"] = int(exact["correct_at_4"]) / scored
    if "bucket_size_sq_sum" in exact:
        # E[pairs] per table if a same-sized B had A's key distribution.
        out["pairs_per_table"] = int(exact["bucket_size_sq_sum"]) / int(exact["L"])
    return out


def _timed(fn: Callable[[], object]) -> tuple[object, float]:
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _tables(linker: object) -> int | None:
    """Equation (2)'s L of a linker after its link has calibrated it; None for
    the classic blockers, which have no hash tables."""
    if isinstance(linker, CompactHammingLinker):
        assert linker.encoder is not None
        blocker = linker._build_blocker(linker.encoder)
        if isinstance(blocker, RuleAwareBlocker):
            return blocker.total_tables
        return blocker.n_tables
    if isinstance(linker, HarraLinker):
        return linker.n_tables
    if isinstance(linker, (BfHLinker, SMEBLinker)):
        return linker.computed_n_tables
    return None


Result = tuple[dict[str, object], float]


def _link(linker: object, prob: LinkageProblem) -> Result:
    """Link one problem: its quality columns, L and m̄, and the link's wall."""
    result, wall = _timed(lambda: linker.link(prob.dataset_a, prob.dataset_b))
    exact: dict[str, object] = _quality(
        result.matches, prob.true_matches, result.n_candidates, prob.comparison_space
    )
    tables, encoder = _tables(linker), getattr(linker, "encoder", None)
    if tables is not None:
        exact["L"] = tables
    if encoder is not None:
        exact["m_bar"] = encoder.total_bits
    return exact, wall


def _method_linker(method: str, family: str, scheme: str, seed: int) -> object:
    """One of the four compared methods, configured as in Section 6.1."""
    names = NAMES[family]
    if method == "cbv":
        if scheme == "pl":
            return CompactHammingLinker.record_level(threshold=4, k=30, seed=seed)
        return CompactHammingLinker.rule_aware(
            parse_rule(PH_RULE[family]), k=ATTRIBUTE_K[family], attribute_names=names, seed=seed
        )
    if method == "harra":
        # Exact MinHash: HARRA's PC loss here comes from early pruning against
        # household / co-author duplicates (the truncated-permutation artifact
        # is the ablation-harra cells).
        return HarraLinker(
            threshold=HARRA_THRESHOLD[scheme],
            k=5,
            n_tables=HARRA_TABLES[scheme],
            permutation_prefix=None,
            seed=seed,
        )
    if method == "bfh":
        thresholds = dict(zip(names, BFH_THRESHOLDS[scheme]))
        return BfHLinker(thresholds, n_attributes=4, names=list(names), k=30, seed=seed)
    thresholds = dict(zip(names, SMEB_THRESHOLDS[scheme]))
    return SMEBLinker(
        thresholds, n_attributes=4, names=list(names), d=10, pivot_sample=40, seed=seed
    )


# -- runners, one per figure -------------------------------------------------------


def _run_table3(cell: Cell) -> Result:
    """Table 3: measured b^(f_i) (as q-gram totals), Theorem 1's m_opt, m̄."""
    dataset = GENERATORS[cell.family]().generate(cell.n, seed=cell.seed)
    exact: dict[str, object] = {}
    for spec in dataset.schema:
        grams = sum(spec.scheme.count(value) for value in dataset.column(spec.name))
        exact[f"{spec.name}.qgrams"] = grams
        exact[f"{spec.name}.m_opt"] = optimal_cvector_size(grams / len(dataset))
    exact["m_bar"] = sum(value for key, value in exact.items() if key.endswith(".m_opt"))
    rows = dataset.value_rows()
    # The timed unit: calibration (sampling + Theorem 1 sizing).
    calibrate = lambda: RecordEncoder.calibrated(rows[:1000], scheme=EXPERIMENT_SCHEME, seed=0)
    __, wall = _timed(calibrate)
    return exact, wall


@lru_cache(maxsize=None)
def _fig6_setup() -> tuple[LinkageProblem, RecordEncoder, object, object]:
    prob = problem("ncvr", "ph", BASE_N, DATA_SEED)
    rows_a, rows_b = prob.dataset_a.value_rows(), prob.dataset_b.value_rows()
    encoder = RecordEncoder.calibrated(
        rows_a[:1000], names=list(NAMES["ncvr"]), scheme=EXPERIMENT_SCHEME, seed=LINK_SEED
    )
    return prob, encoder, encoder.encode_dataset(rows_a), encoder.encode_dataset(rows_b)


@lru_cache(maxsize=None)
def _fig6_truth(rule_name: str) -> np.ndarray:
    """All pairs ``a * n_B + b`` whose embedded attribute distances satisfy the
    rule, ascending: Figure 6's ground truth (C3's NOT means these are not
    provenance twins)."""
    __, encoder, matrix_a, matrix_b = _fig6_setup()
    rule = parse_rule(FIG6_RULES[rule_name][0])
    n_a, n_b = matrix_a.n_rows, matrix_b.n_rows
    truth = []
    for start in range(0, n_a, 200):
        rows_a = np.repeat(np.arange(start, min(start + 200, n_a)), n_b)
        rows_b = np.tile(np.arange(n_b), rows_a.size // n_b)
        distances = encoder.attribute_distances(matrix_a, rows_a, matrix_b, rows_b)
        keep = np.asarray(rule.evaluate(distances))
        truth.append(rows_a[keep] * n_b + rows_b[keep])
    return np.concatenate(truth)


def _run_fig6(cell: Cell) -> Result:
    """Figure 6: rule-aware vs rule-blind record-level HB at one L budget."""
    prob, encoder, matrix_a, matrix_b = _fig6_setup()
    name, budget = str(cell.param("rule")), int(cell.param("L"))
    rule = parse_rule(FIG6_RULES[name][0])

    def rule_aware() -> tuple[np.ndarray, np.ndarray, int]:
        k = ATTRIBUTE_K["ncvr"]
        blocker = RuleAwareBlocker(rule, encoder, k=k, n_tables=budget, seed=LINK_SEED)
        blocker.index(matrix_a)
        counters: dict[str, float] = {}
        rows_a, rows_b, __ = blocker.match(matrix_b, counters)
        return rows_a, rows_b, int(counters["pairs_unique"])

    def standard() -> tuple[np.ndarray, np.ndarray, int]:
        threshold = FIG6_RULES[name][1]
        lsh = HammingLSH(
            n_bits=encoder.total_bits, k=20, threshold=threshold, n_tables=budget, seed=LINK_SEED
        )
        lsh.index(matrix_a)
        cand_a, cand_b = lsh.candidate_pairs(matrix_b)
        distances = encoder.attribute_distances(matrix_a, cand_a, matrix_b, cand_b)
        keep = np.asarray(rule.evaluate(distances))
        return cand_a[keep], cand_b[keep], int(cand_a.size)

    blocking = rule_aware if cell.method == "cbv-rule" else standard
    (rows_a, rows_b, n_candidates), wall = _timed(blocking)
    # Both blockers return distinct pairs, so counting encoded ids is exact.
    truth, found = _fig6_truth(name), rows_a * matrix_b.n_rows + rows_b
    hits = truth.take(np.searchsorted(truth, found), mode="clip") == found
    exact = {
        "true_found": int(hits.sum()),
        "matches": int(rows_a.size),
        "true_pairs": int(truth.size),
        "n_candidates": n_candidates,
        "comparison_space": prob.comparison_space,
    }
    return {**exact, "L": budget}, wall


def _record_linker(**options: object) -> CompactHammingLinker:
    return CompactHammingLinker.record_level(seed=LINK_SEED, **options)


def _run_fig7(cell: Cell) -> Result:
    """Figure 7: PC vs the confidence r of Theorem 1 at K = 35."""
    r = FIG7_R[str(cell.param("r"))]
    calibration = CalibrationConfig(rho=1.0, r=r, seed=LINK_SEED)
    linker = _record_linker(threshold=4, k=35, calibration=calibration)
    return _link(linker, _problem(cell))


def _run_fig8a(cell: Cell) -> Result:
    """Figure 8(a): record-level HB's run time as K varies."""
    threshold = FIG8A_THRESHOLD[cell.scheme]
    linker = _record_linker(threshold=threshold, k=int(cell.param("K")))
    return _link(linker, _problem(cell))


def _scatter_counts(embed: Callable[[], object]) -> dict[str, int]:
    """q-grams ``embed()`` tokenises and bit positions it scatters for them."""
    counted = {"grams": 0, "bits_written": 0}
    real_tokenise, real_scatter = cvector._tokenise, cvector.scatter_bits

    def tokenise(values: object, scheme: QGramScheme) -> tuple[np.ndarray, np.ndarray]:
        flat, counts = real_tokenise(values, scheme)
        counted["grams"] += int(flat.size)
        return flat, counts

    def scatter(n_rows: int, n_bits: int, rows: np.ndarray, bits: np.ndarray) -> object:
        counted["bits_written"] += int(rows.size)
        return real_scatter(n_rows, n_bits, rows, bits)

    with mock.patch.object(cvector, "_tokenise", tokenise):
        with mock.patch.object(cvector, "scatter_bits", scatter):
            embed()
    return counted


def _run_fig8b(cell: Cell) -> Result:
    """Figure 8(b): each method's embedding of the first ``n`` A rows of the
    2 000-a-side problem, on its own."""
    rows = problem(cell.family, cell.scheme, BASE_N, cell.seed).dataset_a.value_rows()[: cell.n]
    if cell.method == "smeb":

        def embed() -> None:
            for att in range(4):
                column = [row[att] for row in rows]
                StringMapEmbedder(d=10, pivot_sample=40, seed=att).fit_transform(column)

        __, wall = _timed(embed)
        return {"records": len(rows)}, wall
    if cell.method == "harra":
        scheme = QGramScheme(alphabet=TEXT_ALPHABET)
        embed = lambda: bigram_matrix(rows, scheme)
    elif cell.method == "cbv":
        encoder = RecordEncoder.calibrated(
            rows[:1000], names=list(NAMES["ncvr"]), scheme=EXPERIMENT_SCHEME, seed=1
        )
        embed = lambda: encoder.encode_dataset(rows)
    else:
        bloom = BloomRecordEncoder(4, names=list(NAMES["ncvr"]), scheme=EXPERIMENT_SCHEME)
        embed = lambda: bloom.encode_dataset(rows)
    __, wall = _timed(embed)
    return {"records": len(rows), **_scatter_counts(embed)}, wall


def _run_methods(cell: Cell) -> Result:
    """Figures 9, 10, 12(a) and 12(b): one method on one (family, scheme)."""
    linker = _method_linker(cell.method, cell.family, cell.scheme, seed=cell.seed)
    return _link(linker, _problem(cell))


def _run_fig11(cell: Cell) -> Result:
    """Figure 11: one method on a problem perturbed by one operation type."""
    base = cell.scheme.partition(":")[0]
    linker = _method_linker(cell.method, "ncvr", base, seed=LINK_SEED)
    return _link(linker, _problem(cell))


def _full_qgram_link(prob: LinkageProblem) -> Result:
    """Record-level full q-gram vectors (n_f * |S|^2 positions) through HB."""
    width = EXPERIMENT_SCHEME.space_size
    n_bits = 4 * width

    def embed(rows: Sequence[Sequence[str]]) -> object:
        r_idx, bits = [], []
        for i, row in enumerate(rows):
            for att, value in enumerate(row):
                for x in EXPERIMENT_SCHEME.index_set(value):
                    r_idx.append(i)
                    bits.append(att * width + x)
        index = (np.asarray(r_idx, dtype=np.int64), np.asarray(bits, dtype=np.int64))
        return scatter_bits(len(rows), n_bits, *index)

    def run() -> tuple[tuple[np.ndarray, ...], dict[str, float], int]:
        matrix_a = embed(prob.dataset_a.value_rows())
        matrix_b = embed(prob.dataset_b.value_rows())
        lsh = HammingLSH(n_bits=n_bits, k=30, threshold=4, seed=LINK_SEED)
        lsh.index(matrix_a)
        counters: dict[str, float] = {}
        return lsh.match(matrix_a, matrix_b, counters=counters), counters, lsh.n_tables

    ((rows_a, rows_b, __), counters, tables), wall = _timed(run)
    found = set(zip(rows_a.tolist(), rows_b.tolist()))
    n_candidates = int(counters["pairs_verified"])
    exact = _quality(found, prob.true_matches, n_candidates, prob.comparison_space)
    return {**exact, "L": tables, "m_bar": n_bits}, wall


def _run_ablation_vectors(cell: Cell) -> Result:
    """Section 5.2's motivation: compact c-vectors vs full q-gram vectors."""
    if cell.method == "full-qgram":
        return _full_qgram_link(_problem(cell))
    return _link(_record_linker(threshold=4, k=30), _problem(cell))


def _run_ablation_rho(cell: Cell) -> Result:
    """Theorem 1's collision budget rho: bigger rho, smaller vectors."""
    calibration = CalibrationConfig(rho=float(cell.param("rho")), r=1 / 3, seed=LINK_SEED)
    linker = _record_linker(threshold=4, k=30, calibration=calibration)
    return _link(linker, _problem(cell))


def _run_ablation_padding(cell: Cell) -> Result:
    """Footnote 4's padded q-grams, at the same theta = 4."""
    scheme = EXPERIMENT_SCHEME
    if cell.param("padded"):
        scheme = QGramScheme(alphabet=Alphabet(EXPERIMENT_SCHEME.alphabet.chars), padded=True)
    linker = _record_linker(threshold=4, k=30, scheme=scheme)
    return _link(linker, _problem(cell))


def _run_ablation_dedup(cell: Cell) -> Result:
    """Algorithm 2's UniqueCollection: raw pairs across the L groups vs distinct."""
    prob = _problem(cell)
    rows_a, rows_b = prob.dataset_a.value_rows(), prob.dataset_b.value_rows()
    encoder = RecordEncoder.calibrated(rows_a[:1000], scheme=EXPERIMENT_SCHEME, seed=LINK_SEED)
    matrix_a, matrix_b = encoder.encode_dataset(rows_a), encoder.encode_dataset(rows_b)
    lsh = HammingLSH(n_bits=encoder.total_bits, k=int(cell.param("K")), threshold=4, seed=LINK_SEED)
    lsh.index(matrix_a)
    counters: dict[str, float] = {}
    (unique_a, __), wall = _timed(lambda: lsh.candidate_pairs(matrix_b, counters))
    exact = {
        "pairs_generated": int(counters["pairs_generated"]),
        "n_candidates": int(unique_a.size),
        "L": lsh.n_tables,
        "m_bar": encoder.total_bits,
    }
    return exact, wall


def _run_ablation_harra(cell: Cell) -> Result:
    """HARRA's truncated permutations and its early pruning, one at a time."""
    linker = HarraLinker(
        threshold=0.35,
        n_tables=30,
        permutation_prefix=cell.param("prefix"),
        early_pruning=bool(cell.param("pruning")),
        seed=LINK_SEED,
    )
    return _link(linker, _problem(cell))


def _run_classic(cell: Cell) -> Result:
    """Section 2's classic blockers beside HB, all with Hamming verification."""
    options = dict(cell.params)
    if cell.method == "cbv":
        linker: object = _record_linker(threshold=4, k=30)
    elif cell.method == "canopy":
        linker = CanopyLinker(threshold=4, seed=LINK_SEED, **options)
    else:
        linker = SortedNeighborhoodLinker(threshold=4, seed=LINK_SEED, **options)
    return _link(linker, _problem(cell))


@lru_cache(maxsize=None)
def _name_pairs(n: int, seed: int) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """First names with one random edit (matches) and shuffled (non-matches)."""
    names = GENERATORS["ncvr"]().generate(n, seed=seed).column("FirstName")
    rng = np.random.default_rng(seed)
    matched = []
    for name in names:
        op = (Operation.SUBSTITUTE, Operation.INSERT, Operation.DELETE)[int(rng.integers(0, 3))]
        matched.append((name, apply_operation(name, op, EXPERIMENT_SCHEME.alphabet, rng)))
    shuffled = list(names)
    rng.shuffle(shuffled)
    return matched, [(a, b) for a, b in zip(names, shuffled) if a != b]


def _correct(scores_m: np.ndarray, scores_u: np.ndarray, threshold: float) -> int:
    return int((scores_m <= threshold).sum() + (scores_u > threshold).sum())


def _run_jaro_winkler(cell: Cell) -> Result:
    """Section 7's groundwork: each metric's best single cut-off on names."""
    matched, unmatched = _name_pairs(cell.n, cell.seed)
    if cell.method == "hamming":
        encoder = CVectorEncoder.calibrated(
            [a for a, __ in matched], scheme=EXPERIMENT_SCHEME, seed=cell.seed
        )
        score: Callable[[str, str], float] = lambda a, b: encoder.encode(a).hamming(
            encoder.encode(b)
        )
    elif cell.method == "jaro-winkler":
        score = jaro_winkler_distance
    else:
        index_set = EXPERIMENT_SCHEME.index_set
        score = lambda a, b: jaccard_distance_sets(index_set(a), index_set(b))

    def scores() -> tuple[np.ndarray, np.ndarray]:
        scored = ([score(a, b) for a, b in pairs] for pairs in (matched, unmatched))
        return tuple(np.asarray(values, dtype=float) for values in scored)

    (scores_m, scores_u), wall = _timed(scores)
    best, best_threshold = 0, 0.0
    for threshold in np.unique(np.concatenate([scores_m, scores_u])):
        correct = _correct(scores_m, scores_u, threshold)
        if correct > best:
            best, best_threshold = correct, float(threshold)
    exact: dict[str, object] = {
        "pairs_scored": int(scores_m.size + scores_u.size),
        "correct_at_best": best,
        "best_threshold": best_threshold,
        "mean_match": math.fsum(scores_m) / scores_m.size,
        "mean_nonmatch": math.fsum(scores_u) / scores_u.size,
    }
    if cell.method == "hamming":
        exact["correct_at_4"] = _correct(scores_m, scores_u, 4)
    return exact, wall


def _run_missing(cell: Cell) -> Result:
    """Section 7's missing / non-standardised values under PL typos."""
    if cell.method == "cbv-rule":
        linker: object = CompactHammingLinker.rule_aware(
            parse_rule(MISSING_RULE),
            k={"FirstName": 5, "LastName": 5},
            attribute_names=NAMES["ncvr"],
            seed=LINK_SEED,
        )
    elif cell.method == "cbv-record":
        linker = _record_linker(threshold=8, k=30)
    else:
        linker = HarraLinker(threshold=0.35, n_tables=30, seed=LINK_SEED)
    return _link(linker, _problem(cell))


def _run_scaling(cell: Cell) -> Result:
    """cBV-HB's run time and candidates as the dataset grows."""
    return _link(_record_linker(threshold=4, k=30), _problem(cell))


def _run_selectivity(cell: Cell) -> Result:
    """Section 4.2's overpopulated buckets: A's bucket landscape per K."""
    rows = _problem(cell).dataset_a.value_rows()
    encoder = RecordEncoder.calibrated(
        rows[:1000], names=list(NAMES["ncvr"]), scheme=EXPERIMENT_SCHEME, seed=LINK_SEED
    )
    matrix = encoder.encode_dataset(rows)
    lsh = HammingLSH(n_bits=matrix.n_bits, k=int(cell.param("K")), threshold=4, seed=LINK_SEED)
    __, wall = _timed(lambda: lsh.index(matrix))
    stats = lsh.stats()
    squares = sum(int(np.square(group.bucket_sizes()).sum()) for group in lsh.groups)
    exact = {
        "L": lsh.n_tables,
        "n_buckets": int(stats["n_buckets"]),
        "max_bucket": int(stats["max_bucket"]),
        "bucket_size_sq_sum": squares,
    }
    return exact, wall


RUNNERS: dict[str, Callable[[Cell], Result]] = {
    "table3": _run_table3,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8a": _run_fig8a,
    "fig8b": _run_fig8b,
    "fig9-12": _run_methods,
    "fig11": _run_fig11,
    "ablation-vectors": _run_ablation_vectors,
    "ablation-rho": _run_ablation_rho,
    "ablation-padding": _run_ablation_padding,
    "ablation-dedup": _run_ablation_dedup,
    "ablation-harra": _run_ablation_harra,
    "classic": _run_classic,
    "jaro-winkler": _run_jaro_winkler,
    "missing": _run_missing,
    "scaling": _run_scaling,
    "selectivity": _run_selectivity,
}

GRID = _grid()


def run_cell(cell: Cell) -> dict[str, object]:
    """One cell's row of ``BENCH_paper.json``."""
    exact, wall = RUNNERS[cell.figure](cell)
    return {
        "id": cell.id,
        **cell._asdict(),
        "params": dict(cell.params),
        "exact": exact,
        "derived": derived(exact),
        "wall_s": round(wall, 4),
    }


# -- named checks ------------------------------------------------------------------

Rows = Sequence[dict[str, object]]
Check = Callable[[Rows], tuple[bool, str]]
#: ``(name, kind, clock, check)``: kind ``gate`` (fails the run) or ``shape``
#: (a paper shape reported as ``pass`` / ``deviation``, never gated); a
#: ``clock`` check reads ``wall_s``, so tier-1 leaves it to the full run.
CHECKS: list[tuple[str, str, bool, Check]] = []


def check(name: str, kind: str = "gate", clock: bool = False) -> Callable[[Check], Check]:
    def register(fn: Check) -> Check:
        CHECKS.append((name, kind, clock, fn))
        return fn

    return register


def _get(rows: Rows, figure: str, column: str, **key: object) -> float:
    """``column`` (exact, derived or ``wall_s``) of the one row of ``figure``
    whose fields or params equal ``key``."""
    hits = [
        row
        for row in rows
        if row["figure"] == figure
        and all({**row, **row["params"]}.get(name) == value for name, value in key.items())
    ]
    assert len(hits) == 1, (figure, key, len(hits))
    row = hits[0]
    return float({**row["exact"], **row["derived"], "wall_s": row["wall_s"]}[column])


def _grid(rows: Rows, column: str, method: str, family: str = "ncvr", scheme: str = "pl") -> float:
    """A Figs. 9-12 cell's column (``wall_s`` per record)."""
    value = _get(rows, "fig9-12", column, method=method, family=family, scheme=scheme)
    return value / (SMEB_N if method == "smeb" else BASE_N) if column == "wall_s" else value


GRID_CELLS = [(family, scheme) for family in FAMILIES for scheme in ("pl", "ph")]


@check("table3.ncvr_m_bar_within_12_of_120")
def _(rows: Rows) -> tuple[bool, str]:
    m_bar = _get(rows, "table3", "m_bar", family="ncvr")
    return abs(m_bar - PAPER_M_BAR["ncvr"]) <= 12, f"m̄ = {m_bar:.0f}"


@check("table3.dblp_m_bar_within_20_of_267")
def _(rows: Rows) -> tuple[bool, str]:
    m_bar = _get(rows, "table3", "m_bar", family="dblp")
    return abs(m_bar - PAPER_M_BAR["dblp"]) <= 20, f"m̄ = {m_bar:.0f}"


def _fig6_gaps(rows: Rows, rule: str) -> list[float]:
    """PC of rule-aware minus rule-blind blocking at each L budget."""
    pc = lambda method, budget: _get(rows, "fig6", "PC", method=method, rule=rule, L=budget)
    return [pc("cbv-rule", b) - pc("cbv-standard", b) for b in FIG6_BUDGETS]


@check("fig6.or_and_not_rules_aware_beats_standard")
def _(rows: Rows) -> tuple[bool, str]:
    gap = min(_fig6_gaps(rows, "C2") + _fig6_gaps(rows, "C3"))
    return gap > 0, f"smallest PC gap (aware - standard) over C2, C3: {gap:.3f}"


@check("fig6.and_rule_aware_within_0.25_of_standard")
def _(rows: Rows) -> tuple[bool, str]:
    gap = min(_fig6_gaps(rows, "C1"))
    return gap >= -0.25, f"smallest C1 PC gap: {gap:.3f}"


@check("fig6.and_rule_aware_edge", kind="shape")
def _(rows: Rows) -> tuple[bool, str]:
    gap = min(_fig6_gaps(rows, "C1"))
    return gap > 0, f"paper: modest rule-aware edge on C1; smallest gap {gap:.3f}"


@check("fig7.r_one_third_within_0.01_of_smaller_r")
def _(rows: Rows) -> tuple[bool, str]:
    third = _get(rows, "fig7", "PC", r="1/3")
    best = max(_get(rows, "fig7", "PC", r=r) for r in ("1/4", "1/5"))
    return third >= best - 0.01, f"PC r=1/3 {third:.4f}, best of 1/4, 1/5 {best:.4f}"


@check("fig7.r_one_third_within_0.01_of_one_half")
def _(rows: Rows) -> tuple[bool, str]:
    third, half = (_get(rows, "fig7", "PC", r=r) for r in ("1/3", "1/2"))
    return third >= half - 0.01, f"PC r=1/3 {third:.4f}, r=1/2 {half:.4f}"


def _fig8a_times(rows: Rows, scheme: str) -> list[float]:
    return [_get(rows, "fig8a", "wall_s", scheme=scheme, K=k) for k in FIG8A_K]


@check("fig8a.interior_minimum", clock=True)
def _(rows: Rows) -> tuple[bool, str]:
    # K in {20, 25, 30} against the sweep's two ends.
    excess = {}
    for scheme in ("pl", "ph"):
        times = _fig8a_times(rows, scheme)
        excess[scheme] = round(min(times[2:5]) - max(times[0], times[-1]), 3)
    return max(excess.values()) <= 0.05, f"interior min - slower end (s): {excess}"


@check("fig8a.minimum_at_k30", kind="shape", clock=True)
def _(rows: Rows) -> tuple[bool, str]:
    argmin = {s: FIG8A_K[int(np.argmin(_fig8a_times(rows, s)))] for s in ("pl", "ph")}
    return set(argmin.values()) == {30}, f"paper: minimum near K = 30; here {argmin}"


def _embed_us(rows: Rows, method: str) -> float:
    n = SMEB_N if method == "smeb" else BASE_N
    return _get(rows, "fig8b", "wall_s", method=method) / n * 1e6


@check("fig8b.smeb_embeds_slower_than_bfh", clock=True)
def _(rows: Rows) -> tuple[bool, str]:
    smeb, bfh = _embed_us(rows, "smeb"), _embed_us(rows, "bfh")
    return smeb > bfh, f"us/record SM-EB {smeb:.1f}, BfH {bfh:.1f}"


@check("fig8b.bfh_embeds_slower_than_harra", clock=True)
def _(rows: Rows) -> tuple[bool, str]:
    bfh, harra = _embed_us(rows, "bfh"), _embed_us(rows, "harra")
    return bfh > harra, f"us/record BfH {bfh:.1f}, HARRA {harra:.1f}"


@check("fig8b.harra_embeds_fastest", kind="shape", clock=True)
def _(rows: Rows) -> tuple[bool, str]:
    fastest = min(METHODS, key=lambda method: _embed_us(rows, method))
    return fastest == "harra", f"paper: HARRA least; here {fastest}"


@check("fig9.cbv_pc_at_least_0.93")
def _(rows: Rows) -> tuple[bool, str]:
    low = min(_grid(rows, "PC", "cbv", f, s) for f, s in GRID_CELLS)
    return low >= 0.93, f"lowest cBV-HB PC {low:.3f}"


@check("fig9.cbv_pc_within_0.02_of_harra_and_smeb")
def _(rows: Rows) -> tuple[bool, str]:
    gap = min(
        _grid(rows, "PC", "cbv", f, s) - _grid(rows, "PC", other, f, s)
        for f, s in GRID_CELLS
        for other in ("harra", "smeb")
    )
    return gap >= -0.02, f"smallest PC gap over HARRA / SM-EB: {gap:.3f}"


@check("fig9.smeb_pc_lowest", kind="shape")
def _(rows: Rows) -> tuple[bool, str]:
    lowest = [
        f"{f}/{s}"
        for f, s in GRID_CELLS
        if _grid(rows, "PC", "smeb", f, s)
        <= min(_grid(rows, "PC", m, f, s) for m in ("cbv", "harra", "bfh"))
    ]
    detail = f"paper: SM-EB lowest PC; lowest on {lowest or 'no cell'}"
    return len(lowest) == len(GRID_CELLS), detail


@check("fig9.harra_pc_in_0.75_to_0.85", kind="shape")
def _(rows: Rows) -> tuple[bool, str]:
    pcs = [_grid(rows, "PC", "harra", f, s) for f, s in GRID_CELLS]
    return all(0.75 <= pc <= 0.85 for pc in pcs), f"HARRA PC {min(pcs):.3f}-{max(pcs):.3f}"


@check("fig10.smeb_pq_at_most_cbv_ncvr_pl")
def _(rows: Rows) -> tuple[bool, str]:
    # NCVR only: SM-EB's slice is smaller, so DBLP PQ is not size-comparable.
    smeb, cbv = _grid(rows, "PQ", "smeb"), _grid(rows, "PQ", "cbv")
    return smeb <= cbv + 1e-9, f"PQ SM-EB {smeb:.3g}, cBV-HB {cbv:.3g}"


@check("fig10.cbv_ph_pays_pq_for_pc")
def _(rows: Rows) -> tuple[bool, str]:
    ph, pl = _grid(rows, "PQ", "cbv", scheme="ph"), _grid(rows, "PQ", "cbv")
    return ph <= pl, f"cBV-HB PQ PH {ph:.3g}, PL {pl:.3g}"


@check("fig11.cbv_pc_at_least_0.93")
def _(rows: Rows) -> tuple[bool, str]:
    pcs = [
        float(row["derived"]["PC"])
        for row in rows
        if row["figure"] == "fig11" and row["method"] == "cbv"
    ]
    return min(pcs) >= 0.93, f"lowest cBV-HB PC over {len(pcs)} operation cells {min(pcs):.3f}"


@check("fig12a.cbv_rr_at_least_0.99")
def _(rows: Rows) -> tuple[bool, str]:
    rr = _grid(rows, "RR", "cbv")
    return rr >= 0.99, f"RR {rr:.4f}"


@check("fig12a.bfh_rr_at_least_0.99")
def _(rows: Rows) -> tuple[bool, str]:
    rr = _grid(rows, "RR", "bfh")
    return rr >= 0.99, f"RR {rr:.4f}"


@check("fig12a.smeb_rr_lowest")
def _(rows: Rows) -> tuple[bool, str]:
    smeb = _grid(rows, "RR", "smeb")
    others = min(_grid(rows, "RR", m) for m in ("cbv", "harra", "bfh"))
    return smeb <= others + 1e-9, f"RR SM-EB {smeb:.4f}, others >= {others:.4f}"


@check("fig12a.cbv_pc_within_0.02_of_bfh")
def _(rows: Rows) -> tuple[bool, str]:
    cbv, bfh = _grid(rows, "PC", "cbv"), _grid(rows, "PC", "bfh")
    return cbv >= bfh - 0.02, f"PC cBV-HB {cbv:.3f}, BfH {bfh:.3f}"


@check("fig12b.smeb_slowest_per_record", clock=True)
def _(rows: Rows) -> tuple[bool, str]:
    margins = {}
    for scheme in ("pl", "ph"):
        slowest = max(_grid(rows, "wall_s", m, scheme=scheme) for m in ("cbv", "harra", "bfh"))
        margins[scheme] = round(_grid(rows, "wall_s", "smeb", scheme=scheme) / slowest, 1)
    return min(margins.values()) > 1, f"SM-EB / slowest other, per record: {margins}"


@check("fig12b.cbv_ph_slower_than_pl", clock=True)
def _(rows: Rows) -> tuple[bool, str]:
    ph, pl = (_grid(rows, "wall_s", "cbv", scheme=s) * 1e3 for s in ("ph", "pl"))
    return ph > pl, f"ms/record PH {ph:.3f}, PL {pl:.3f}"


@check("ablation.compact_vectors_5x_smaller")
def _(rows: Rows) -> tuple[bool, str]:
    compact, full = (
        _get(rows, "ablation-vectors", "m_bar", method=m) for m in ("cbv", "full-qgram")
    )
    return compact * 5 < full, f"m̄ {compact:.0f} vs {full:.0f} bits"


@check("ablation.rho_1_within_0.01_of_rho_8")
def _(rows: Rows) -> tuple[bool, str]:
    one, eight = (_get(rows, "ablation-rho", "PC", rho=rho) for rho in (1.0, 8.0))
    return one >= eight - 0.01, f"PC rho=1 {one:.4f}, rho=8 {eight:.4f}"


@check("ablation.padded_vectors_larger")
def _(rows: Rows) -> tuple[bool, str]:
    plain, padded = (_get(rows, "ablation-padding", "m_bar", padded=p) for p in (False, True))
    return padded > plain, f"m̄ {plain:.0f} -> {padded:.0f}"


@check("ablation.padded_pc_at_least_0.9")
def _(rows: Rows) -> tuple[bool, str]:
    pc = _get(rows, "ablation-padding", "PC", padded=True)
    return pc >= 0.9, f"PC {pc:.4f}"


@check("ablation.dedup_removes_repeats")
def _(rows: Rows) -> tuple[bool, str]:
    raw, unique = (_get(rows, "ablation-dedup", c) for c in ("pairs_generated", "n_candidates"))
    return unique < raw, f"{raw:.0f} raw pairs, {unique:.0f} distinct"


@check("ablation.harra_prefix_formulates_more")
def _(rows: Rows) -> tuple[bool, str]:
    exact, prefix = (
        _get(rows, "ablation-harra", "n_candidates", prefix=p, pruning=True) for p in (None, 0.02)
    )
    return prefix >= exact, f"candidates exact MinHash {exact:.0f}, 2% prefix {prefix:.0f}"


@check("ablation.harra_no_pruning_pc_at_least_pruning")
def _(rows: Rows) -> tuple[bool, str]:
    on, off = (_get(rows, "ablation-harra", "PC", prefix=0.02, pruning=p) for p in (True, False))
    return off >= on, f"PC pruning {on:.4f}, no pruning {off:.4f}"


@check("classic.cbv_pc_at_least_0.93_on_key_typos")
def _(rows: Rows) -> tuple[bool, str]:
    pc = _get(rows, "classic", "PC", scheme="first-attr", method="cbv")
    return pc >= 0.93, f"PC {pc:.3f}"


@check("classic.single_pass_sn_below_cbv_on_key_typos")
def _(rows: Rows) -> tuple[bool, str]:
    key = {"scheme": "first-attr", "method": "sorted-neighbourhood", "passes": 1}
    sn = _get(rows, "classic", "PC", **key)
    cbv = _get(rows, "classic", "PC", scheme="first-attr", method="cbv")
    return sn < cbv, f"PC SN {sn:.3f}, cBV-HB {cbv:.3f}"


def _accuracy(rows: Rows, metric: str, column: str = "accuracy") -> float:
    return _get(rows, "jaro-winkler", column, method=metric)


@check("jaro-winkler.every_metric_accuracy_at_least_0.9")
def _(rows: Rows) -> tuple[bool, str]:
    accuracy = {m: _accuracy(rows, m) for m in ("hamming", "jaro-winkler", "jaccard")}
    detail = ", ".join(f"{m} {a:.4f}" for m, a in accuracy.items())
    return min(accuracy.values()) >= 0.9, detail


@check("jaro-winkler.hamming_theta_4_within_0.05_of_tuned")
def _(rows: Rows) -> tuple[bool, str]:
    at_4, best = _accuracy(rows, "hamming", "accuracy_at_4"), _accuracy(rows, "hamming")
    return at_4 >= best - 0.05, f"accuracy at 4 {at_4:.4f}, tuned {best:.4f}"


def _missing_pc(rows: Rows, scheme: str, method: str) -> float:
    return _get(rows, "missing", "PC", scheme=scheme, method=method)


@check("missing.rule_aware_within_0.05_of_clean")
def _(rows: Rows) -> tuple[bool, str]:
    pcs = {s: _missing_pc(rows, s, "cbv-rule") for s in ("pl", "pl+missing", "pl+scramble")}
    return min(pcs.values()) >= pcs["pl"] - 0.05, f"rule-aware PC {pcs}"


@check("missing.rule_aware_within_0.02_of_harra")
def _(rows: Rows) -> tuple[bool, str]:
    aware, harra = (_missing_pc(rows, "pl+missing", m) for m in ("cbv-rule", "harra"))
    return aware >= harra - 0.02, f"PC rule-aware {aware:.3f}, HARRA {harra:.3f}"


@check("missing.rule_aware_within_0.02_of_record_level")
def _(rows: Rows) -> tuple[bool, str]:
    aware, record = (_missing_pc(rows, "pl+missing", m) for m in ("cbv-rule", "cbv-record"))
    return aware >= record - 0.02, f"PC rule-aware {aware:.3f}, record-level {record:.3f}"


def _scaling_growth(rows: Rows, column: str) -> float:
    first, last = (_get(rows, "scaling", column, n=n) for n in (SCALING_N[0], SCALING_N[-1]))
    return last / max(first, 1e-9)


@check("scaling.time_grows_under_40x", clock=True)
def _(rows: Rows) -> tuple[bool, str]:
    growth = _scaling_growth(rows, "wall_s")
    return growth < 40, f"{growth:.1f}x for 8x the records"


@check("scaling.candidates_grow_under_32x")
def _(rows: Rows) -> tuple[bool, str]:
    growth = _scaling_growth(rows, "n_candidates")
    return growth < 32, f"{growth:.1f}x for 8x the records"


@check("scaling.pc_at_least_0.93")
def _(rows: Rows) -> tuple[bool, str]:
    low = min(_get(rows, "scaling", "PC", n=n) for n in SCALING_N)
    return low >= 0.93, f"lowest PC {low:.3f}"


def _selectivity_ends(rows: Rows, column: str) -> tuple[float, float]:
    ends = (SELECTIVITY_K[0], SELECTIVITY_K[-1])
    small, large = (_get(rows, "selectivity", column, K=k) for k in ends)
    return small, large


@check("selectivity.buckets_grow_with_k")
def _(rows: Rows) -> tuple[bool, str]:
    small, large = _selectivity_ends(rows, "n_buckets")
    return small < large, f"buckets K=4 {small:.0f}, K=40 {large:.0f}"


@check("selectivity.pairs_per_table_fall_with_k")
def _(rows: Rows) -> tuple[bool, str]:
    small, large = _selectivity_ends(rows, "pairs_per_table")
    return small > large, f"E[pairs]/table K=4 {small:.0f}, K=40 {large:.0f}"


@check("selectivity.largest_bucket_shrinks_with_k")
def _(rows: Rows) -> tuple[bool, str]:
    small, large = _selectivity_ends(rows, "max_bucket")
    return small > large, f"largest bucket K=4 {small:.0f}, K=40 {large:.0f}"


def evaluate_checks(rows: Rows, clock: bool = True) -> list[dict[str, object]]:
    """One row per named check (without the clock ones unless ``clock``): a
    gate ``pass`` / ``fail``, a shape ``pass`` / ``deviation``."""
    out = []
    for name, kind, reads_clock, fn in CHECKS:
        if clock or not reads_clock:
            ok, detail = fn(rows)
            status = "pass" if ok else ("fail" if kind == "gate" else "deviation")
            row = {"name": name, "kind": kind, "clock": reads_clock, "status": status}
            out.append({**row, "detail": detail})
    return out


# -- the run -----------------------------------------------------------------------


def _provenance() -> dict[str, object]:
    def git(*args: str) -> str:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return ""
        return done.stdout.strip()

    commit = git("rev-parse", "HEAD") or "unknown"
    dirty = git("status", "--porcelain", "--", "src", "benchmarks")
    return {
        "commit": commit + ("-dirty" if dirty else ""),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
    }


def _changed(rows: Rows, committed: dict[str, object]) -> list[str]:
    """Cells whose exact columns differ from the committed file, or that only
    one side has."""
    before = {row["id"]: row["exact"] for row in committed.get("cells", [])}
    now = {row["id"]: row["exact"] for row in rows}
    return sorted(key for key in before.keys() | now.keys() if before.get(key) != now.get(key))


def _dump(provenance: dict[str, object], cells: Rows, checks: Rows) -> str:
    """``BENCH_paper.json``, one line per cell and per check, so that a diff
    names the cells that moved."""
    lines = lambda items: ",\n".join(f"  {json.dumps(item)}" for item in items)
    body = f'"cells": [\n{lines(cells)}\n ],\n "checks": [\n{lines(checks)}\n ]'
    return f'{{\n "provenance": {json.dumps(provenance)},\n {body}\n}}\n'


def main() -> int:
    committed = json.loads(OUT.read_text()) if OUT.exists() else {}
    rows = []
    for cell in GRID:
        row = run_cell(cell)
        rows.append(row)
        quality = " ".join(f"{k}={v:.4g}" for k, v in row["derived"].items())
        print(f"{row['wall_s']:8.3f}s  {cell.id}  {quality}", flush=True)
    checks = evaluate_checks(rows)
    changed = _changed(rows, committed) if committed else []
    OUT.write_text(_dump(_provenance(), rows, checks))
    print(format_table(list(checks[0]), [list(c.values()) for c in checks]))
    for key in changed:
        print(f"changed from the committed file: {key}")
    failed = [c["name"] for c in checks if c["status"] == "fail"]
    print(f"{len(rows)} cells, {len(checks)} checks, {len(failed)} failed, {len(changed)} changed")
    return 1 if failed or changed else 0


if __name__ == "__main__":
    sys.exit(main())
