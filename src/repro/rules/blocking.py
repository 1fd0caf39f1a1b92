"""Attribute-level, rule-aware LSH blocking (Section 5.4).

The standard HB mechanism samples bits uniformly from the whole
record-level c-vector and is therefore blind to the classification rule
applied during matching.  The rule-aware blocker compiles the rule AST into
*blocking structures*:

* an **AND** group of comparisons becomes one structure whose composite
  keys concatenate ``K^(f_i)`` bits sampled *within each attribute's bit
  range*, with ``L`` from Equation (2) using the product bound
  (Definition 4) — e.g. L=178 for the paper's NCVR rule C1;
* an **OR** builds an independent structure per arm (``L x n_c`` hash
  tables), with the shared ``L`` from the inclusion-exclusion bound
  (Definition 5); a pair is formulated when it appears in *any* arm;
* a **NOT** keeps its child's structure unmodified — only the outcome is
  inverted ("we just change what we consider as a true outcome"): a pair
  passes when it is *not* formulated there.  NOT therefore cannot generate
  candidates and is only valid alongside a positive conjunct;
* compound rules (paper's C1-C3 compositions) nest these plans; AND over
  sub-plans intersects their formulated-pair sets, OR unions them.

After blocking, the matching step evaluates the *actual* rule on measured
per-attribute Hamming distances of the candidate pairs (Algorithm 2 with
the rule as the classification function) — lazily, see
:mod:`repro.rules.classify`.  :meth:`RuleAwareBlocker.match` does both over
row blocks of B (:func:`repro.hamming.lsh.match_blocks`, one byte budget):
a pair's membership in any plan depends on that pair alone, so a block's
set algebra is exact, and no array of the candidates' size is held.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.encoder import RecordEncoder
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.distance import decode_pairs
from repro.hamming.lsh import (
    BlockingGroup,
    CompositeHash,
    Located,
    TableRuns,
    match_blocks,
    sorted_unique,
)
from repro.rules.ast import And, Comparison, Not, Or, Rule, RuleError
from repro.rules.classify import PairClassifier
from repro.rules.probability import (
    AttributeParams,
    rule_collision_probability,
    rule_table_count,
)


@dataclass(frozen=True)
class StructureInfo:
    """Descriptive summary of one compiled blocking structure."""

    rule: str
    attributes: tuple[str, ...]
    n_tables: int
    collision_probability: float


class _Structure:
    """One blocking structure: ``L`` groups with compound attribute-level keys."""

    def __init__(
        self,
        comparisons: tuple[Comparison, ...],
        encoder: RecordEncoder,
        params: Mapping[str, AttributeParams],
        n_tables: int,
        rng: np.random.Generator,
    ):
        if not comparisons:
            raise RuleError("blocking structure needs at least one comparison")
        self.comparisons = comparisons
        composites = []
        for __ in range(n_tables):
            positions: list[int] = []
            for cmp in comparisons:
                layout = encoder.layout(cmp.attribute)
                k = params[cmp.attribute].k
                sampled = rng.integers(layout.offset, layout.stop, size=k)
                positions.extend(int(b) for b in sampled)
            composites.append(CompositeHash(tuple(positions)))
        self._tables = TableRuns(composites)

    @property
    def groups(self) -> list[BlockingGroup]:
        return self._tables.groups

    @property
    def n_tables(self) -> int:
        return self._tables.n_tables

    def index(self, matrix: BitMatrix) -> None:
        self._tables.index(matrix)

    def locate(self, matrix_b: BitMatrix) -> Located:
        """``matrix_b``'s matched buckets in every table, not yet expanded."""
        return self._tables.locate(self._tables.probe(matrix_b))

    def members(self, matrix_b: BitMatrix) -> np.ndarray:
        """Sorted unique encoded pairs ``a * n_B + b`` formulated in any table."""
        return _distinct([self.locate(matrix_b).expand()])


class _Block:
    """One block of B, located in every structure of a plan and expanded
    structure by structure as the plan asks (:meth:`pairs`)."""

    def __init__(self, structures: list[_Structure], matrix_b: BitMatrix):
        self._located = {structure: structure.locate(matrix_b) for structure in structures}
        self.n_pairs = sum(located.n_pairs for located in self._located.values())
        self.generated = 0  # raw pairs expanded so far

    def pairs(self, structure: _Structure) -> np.ndarray:
        """``structure``'s raw pairs in this block; its bucket arrays are let go."""
        located = self._located.pop(structure)
        self.generated += located.n_pairs
        return located.expand()


def _distinct(parts: list[np.ndarray]) -> np.ndarray:
    """The union of ``parts``, ascending and without repeats."""
    if not parts:
        return np.empty(0, dtype=np.int64)
    return sorted_unique(parts[0] if len(parts) == 1 else np.concatenate(parts))


def _contained(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Mask of the ``values`` present in ``members`` (ascending, no repeats).

    One binary search each: filtering a formulated-pair set by it —
    intersection, or difference with the mask inverted — leaves the set
    sorted and unique without hashing or re-sorting it.
    """
    if not members.size:
        return np.zeros(values.size, dtype=bool)
    slots = np.searchsorted(members, values)
    slots[slots == members.size] = 0
    return members[slots] == values


class _Plan:
    """Base class of compiled blocking plans, evaluated one block of B at a time.

    ``unique(block)`` returns the block's formulated pairs encoded
    ``a * n_B + b`` (``n_B`` the block's rows), ascending and without
    repeats.  ``parts(block)`` returns arrays whose union that is, in any
    order and with repeats: what a union above this node needs, so an OR of
    structures sorts all its arms' pairs once instead of every arm and then
    their union.  A pair's membership depends on that pair alone, so the
    set algebra of a block is exact.  ``members(matrix_b)`` is all of
    ``matrix_b`` as one block.
    """

    structures: list[_Structure]

    def parts(self, block: _Block) -> list[np.ndarray]:
        raise NotImplementedError

    def unique(self, block: _Block) -> np.ndarray:
        return _distinct(self.parts(block))

    def members(self, matrix_b: BitMatrix) -> np.ndarray:
        return self.unique(_Block(self.structures, matrix_b))


class _LeafPlan(_Plan):
    def __init__(self, structure: _Structure):
        self.structure = structure
        self.structures = [structure]

    def parts(self, block: _Block) -> list[np.ndarray]:
        return [block.pairs(self.structure)]


class _OrPlan(_Plan):
    def __init__(self, children: list[_Plan]):
        self.children = children
        self.structures = [s for child in children for s in child.structures]

    def parts(self, block: _Block) -> list[np.ndarray]:
        return [part for child in self.children for part in child.parts(block)]


class _AndPlan(_Plan):
    def __init__(self, positives: list[_Plan], negatives: list[_Plan]):
        if not positives:
            raise RuleError("a conjunction needs at least one positive (non-NOT) operand")
        self.positives = positives
        self.negatives = negatives
        self.structures = [
            s for plan in (*positives, *negatives) for s in plan.structures
        ]

    def parts(self, block: _Block) -> list[np.ndarray]:
        return [self.unique(block)]

    def unique(self, block: _Block) -> np.ndarray:
        out = self.positives[0].unique(block)
        for plan in self.positives[1:]:
            out = out.compress(_contained(out, plan.unique(block)))
        for plan in self.negatives:
            out = out.compress(~_contained(out, plan.unique(block)))
        return out


class RuleAwareBlocker:
    """Rule-aware attribute-level LSH blocking/matching (cBV-HB, Section 5.4).

    Parameters
    ----------
    rule:
        The classification rule (AST from :mod:`repro.rules.ast` or
        :func:`repro.rules.parser.parse_rule`).
    encoder:
        The calibrated :class:`~repro.core.encoder.RecordEncoder`; attribute
        names of the rule must match the encoder's.
    k:
        ``K^(f_i)`` per attribute appearing in the rule.
    delta:
        Miss probability for Equation (2).
    n_tables:
        Explicit per-structure table budget, overriding Equation (2) for
        the positive structures (NOT exclusion structures keep their
        Definition 6 sizing).  Used by equal-budget comparisons such as
        the Figure 6 benchmark.
    seed:
        Seed for sampling the base-hash bit positions.

    Examples
    --------
    >>> from repro.core.cvector import CVectorEncoder
    >>> from repro.rules.parser import parse_rule
    >>> enc = RecordEncoder([CVectorEncoder(15, seed=0), CVectorEncoder(15, seed=1),
    ...                      CVectorEncoder(68, seed=2)])
    >>> blocker = RuleAwareBlocker(parse_rule('(f1<=4) & (f2<=4) & (f3<=8)'),
    ...                            enc, k={'f1': 5, 'f2': 5, 'f3': 10}, seed=9)
    >>> blocker.total_tables
    178
    """

    def __init__(
        self,
        rule: Rule,
        encoder: RecordEncoder,
        k: Mapping[str, int],
        delta: float = 0.1,
        n_tables: int | None = None,
        seed: int | None = None,
    ):
        self.rule = rule
        self.encoder = encoder
        self.delta = delta
        self._n_tables_override = n_tables
        self.params: dict[str, AttributeParams] = {}
        for attribute in sorted(rule.attributes()):
            if attribute not in k:
                raise RuleError(f"no K supplied for attribute {attribute!r}")
            layout = encoder.layout(attribute)
            self.params[attribute] = AttributeParams(m=layout.width, k=k[attribute])
        for cmp in rule.comparisons():
            if cmp.threshold > encoder.layout(cmp.attribute).width:
                raise RuleError(
                    f"threshold {cmp.threshold} exceeds attribute width "
                    f"{encoder.layout(cmp.attribute).width} for {cmp.attribute!r}"
                )
        self._rng = np.random.default_rng(seed)
        self._infos: list[StructureInfo] = []
        self._plan = self._compile(rule)
        self._matrix_a: BitMatrix | None = None

    # -- compilation -----------------------------------------------------------

    def _build_structure(self, comparisons: tuple[Comparison, ...], n_tables: int) -> _LeafPlan:
        structure = _Structure(comparisons, self.encoder, self.params, n_tables, self._rng)
        sub_rule = comparisons[0] if len(comparisons) == 1 else And(comparisons)
        self._infos.append(
            StructureInfo(
                rule=str(sub_rule),
                attributes=tuple(cmp.attribute for cmp in comparisons),
                n_tables=n_tables,
                collision_probability=rule_collision_probability(sub_rule, self.params),
            )
        )
        return _LeafPlan(structure)

    def _compile(self, rule: Rule, n_tables: int | None = None) -> _Plan:
        """Compile ``rule`` into a plan.

        ``n_tables`` overrides Equation (2) for structures below an OR node
        (the OR's shared L, per Definition 5).
        """
        if n_tables is None:
            n_tables = self._n_tables_override
        if isinstance(rule, Comparison):
            tables = n_tables or rule_table_count(rule, self.params, self.delta)
            return self._build_structure((rule,), tables)
        if isinstance(rule, And):
            flat = _flatten_and(rule)
            comparisons = tuple(c for c in flat if isinstance(c, Comparison))
            others = [c for c in flat if isinstance(c, (Or, And))]
            nots = [c for c in flat if isinstance(c, Not)]
            positives: list[_Plan] = []
            if comparisons:
                sub_rule = comparisons[0] if len(comparisons) == 1 else And(comparisons)
                tables = n_tables or rule_table_count(sub_rule, self.params, self.delta)
                positives.append(self._build_structure(comparisons, tables))
            positives.extend(self._compile(child) for child in others)
            # Definition 6: a NOT operand keeps its child's (unmodified)
            # blocking structure, but its L comes from substituting
            # p_not = 1 - p_child into Equation (2) — a small number of
            # tables, which limits false exclusions of borderline pairs.
            negatives = [
                self._compile(
                    child.child,
                    n_tables=rule_table_count(child, self.params, self.delta),
                )
                for child in nots
            ]
            if not positives:
                raise RuleError(
                    "rule has no positive predicate to block on (NOT-only conjunction)"
                )
            if len(positives) == 1 and not negatives:
                return positives[0]
            return _AndPlan(positives, negatives)
        if isinstance(rule, Or):
            # Definition 5: one structure per arm, all sharing the OR's L.
            shared = n_tables or rule_table_count(rule, self.params, self.delta)
            children = [self._compile(child, n_tables=shared) for child in rule.children]
            return _OrPlan(children)
        if isinstance(rule, Not):
            raise RuleError(
                "a NOT operand cannot generate candidates on its own; "
                "combine it with a positive predicate via AND"
            )
        raise RuleError(f"unknown rule node {type(rule).__name__}")

    # -- public API ------------------------------------------------------------------

    @property
    def structures(self) -> list[StructureInfo]:
        """Summaries of the compiled blocking structures."""
        return list(self._infos)

    @property
    def total_tables(self) -> int:
        """Total number of hash tables across all structures."""
        return sum(info.n_tables for info in self._infos)

    def index(self, matrix_a: BitMatrix) -> None:
        """Hash dataset A's record-level c-vectors into every structure."""
        if matrix_a.n_bits != self.encoder.total_bits:
            raise RuleError(
                f"matrix width {matrix_a.n_bits} != encoder width {self.encoder.total_bits}"
            )
        for structure in self._plan.structures:
            structure.index(matrix_a)
        self._matrix_a = matrix_a

    def candidate_pairs(self, matrix_b: BitMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Formulated pairs according to the rule-aware plan semantics."""
        if self._matrix_a is None:
            raise RuleError("call index(matrix_a) before candidate_pairs")
        encoded = self._plan.members(matrix_b)
        rows_a, rows_b = np.divmod(encoded, matrix_b.n_rows)
        return rows_a, rows_b

    def match(
        self, matrix_b: BitMatrix, counters: dict[str, float] | None = None
    ) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """Block, then apply the classification rule to the formulated pairs.

        Runs over the row blocks of B that
        :func:`~repro.hamming.lsh.match_blocks` cuts from one byte budget:
        per block, every structure's probe and join, the plan's set algebra
        (exact within a block, since B blocks partition the pairs), then
        the lazy rule (:class:`~repro.rules.classify.PairClassifier`, one
        per link: an attribute is measured only on the pairs a predicate
        still has to decide).  Returns ``(rows_a, rows_b, distances)`` of
        the *accepted* pairs in ``a * n_B + b`` order, with ``distances``
        every attribute's distance array over exactly those pairs (``{}``
        when no pair was formulated).  ``counters`` receives
        ``pairs_generated`` (raw pairs of every structure),
        ``pairs_unique`` (the formulated pairs) and
        ``classify_distance_rows``.
        """
        if self._matrix_a is None:
            raise RuleError("call index(matrix_a) before match")
        matrix_a = self._matrix_a
        classifier = PairClassifier(self.rule, self.encoder, matrix_a, matrix_b)
        structures = self._plan.structures
        generated = formulated = 0

        def classified(lo: int, block: BitMatrix, located: _Block) -> tuple[np.ndarray, ...]:
            nonlocal generated, formulated
            rows_a, rows_b = decode_pairs(self._plan.unique(located), block.n_rows)
            generated += located.generated
            formulated += rows_a.size
            rows_b += lo
            keep = classifier.accepted(rows_a, rows_b)
            return rows_a[keep], rows_b[keep]

        out_a, out_b = match_blocks(
            matrix_b, self.total_tables, lambda block: _Block(structures, block), classified
        )
        if counters is not None:
            counters["pairs_generated"] = float(generated)
            counters["pairs_unique"] = float(formulated)
            counters["classify_distance_rows"] = float(classifier.rows_measured)
        if not formulated:
            return out_a, out_b, {}
        return out_a, out_b, self.encoder.attribute_distances(matrix_a, out_a, matrix_b, out_b)


def _flatten_and(rule: And) -> tuple[Rule, ...]:
    """Flatten nested ANDs: ``(a & b) & c -> (a, b, c)``."""
    out: list[Rule] = []
    for child in rule.children:
        if isinstance(child, And):
            out.extend(_flatten_and(child))
        else:
            out.append(child)
    return tuple(out)
