"""Classification rules: AST, parser, probability bounds, rule-aware blocking
and the lazy classifier of the matching step."""

from repro.rules.ast import (
    And,
    Comparison,
    Not,
    Or,
    Rule,
    RuleError,
    comparison,
    conjunction,
)
from repro.rules.blocking import RuleAwareBlocker, StructureInfo
from repro.rules.classify import classify_pairs
from repro.rules.derive import (
    DerivedThresholds,
    derive_thresholds,
    error_budget,
    operation_bit_cost,
)
from repro.rules.parser import parse_rule
from repro.rules.probability import (
    AttributeParams,
    attribute_success_probability,
    comparison_collision_probability,
    rule_collision_probability,
    rule_table_count,
)

__all__ = [
    "And",
    "AttributeParams",
    "Comparison",
    "DerivedThresholds",
    "derive_thresholds",
    "error_budget",
    "operation_bit_cost",
    "Not",
    "Or",
    "Rule",
    "RuleAwareBlocker",
    "RuleError",
    "StructureInfo",
    "attribute_success_probability",
    "classify_pairs",
    "comparison",
    "comparison_collision_probability",
    "conjunction",
    "parse_rule",
    "rule_collision_probability",
    "rule_table_count",
]
