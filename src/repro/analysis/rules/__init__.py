"""Rule plugins for reprolint.

Importing this package registers every rule with
:class:`repro.analysis.engine.Rule` /
:class:`repro.analysis.engine.ProjectRule`; the engine discovers them
through ``Rule.registered()`` and ``ProjectRule.registered()``.

Per-file rules (phase 1, one AST at a time):

========  =============================================  =======================
Rule id   Module                                         Guards
========  =============================================  =======================
RL001     :mod:`repro.analysis.rules.randomness`         determinism (seeds)
RL002     :mod:`repro.analysis.rules.dynamic_exec`       no ``eval``/``exec``
RL003     :mod:`repro.analysis.rules.float_equality`     probability comparisons
RL004     :mod:`repro.analysis.rules.annotations`        public API typing
RL005     :mod:`repro.analysis.rules.mutable_defaults`   call-to-call isolation
RL006     :mod:`repro.analysis.rules.print_calls`        output via reporting
========  =============================================  =======================

Whole-program rules (phase 2, over the
:class:`~repro.analysis.project.ProjectModel`):

========  =============================================  =======================
Rule id   Module                                         Guards
========  =============================================  =======================
RL101     :mod:`repro.analysis.rules.architecture`       no import cycles
RL102     :mod:`repro.analysis.rules.architecture`       layering contract
RL105     :mod:`repro.analysis.rules.seeding`            seed propagation
========  =============================================  =======================

Flow-sensitive rules (phase 3, one CFG + dataflow fixpoint per
function; see :mod:`repro.analysis.cfg` / :mod:`repro.analysis.dataflow`):

========  =============================================  =======================
Rule id   Module                                         Guards
========  =============================================  =======================
RL201     :mod:`repro.analysis.rules.resource_lifetime`  handles closed on all paths
RL202     :mod:`repro.analysis.rules.dtype_discipline`   packed-uint64 kernels
RL204     :mod:`repro.analysis.rules.exception_hygiene`  SnapshotError, dead code
========  =============================================  =======================

Interprocedural rules (phase 4, per module over the
:class:`~repro.analysis.callgraph.CallGraph` and the
``[tool.reprolint.protocols]`` table; see
:mod:`repro.analysis.summaries`):

========  ====================================================  =======================
Rule id   Module                                                Guards
========  ====================================================  =======================
RL301     :mod:`repro.analysis.rules.crash_consistency`         fsync fences publishes
RL302     :mod:`repro.analysis.rules.durability`                fsync before ack
RL303     :mod:`repro.analysis.rules.snapshot_typestate`        no use after close
RL305     :mod:`repro.analysis.rules.ownership`                 helper-returned handles
========  ====================================================  =======================

RL007 (unused/unknown suppression comments) has no rule class: the
engine synthesises it from the used-suppression record of every phase.
It is off by default; enable with ``--warn-unused-suppressions``.
"""

# NOTE: no ``from __future__ import annotations`` here -- the future
# statement binds the name ``annotations`` in this namespace and would
# shadow the submodule import below.
from repro.analysis.rules import (  # noqa: F401
    annotations,
    architecture,
    crash_consistency,
    dtype_discipline,
    durability,
    dynamic_exec,
    exception_hygiene,
    float_equality,
    mutable_defaults,
    ownership,
    print_calls,
    randomness,
    resource_lifetime,
    seeding,
    snapshot_typestate,
)

__all__ = [
    "annotations",
    "architecture",
    "crash_consistency",
    "dtype_discipline",
    "durability",
    "dynamic_exec",
    "exception_hygiene",
    "float_equality",
    "mutable_defaults",
    "ownership",
    "print_calls",
    "randomness",
    "resource_lifetime",
    "seeding",
    "snapshot_typestate",
]
