"""The linker registry, the linkage result record and the exhaustive reference.

Every linker is a class with a straight-line ``link(a, b) ->``
:class:`LinkageResult`; :mod:`repro.pipeline.registry` names them all.
See "Writing a linker" in ``docs/architecture.md``.

Layering: module-level imports stay within numpy and the stdlib, so
``repro.core`` and ``repro.baselines`` depend on this package freely;
anything heavier (``RecordEncoder``, ``value_rows``, the registry's
linker classes) is imported at run time.
"""

from repro.pipeline.registry import (
    LinkerSpec,
    available_linkers,
    create_linker,
    get_linker,
    linker_names,
)
from repro.pipeline.result import LinkageResult, timed

__all__ = [
    "LinkageResult",
    "LinkerSpec",
    "available_linkers",
    "create_linker",
    "get_linker",
    "linker_names",
    "timed",
]
