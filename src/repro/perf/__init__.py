"""Performance instrumentation shared by the linkage and serving layers.

:class:`LogHistogram` records latency and size distributions (the
serving engines' per-batch timings, the async batcher's queue waits).
Every ``link()`` runs in one process; there is no fan-out layer here.

Like :mod:`repro.analysis` and :mod:`repro.evaluation`, this package sits
beside the numeric stack: it imports nothing from the layers it serves,
so ``core`` and ``hamming`` may depend on it freely.
"""

from repro.perf.metrics import LogHistogram

__all__ = ["LogHistogram"]
