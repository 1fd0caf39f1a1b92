"""Shared experiment constants from the paper's evaluation (Section 6).

Collected in one place so library defaults, tests and benchmarks all refer
to the same published parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Equation (2) miss probability used throughout the paper's experiments.
DEFAULT_DELTA = 0.1

#: Record-level K used for cBV-HB under scheme PL ("we set K = 30").
DEFAULT_K = 30

#: Record-level Hamming threshold under PL ("theta_PL = 4"): one edit
#: operation moves at most 4 bits (substitution bound of Section 5.1).
PL_RECORD_THRESHOLD = 4

#: Attribute-level thresholds under PH: one op on f1 and f2 (<= 4 bits
#: each), two ops on f3 (<= 8 bits).
PH_ATTRIBUTE_THRESHOLDS = {"f1": 4, "f2": 4, "f3": 8}

#: Attribute-level K^(f_i) for the NCVR configuration (Table 3).
NCVR_ATTRIBUTE_K = {"f1": 5, "f2": 5, "f3": 10}

#: Attribute-level K^(f_i) for the DBLP configuration (Table 3).
DBLP_ATTRIBUTE_K = {"f1": 5, "f2": 5, "f3": 12}

#: Theorem 1 defaults: tolerate one expected collision with confidence 2/3.
DEFAULT_RHO = 1.0
DEFAULT_R = 1.0 / 3.0


@dataclass(frozen=True)
class CalibrationConfig:
    """How the record encoder is calibrated from data samples."""

    rho: float = DEFAULT_RHO
    r: float = DEFAULT_R
    sample_size: int = 1000
    seed: int | None = None
