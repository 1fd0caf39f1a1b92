"""RL001 -- no unseeded randomness outside tests.

CoveringLSH-style recall guarantees only hold when the LSH
position-sampling (and every other stochastic stage: data generation,
perturbation, calibration sampling) is a deterministic function of an
explicit seed.  A single call into the process-global RNG state makes a
run unreproducible without failing any test, so this rule flags:

* stdlib ``random`` module-level draws (``random.random()``,
  ``random.choice(...)``, ...) which share hidden global state;
* numpy legacy global-state draws (``np.random.rand``,
  ``np.random.randint``, ``np.random.shuffle``, ...);
* ``default_rng()`` / ``random.Random()`` / ``np.random.RandomState()``
  constructed without a seed argument (entropy from the OS).

The fix is to thread a ``seed`` or ``rng`` parameter through, not to
suppress: library code should accept ``np.random.Generator`` and leave
seeding to the caller.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.engine import FileContext, Finding, Rule
from repro.analysis.rngpatterns import (
    RNG_CONSTRUCTORS,
    has_seed_argument,
    is_global_rng_call,
)
from repro.analysis.rules.common import dotted_name


class UnseededRandomness(Rule):
    rule_id = "RL001"
    summary = "no unseeded randomness outside tests"
    interests = (ast.Call,)
    default_exclude = ("tests/*", "test_*.py", "conftest.py")

    def check_node(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        assert isinstance(node, ast.Call)
        name = dotted_name(node.func)
        if name is None:
            return
        if is_global_rng_call(name):
            yield self.make_finding(
                node,
                ctx,
                f"call to `{name}` uses process-global RNG state; "
                "thread an explicit `rng: np.random.Generator` through instead",
            )
        elif RNG_CONSTRUCTORS.match(name) and not has_seed_argument(node):
            yield self.make_finding(
                node,
                ctx,
                f"`{name}()` without a seed draws OS entropy; "
                "pass an explicit seed for reproducibility",
            )
