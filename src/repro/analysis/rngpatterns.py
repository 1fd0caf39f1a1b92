"""Shared randomness-API matchers.

Both the per-file RL001 rule (:mod:`repro.analysis.rules.randomness`) and
the whole-program extractor (:mod:`repro.analysis.project`, feeding RL105
seed-propagation) need to recognise the same RNG call surface.  The patterns live here, in a module with no intra-
package imports, so neither side pulls the other in at import time.
"""

from __future__ import annotations

import ast
import re

#: stdlib ``random`` functions drawing from the hidden module-global state.
STDLIB_GLOBAL_RNG = re.compile(
    r"^random\.(random|randint|randrange|getrandbits|choice|choices|shuffle|"
    r"sample|uniform|triangular|gauss|normalvariate|lognormvariate|"
    r"expovariate|betavariate|gammavariate|paretovariate|weibullvariate|"
    r"vonmisesvariate|seed)$"
)

#: numpy legacy API drawing from the global ``RandomState`` singleton.
NUMPY_GLOBAL_RNG = re.compile(
    r"^(np|numpy)\.random\.(rand|randn|randint|random|random_sample|ranf|"
    r"sample|bytes|choice|shuffle|permutation|uniform|normal|standard_normal|"
    r"binomial|poisson|beta|gamma|exponential|geometric|seed)$"
)

#: Constructors that take entropy from the OS when no seed is given.
RNG_CONSTRUCTORS = re.compile(
    r"^((np|numpy)\.random\.)?(default_rng|RandomState)$|^random\.Random$"
)


def seed_argument(node: ast.Call) -> ast.expr | None:
    """The expression supplying the seed of an RNG constructor call, if any."""
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg == "seed" or keyword.arg is None:  # **kwargs may carry it
            return keyword.value
    return None


def has_seed_argument(node: ast.Call) -> bool:
    """Whether an RNG constructor call passes a non-``None`` seed."""
    seed = seed_argument(node)
    if seed is None:
        return False
    return not (isinstance(seed, ast.Constant) and seed.value is None)


def is_global_rng_call(name: str) -> bool:
    """Whether a dotted call name draws from process-global RNG state."""
    return bool(STDLIB_GLOBAL_RNG.match(name) or NUMPY_GLOBAL_RNG.match(name))
