"""A small monotone dataflow framework over :mod:`repro.analysis.cfg`.

One worklist solver covers every phase-3 rule: an analysis declares a
direction, a boundary state, a join, and a transfer function, and
:func:`solve` iterates to a fixpoint over the reachable part of the
graph.  States are ordinary immutable Python values compared with
``==`` — ``frozenset`` for may/must bit-facts, tuples of dict items for
environments — which keeps rule code free of lattice bookkeeping.

* **May vs must** is purely the analysis's choice of ``join``: union
  gives a may-analysis (RL201: "a handle *may* still be open here"),
  intersection a must-analysis (the must-call sets of the RL301
  procedure summaries).
* **Exception edges** can carry a different transfer
  (:meth:`DataflowAnalysis.transfer_exception`): a statement that raises
  does not complete its effect, so e.g. an assignment's gen-fact must not
  flow along its exception edge.  The distinction only applies to
  forward analyses; backward ones see a single transfer.
* The solver visits only nodes reachable from the relevant boundary, so
  unreachable code never pollutes states, and an iteration cap (well
  above any real fixpoint's need) guarantees lint terminates even on
  adversarial inputs — the partial result is then still a sound
  over-approximation for may-analyses.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from typing import Generic, TypeVar

from repro.analysis.cfg import CFG, EXCEPTION, CFGNode

S = TypeVar("S")

FORWARD = "forward"
BACKWARD = "backward"


class DataflowAnalysis(Generic[S]):
    """One dataflow problem: direction, boundary, join and transfer."""

    direction: str = FORWARD

    def boundary(self) -> S:
        """State at the entry node (forward) or the exit nodes (backward)."""
        raise NotImplementedError

    def join(self, states: Sequence[S]) -> S:
        """Combine states arriving over several edges (the lattice join)."""
        raise NotImplementedError

    def transfer(self, node: CFGNode, state: S) -> S:
        """State after executing ``node`` given the state before it."""
        raise NotImplementedError

    def transfer_exception(self, node: CFGNode, state: S) -> S:
        """State flowing along ``node``'s *exception* out-edges.

        Defaults to :meth:`transfer`; override when a raising statement
        must not complete its effect (forward analyses only).
        """
        return self.transfer(node, state)


def solve(cfg: CFG, analysis: DataflowAnalysis[S]) -> dict[int, S]:
    """Fixpoint states per node index.

    Forward: the returned state is the one *entering* each node (apply
    ``transfer`` yourself for the post-state).  Backward: the state
    *leaving* each node towards its successors.  Nodes unreachable from
    the boundary are absent from the result.
    """
    if analysis.direction == FORWARD:
        return _solve_forward(cfg, analysis)
    if analysis.direction == BACKWARD:
        return _solve_backward(cfg, analysis)
    raise ValueError(f"unknown dataflow direction {analysis.direction!r}")


def _max_steps(cfg: CFG) -> int:
    return 64 * len(cfg.nodes) + 256


def _solve_forward(cfg: CFG, analysis: DataflowAnalysis[S]) -> dict[int, S]:
    states: dict[int, S] = {cfg.entry: analysis.boundary()}
    worklist: deque[int] = deque([cfg.entry])
    budget = _max_steps(cfg)
    while worklist and budget > 0:
        budget -= 1
        index = worklist.popleft()
        node = cfg.nodes[index]
        before = states[index]
        after_normal = analysis.transfer(node, before)
        after_exc: S | None = None
        for succ, kind in node.succs:
            if kind == EXCEPTION:
                if after_exc is None:
                    after_exc = analysis.transfer_exception(node, before)
                contribution = after_exc
            else:
                contribution = after_normal
            if succ not in states:
                states[succ] = contribution
                worklist.append(succ)
                continue
            joined = analysis.join([states[succ], contribution])
            if joined != states[succ]:
                states[succ] = joined
                worklist.append(succ)
    return states


def _solve_backward(cfg: CFG, analysis: DataflowAnalysis[S]) -> dict[int, S]:
    boundary = analysis.boundary()
    states: dict[int, S] = {cfg.exit: boundary, cfg.raise_exit: boundary}
    worklist: deque[int] = deque([cfg.exit, cfg.raise_exit])
    budget = _max_steps(cfg)
    while worklist and budget > 0:
        budget -= 1
        index = worklist.popleft()
        node = cfg.nodes[index]
        out = states[index]
        contribution = analysis.transfer(node, out)
        for pred, _kind in node.preds:
            if pred not in states:
                states[pred] = contribution
                worklist.append(pred)
                continue
            joined = analysis.join([states[pred], contribution])
            if joined != states[pred]:
                states[pred] = joined
                worklist.append(pred)
    return states
