"""Control dependence graph (forward pass, part 3).

Implements the Ferrante-Ottenstein-Warren construction: node ``n`` is
control dependent on branch ``a`` iff ``a`` has a successor ``b`` such that
``n`` postdominates ``b`` (or ``n == b``) but ``n`` does not postdominate
``a``.  Operationally: for every CFG edge ``(a, b)`` where ``b`` does not
postdominate ``a``, every node on the postdominator-tree path from ``b`` up
to (but excluding) ``ipdom(a)`` is control dependent on ``a``.

The result — a ``pc -> (branch pcs)`` map — is what the backward pass
consults when an instruction joins the slice (paper Section III-B), and it
can be computed once and reused across different slicing criteria (paper
Section III-A notes the CDG may be stored in stable storage).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from .cfg import FunctionCFG, VIRTUAL_EXIT
from .postdom import immediate_postdominators


def control_dependences(cfg: FunctionCFG) -> Dict[int, Tuple[int, ...]]:
    """Compute the control-dependence map for one function CFG."""
    ipdom = immediate_postdominators(cfg)
    cd: Dict[int, set] = {}

    for a in cfg.nodes():
        succs = cfg.succs[a]
        if len(succs) < 2:
            continue  # not a decision point
        stop = ipdom.get(a)
        if stop is None:
            continue  # exit-unreachable branch in a pathological trace
        for b in succs:
            node = b
            # Walk the postdominator tree from b toward the root, marking
            # every node strictly below ipdom(a) as control dependent on a.
            while node != stop and node != VIRTUAL_EXIT:
                cd.setdefault(node, set()).add(a)
                parent = ipdom.get(node)
                if parent is None or parent == node:
                    break
                node = parent

    return {pc: tuple(sorted(branches)) for pc, branches in cd.items()}


class ControlDependenceIndex:
    """Trace-wide control-dependence lookup, built from all function CFGs.

    PCs are globally unique (each function owns a disjoint pc range), so the
    per-function maps merge into one flat dictionary.
    """

    def __init__(self, cfgs: Mapping[int, FunctionCFG]) -> None:
        self._cd: Dict[int, Tuple[int, ...]] = {}
        self._cfgs = dict(cfgs)
        for cfg in cfgs.values():
            self._cd.update(control_dependences(cfg))

    def deps_of(self, pc: int) -> Tuple[int, ...]:
        """Branch pcs that ``pc`` is (intraprocedurally) control dependent on."""
        return self._cd.get(pc, ())

    def cfgs(self) -> Dict[int, FunctionCFG]:
        return self._cfgs

    def __len__(self) -> int:
        return len(self._cd)


def build_index(trace: Iterable) -> ControlDependenceIndex:
    """Build the full control-dependence index of a trace (anything
    :func:`~repro.profiler.cfg.build_cfgs` accepts)."""
    from .cfg import build_cfgs

    return ControlDependenceIndex(build_cfgs(trace))
