"""Reference oracle for MicroGrid's max-min fair bandwidth sharing.

:func:`reference_max_min` is the pre-overhaul from-scratch
progressive-filling allocator, kept pure (no topology state).
:class:`ReferenceTopology` drives a :class:`repro.microgrid.Topology`
with it: every flow event recomputes every flow, instead of only the
connected component the event perturbed.  The property tests and the
substrate benchmark assert both drive identical simulations.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.microgrid.network import Flow, Topology

__all__ = ["ReferenceTopology", "reference_max_min"]


def reference_max_min(paths: Sequence[Sequence[int]],
                      capacity: Dict[int, float]) -> List[float]:
    """From-scratch progressive-filling max-min fair allocation.

    ``paths[i]`` lists the edge ids flow ``i`` crosses; ``capacity``
    maps edge id to bandwidth.  Returns the per-flow rates.  This is
    the O(rounds × flows × path) algorithm.
    """
    n = len(paths)
    alloc = [0.0] * n
    residual: Dict[int, float] = {}
    users: Dict[int, List[int]] = {}
    for i, path in enumerate(paths):
        for e in path:
            residual.setdefault(e, capacity[e])
            users.setdefault(e, []).append(i)
    unfixed = set(range(n))
    while unfixed:
        # Find the bottleneck: the edge with the smallest fair share.
        best_e, best_share = None, math.inf
        for e, flows in users.items():
            active = [i for i in flows if i in unfixed]
            if not active:
                continue
            share = residual[e] / len(active)
            if share < best_share:
                best_share, best_e = share, e
        if best_e is None:
            break  # remaining flows cross no constrained edge
        for i in [i for i in users[best_e] if i in unfixed]:
            alloc[i] = best_share
            unfixed.discard(i)
            for e in paths[i]:
                residual[e] = max(residual[e] - best_share, 0.0)
    return alloc


class ReferenceTopology(Topology):
    """A :class:`Topology` that reallocates every flow on every event."""

    def _component_flows(self, seed_edges) -> List[Flow]:
        return list(self._flows)

    def _fill(self, flows: List[Flow]) -> None:
        alloc = reference_max_min([f.edge_ids for f in flows],
                                  dict(enumerate(self._edge_cap)))
        for flow, rate in zip(flows, alloc):
            flow.allocation = rate
