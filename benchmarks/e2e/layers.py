"""Per-layer attribution of one cProfile pass.

Self time and call counts are bucketed by ``repro.<package>``, the
simulator's layers.  A function with no layer of its own -- a C builtin
or a stdlib helper such as ``random.expovariate`` -- is charged to the
layer of the frame that called it, edge by edge through the profiler's
caller-callee table, so ``heapq.heappush`` called from the engine counts
as ``sim`` and ``hashlib`` called from a digest counts as ``snap``.

``calls`` counts function calls (generator resumptions included) and
repeats exactly across runs of a deterministic program; ``self_s`` is
host time and does not.  The profiler's raw entries are read, one per
code object, because ``pstats`` keys functions by (file, line, name):
every dataclass-generated ``__init__`` is ``<string>:2:__init__`` there,
and which one's counts survive the collision depends on memory layout.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

#: the simulator's packages, in stack order from the engine up
LAYERS: Tuple[str, ...] = (
    "sim", "hw", "rmm", "host", "guest", "rpc", "isa",
    "security", "fleet", "snap", "obs", "experiments",
)
#: repro modules outside LAYERS (costs, analysis, ...) and frames with
#: no caller inside the simulator (the benchmark's own loop)
OTHER = "other"


def _own_layer(code, repro_dir: str) -> Optional[str]:
    """The layer a function's source belongs to; None outside ``repro``.

    ``code`` is a code object, or a string naming a C builtin.
    """
    filename = getattr(code, "co_filename", None)
    if filename is None:
        return None
    path = os.path.abspath(filename)
    if not path.startswith(repro_dir):
        return None
    head = path[len(repro_dir):].split(os.sep, 1)[0]
    head = head[:-3] if head.endswith(".py") else head
    return head if head in LAYERS else OTHER


def attribute(profile) -> Dict[str, Dict[str, float]]:
    """``layer -> {"self_s", "calls"}`` for LAYERS plus OTHER."""
    import repro  # the profiled process has the simulator on its path

    repro_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    own: Dict[object, Optional[str]] = {}
    self_s: Dict[object, float] = {}
    calls: Dict[object, int] = {}
    #: callee -> [(caller, calls on that edge, callee self time on it)]
    callers: Dict[object, List[Tuple[object, int, float]]] = {}
    for entry in profile.getstats():
        code = entry.code
        own[code] = _own_layer(code, repro_dir)
        self_s[code] = self_s.get(code, 0.0) + entry.inlinetime
        calls[code] = calls.get(code, 0) + entry.callcount
        for sub in entry.calls or ():
            callers.setdefault(sub.code, []).append(
                (code, sub.callcount, sub.inlinetime)
            )
    resolved: Dict[object, str] = {}

    def layer_of(code, visiting=frozenset()) -> str:
        """Own layer, or else the layer that calls ``code`` most often."""
        if own.get(code) is not None:
            return own[code]
        if code in resolved:
            return resolved[code]
        if code not in callers or code in visiting:
            return OTHER
        by_layer: Dict[str, int] = {}
        for caller, count, _ in callers[code]:
            layer = layer_of(caller, visiting | {code})
            by_layer[layer] = by_layer.get(layer, 0) + count
        resolved[code] = max(sorted(by_layer), key=by_layer.__getitem__)
        return resolved[code]

    totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS + (OTHER,)}

    def charge(layer: str, seconds: float, count: int) -> None:
        totals[layer]["self_s"] += seconds
        totals[layer]["calls"] += count

    for code, layer in own.items():
        if layer is not None:
            charge(layer, self_s[code], calls[code])
            continue
        # charged edge by edge; calls made before profiling began have
        # no recorded caller and land in OTHER
        left_s, left_calls = self_s[code], calls[code]
        for caller, count, seconds in callers.get(code, ()):
            charge(layer_of(caller), seconds, count)
            left_s -= seconds
            left_calls -= count
        charge(OTHER, left_s, left_calls)
    return totals
