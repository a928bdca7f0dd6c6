"""Core-gap-aware placement: bin-pack CVMs by free non-host cores.

On a core-gapped server a tenant's vCPU count is not a scheduling hint
but a hard core reservation: the planner will dedicate ``n_vcpus``
physical cores to the realm, and the host keeps ``n_host_cores`` for
exit handling and interrupt delivery.  Placement therefore bin-packs
tenants by *free non-host cores* and refuses (admission control) any
tenant whose gap no longer fits -- exactly the refusal the in-simulation
:class:`~repro.host.planner.CorePlanner` would produce, decided up
front so a scenario can run as one cell per server before anything boots.

Shared-core servers have no gap; capacity is the core count itself
(fair accounting, S5.1: no oversubscription in any comparison).

The packing is deterministic: tenants are placed in declaration order,
each onto the *fullest* server that still fits it (best-fit; ties break
to the lowest server index).  Declaration order in, placement out --
no hashing, no RNG -- so the same spec always places the same way, in
any process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..experiments.config import SystemConfig
from .spec import ScenarioSpec

__all__ = [
    "FleetAdmissionError",
    "Placement",
    "server_capacity",
    "choose_server",
    "place",
]


class FleetAdmissionError(Exception):
    """The scenario does not fit the rack (strict boot refuses it)."""


def server_capacity(config: SystemConfig) -> int:
    """vCPU capacity of one server under fair accounting.

    The isolation policy decides: a core-gapping policy dedicates every
    core that is not reserved for the host to a CVM vCPU, so admission
    is core-granular.  Shared-core policies (flush-on-switch, none)
    timeshare: all cores run vCPUs, and we do not oversubscribe.
    """
    if config.resolved_policy().requires_core_gap:
        return max(0, config.n_cores - config.n_host_cores)
    return config.n_cores


@dataclass(frozen=True)
class Placement:
    """Deterministic tenant -> server assignment for one scenario."""

    #: (tenant name, server index), in tenant declaration order
    assignments: Tuple[Tuple[str, int], ...]
    #: (tenant name, human-readable refusal), in declaration order
    rejected: Tuple[Tuple[str, str], ...]
    #: free vCPU capacity left on each server after placement
    free: Tuple[int, ...]

    def server_of(self, tenant: str) -> Optional[int]:
        for name, index in self.assignments:
            if name == tenant:
                return index
        return None

    def tenants_on(self, server: int) -> List[str]:
        return [name for name, index in self.assignments if index == server]


def choose_server(
    need: int, free: List[int], strategy: str
) -> Optional[int]:
    """One placement decision: which server takes a ``need``-vCPU tenant.

    This is the single admission step shared by boot-time :func:`place`
    and the elastic controller's mid-run ``admit`` — churned tenants go
    through exactly the bin-packing a static spec would.  Returns the
    chosen server index or None (admission refused).
    """
    pack = strategy == "pack"
    best: Optional[int] = None
    for index, capacity in enumerate(free):
        if capacity < need:
            continue
        if (
            best is None
            or (pack and capacity < free[best])
            or (not pack and capacity > free[best])
        ):
            best = index
    return best


def place(spec: ScenarioSpec) -> Placement:
    """Assign ``spec.tenants`` to ``spec.servers`` by the spec's strategy.

    ``pack`` is best-fit (fullest server that still fits: consolidate,
    leave whole servers free); ``spread`` is emptiest-first (balance
    load across the rack).  Both are deterministic with ties broken to
    the lowest server index.
    """
    free = [server_capacity(config) for config in spec.servers]
    assignments: List[Tuple[str, int]] = []
    rejected: List[Tuple[str, str]] = []
    for tenant in spec.tenants:
        need = tenant.vm.n_vcpus
        best = choose_server(need, free, spec.placement)
        if best is None:
            rejected.append(
                (
                    tenant.name,
                    f"needs {need} core(s); free per server: {free}",
                )
            )
            continue
        free[best] -= need
        assignments.append((tenant.name, best))
    return Placement(
        assignments=tuple(assignments),
        rejected=tuple(rejected),
        free=tuple(free),
    )
