"""Boot a ScenarioSpec into running systems; run it; collect results.

:func:`boot_server` turns one server of a declarative
:class:`~repro.fleet.spec.ScenarioSpec` into a :class:`BootedServer`.
It performs the exact sequence every harness used to hand-write --
build the :class:`~repro.experiments.system.System`, ``launch`` each
guest, attach its devices, ``start`` it -- so a one-server scenario is
bit-identical (same trace digest) to the imperative incantation it
replaces; ``tests/fleet/`` pins that equivalence.  ``ScenarioSpec.boot()``
boots every server into a :class:`Fleet` through the lifecycle
controller (:class:`~repro.fleet.elastic.FleetController`).

Servers are independent simulations (their own
:class:`~repro.sim.engine.Simulator`, their own seed), so a fleet can
run serially in-process or as one runner cell per server with identical
results: :func:`boot_server`/:func:`run_server` are the per-server
slices the sweep executor fans out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..costs import CostModel, DEFAULT_COSTS
from ..experiments.system import System
from ..guest.vm import GuestVm
from ..sim.engine import SimulationError
from .placement import Placement
from .spec import ScenarioSpec, TenantSpec, VmSpec
from .traffic import OpenLoopClient

__all__ = [
    "BootedVm",
    "BootedServer",
    "TenantResult",
    "FleetResult",
    "Fleet",
    "boot_vm",
    "boot_server",
    "run_server",
    "drain_clients",
    "drain_and_finish",
    "tenant_results",
]


@dataclass
class BootedVm:
    """One guest booted from a :class:`VmSpec`."""

    spec: VmSpec
    vm: GuestVm
    kvm: object
    devices: Dict[str, object] = field(default_factory=dict)


@dataclass
class BootedServer:
    """One running server plus its tenants and their load generators."""

    index: int
    system: System
    vms: List[BootedVm] = field(default_factory=list)
    clients: List[OpenLoopClient] = field(default_factory=list)


@dataclass(frozen=True)
class TenantResult:
    """Per-tenant serving outcome (pure data; pickles across workers)."""

    tenant: str
    server: int
    mode: str
    op: str
    rate_rps: float
    slo_ms: Optional[float]
    issued: int
    completed: int
    dropped: int
    throughput_krps: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    slo_violations: int


@dataclass
class FleetResult:
    """All tenants' results plus the rejections that never booted."""

    tenants: List[TenantResult] = field(default_factory=list)
    rejected: List[str] = field(default_factory=list)

    def tenant(self, name: str) -> TenantResult:
        for result in self.tenants:
            if result.tenant == name:
                return result
        raise KeyError(name)

    def total_throughput_krps(self) -> float:
        return sum(r.throughput_krps for r in self.tenants)

    def worst_p99_ms(self) -> float:
        return max((r.p99_ms for r in self.tenants), default=0.0)

    def slo_violation_pct(self) -> float:
        issued = sum(r.issued for r in self.tenants)
        if issued == 0:
            return 0.0
        return 100.0 * sum(r.slo_violations for r in self.tenants) / issued


class Fleet:
    """A booted scenario: one :class:`BootedServer` per accepted server."""

    def __init__(
        self,
        spec: ScenarioSpec,
        placement: Placement,
        servers: List[BootedServer],
    ):
        self.spec = spec
        self.placement = placement
        self.servers = servers

    def run(self) -> FleetResult:
        """Serve traffic on every server and merge per-tenant results."""
        result = FleetResult(
            rejected=[name for name, _ in self.placement.rejected]
        )
        for server in self.servers:
            result.tenants.extend(run_server(server, self.spec))
        return result


# ---------------------------------------------------------------------------
# boot


def boot_vm(system: System, spec: VmSpec, costs: CostModel = DEFAULT_COSTS) -> BootedVm:
    """Launch one guest and attach its devices (the old incantation)."""
    vm = GuestVm(
        spec.name,
        spec.n_vcpus,
        spec.workload,
        costs=costs,
        memory_gib=spec.memory_gib,
    )
    kvm = system.launch(vm)
    booted = BootedVm(spec=spec, vm=vm, kvm=kvm)
    for device in spec.devices:
        if device.kind == "virtio-net":
            attached = system.add_virtio_net(
                kvm, device.name or None, echo_peer=device.echo_peer
            )
        elif device.kind == "virtio-blk":
            attached = system.add_virtio_blk(kvm, device.name or None)
        else:  # "sriov-nic" (DeviceSpec validates the kind)
            attached = system.add_sriov_nic(
                kvm, device.name or None, echo_peer=device.echo_peer
            )
        booted.devices[attached.name] = attached
    system.start(kvm)
    return booted


def boot_server(
    spec: ScenarioSpec,
    placement: Placement,
    server_index: int,
    costs: CostModel = DEFAULT_COSTS,
) -> BootedServer:
    """Boot one server and the tenants placed on it, in declaration order.

    This is the per-server slice of ``ScenarioSpec.boot()``: because
    servers are independent simulations, booting server *k* here is
    bit-identical to booting the whole fleet and looking at server *k*.
    """
    config = spec.servers[server_index]
    system = System(config, costs)
    server = BootedServer(index=server_index, system=system)
    assigned = set(placement.tenants_on(server_index))
    fleet_rng = system.machine.rng.fork("fleet")
    for tenant in spec.tenants:
        if tenant.name not in assigned:
            continue
        booted = boot_vm(system, tenant.vm, costs)
        server.vms.append(booted)
        if tenant.traffic is not None:
            device = booted.devices[tenant.traffic.device]
            server.clients.append(
                OpenLoopClient(
                    system,
                    tenant,
                    device,
                    rng=fleet_rng.stream(f"arrivals:{tenant.name}"),
                    costs=costs,
                )
            )
    return server


# ---------------------------------------------------------------------------
# run


def run_server(server: BootedServer, spec: ScenarioSpec) -> List[TenantResult]:
    """Serve ``spec.duration_ns`` of open-loop traffic on one server.

    Arrivals stop at the duration mark; a bounded drain window then
    lets in-flight requests finish (an overloaded server simply keeps
    its unanswered requests as drops -- the open-loop regime's honest
    outcome).
    """
    system = server.system
    for client in server.clients:
        client.start(spec.duration_ns)
    system.run_for(spec.duration_ns)
    drain_and_finish(server, spec)
    return tenant_results(server)


def drain_clients(
    system: System, clients: List[OpenLoopClient], budget_ns: int
) -> None:
    """Run ``system`` until every client has drained, within ``budget_ns``.

    A spent budget is not an error: whatever is still unanswered counts
    as dropped (the open-loop regime's honest outcome).
    """
    if clients and budget_ns > 0:
        try:
            system.run_until(
                lambda: all(client.drained for client in clients),
                limit_ns=budget_ns,
            )
        except SimulationError:
            pass


def drain_and_finish(server: BootedServer, spec: ScenarioSpec) -> None:
    """The post-serving tail shared with the recovery supervisor and the
    lifecycle controller: bounded drain, ``System.finish``, and the
    offered/dropped gauges."""
    system = server.system
    drain_clients(system, server.clients, spec.drain_ns)
    system.finish()
    metrics = system.metrics
    metrics.gauge("fleet_offered_count").set(
        sum(client.stats.issued for client in server.clients)
    )
    metrics.gauge("fleet_dropped_count").set(
        sum(client.stats.dropped for client in server.clients)
    )


def tenant_results(server: BootedServer) -> List[TenantResult]:
    """Per-tenant outcomes from a served (finished) server."""
    system = server.system
    results: List[TenantResult] = []
    for client in server.clients:
        stats = client.stats
        traffic = client.traffic
        results.append(
            TenantResult(
                tenant=client.tenant.name,
                server=server.index,
                mode=system.config.mode,
                op=traffic.op.name,
                rate_rps=traffic.rate_rps,
                slo_ms=client.tenant.vm.slo_ms,
                issued=stats.issued,
                completed=stats.completed,
                dropped=stats.dropped,
                throughput_krps=stats.throughput_krps(),
                mean_ms=stats.mean_ms(),
                p50_ms=stats.percentile_ms(50),
                p95_ms=stats.percentile_ms(95),
                p99_ms=stats.percentile_ms(99),
                slo_violations=stats.slo_violations,
            )
        )
    return results
