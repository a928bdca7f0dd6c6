"""The elastic fleet: tenant churn, hotplug autoscaling, rebalancing.

The static :class:`~repro.fleet.spec.ScenarioSpec` world fixes tenants
at boot; the paper's north-star deployment is the opposite — tenants
arrive, grow, shrink, move and leave while the rack keeps serving.
This module promotes the boot-time spec into a lifecycle API:

* :class:`FleetController` owns a booted fleet and exposes the four
  lifecycle verbs — ``admit`` / ``evict`` / ``resize`` / ``migrate`` —
  each driving the *existing* machinery (placement bin-packing, the
  planner's delegated hotplug + RMI flow, the snapshot digests) rather
  than a parallel code path.  Every verb appends a :class:`FleetEvent`
  to the controller's event-sourced timeline, which the sweeps and the
  report consume.  ``ScenarioSpec.boot()`` is the static special case:
  constructing a controller performs the exact place + boot sequence
  the static path always did (bit-identical digests, pinned by
  ``tests/fleet/test_static_golden.py``).
* :class:`ChurnSpec` layers a seeded tenant arrival/departure process
  over a scenario: Poisson arrivals and exponential lifetime draws
  from churn-owned RNG streams (never the servers' machine streams),
  admitted mid-run through the same bin-packing as boot-time tenants
  and drained on departure so request conservation
  (offered == completed + dropped) stays exact.
* :class:`AutoscalePolicy` grows/shrinks a serving CVM one vCPU per
  epoch toward the observed offered load, via the paper's core-hotplug
  path (``HotplugController`` offline/online through the planner's
  delegated RMI flow); every transition is followed by a core-gap
  audit.
* :class:`RebalancePolicy` migrates a tenant between servers when
  placement degrades, verifying the migration image with the snapshot
  digest machinery and charging the blackout window to the tenant's
  SLO accounting.

Servers remain independent simulations.  The controller interleaves
them on a common *fleet clock* — epoch boundaries in serving time — so
the whole elastic run is deterministic for a given seed and runs as
runner cells (one elastic scenario per cell) with digest-stable
results across ``--jobs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.stats import percentile
from ..costs import CostModel, DEFAULT_COSTS
from ..host.planner import AdmissionError
from ..host.threads import HostThread, SchedClass
from ..security.audit import CoreGapAuditor
from ..sim.clock import ms
from ..sim.engine import SimulationError
from ..sim.rng import RngFactory, derive_seed
from ..snap import capture_digest, capture_object
from .placement import (
    FleetAdmissionError,
    choose_server,
    place,
    server_capacity,
)
from .scenario import (
    BootedServer,
    BootedVm,
    Fleet,
    boot_server,
    boot_vm,
    drain_and_finish,
    drain_clients,
)
from .spec import ScenarioSpec, TenantSpec, resolve_admission
from .traffic import OpenLoopClient

__all__ = [
    "ELASTIC_VARIANTS",
    "ChurnSpec",
    "AutoscalePolicy",
    "RebalancePolicy",
    "FleetEvent",
    "ElasticTenantRow",
    "ElasticOutcome",
    "FleetController",
    "churn_schedule",
    "default_churn_tenant",
    "elastic_cells",
    "run_elastic",
    "run_elastic_case",
    "run_elastic_sweep",
    "storm_stream",
]


# ---------------------------------------------------------------------------
# policy specs (frozen data, like the scenario specs they extend)


@dataclass(frozen=True)
class ChurnSpec:
    """A seeded tenant arrival/departure process over one scenario.

    Arrival gaps are exponential with mean ``1/arrival_rate_per_s``;
    each arriving tenant draws an exponential lifetime (floored at
    ``min_lifetime_ns``).  Both processes come from churn-owned RNG
    streams derived from the scenario seed — adding churn never
    perturbs any server's machine streams, and the whole schedule is
    drawn up front so it is independent of simulation interleaving.
    """

    #: tenant arrivals per second of simulated serving time
    arrival_rate_per_s: float
    #: mean tenant lifetime (exponential draw)
    mean_lifetime_ns: int
    #: builds the k-th churned tenant's spec (name must embed ``k``)
    tenant_factory: Callable[[int], TenantSpec]
    #: lifetime draws below this are clamped up (a tenant lives at
    #: least one epoch)
    min_lifetime_ns: int = ms(10)
    #: at most this many churned tenants live at once; arrivals beyond
    #: the cap are refused (recorded as rejects, like admission refusals)
    max_concurrent: int = 8
    #: drain budget when a departing tenant's traffic is stopped
    drain_ns: int = ms(5)


@dataclass(frozen=True)
class AutoscalePolicy:
    """Per-tenant vCPU autoscaling toward the observed offered load.

    Each epoch the controller estimates a tenant's offered rate from
    its issued-request delta and moves the active vCPU count one step
    toward ``ceil(observed_rps / rps_per_vcpu)`` (clamped to
    ``[min_vcpus, spec vCPUs]``).  Growing hotplugs a free core away
    from the host and dedicates it; shrinking parks the vCPU and
    returns its core.  Serving vCPU 0 is never shrunk away.
    """

    #: offered load one vCPU is provisioned for
    rps_per_vcpu: float = 2000.0
    min_vcpus: int = 1

    def desired_vcpus(self, observed_rps: float, spec_vcpus: int) -> int:
        want = math.ceil(observed_rps / self.rps_per_vcpu) if observed_rps > 0 else self.min_vcpus
        return max(self.min_vcpus, min(spec_vcpus, want))


@dataclass(frozen=True)
class RebalancePolicy:
    """Migrate a tenant when the rack's placement degrades.

    Placement "degrades" when the used-vCPU imbalance between the
    fullest and emptiest server reaches ``imbalance_threshold``; the
    controller then moves the smallest movable tenant from the fullest
    server to the emptiest (at most one migration per epoch).  The
    migration blackout — drain on the source plus ``downtime_ns`` of
    transfer/restore — is charged to the tenant's SLO accounting.
    """

    imbalance_threshold: int = 4
    #: modelled transfer + restore blackout on the destination
    downtime_ns: int = ms(2)
    #: drain budget for in-flight requests on the source
    drain_ns: int = ms(5)


# ---------------------------------------------------------------------------
# the event-sourced timeline


@dataclass(frozen=True)
class FleetEvent:
    """One lifecycle transition, in fleet (serving-clock) time."""

    t_ns: int
    verb: str  # "admit" | "reject" | "evict" | "resize" | "migrate"
    tenant: str
    server: int  # -1 when no server took the tenant (reject)
    detail: str = ""


@dataclass(frozen=True)
class ElasticTenantRow:
    """One tenant's merged outcome across every server it lived on."""

    tenant: str
    servers: Tuple[int, ...]
    admitted_ns: int
    departed_ns: Optional[int]
    issued: int
    completed: int
    dropped: int
    slo_violations: int
    #: synthetic SLO charge for migration blackouts (expected arrivals
    #: during downtime); kept separate so offered == completed + dropped
    #: stays exact
    migration_slo_charge: int
    p50_ms: float
    p99_ms: float
    resizes: int
    migrations: int


@dataclass
class ElasticOutcome:
    """Everything one elastic run produced (pure data; pickles)."""

    rows: List[ElasticTenantRow] = field(default_factory=list)
    timeline: List[FleetEvent] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    audit_problems: List[str] = field(default_factory=list)
    #: per-server digested counter maps (the sanitizer's currency)
    counters: Dict[str, Dict[str, int]] = field(default_factory=dict)
    end_ns: Dict[str, int] = field(default_factory=dict)

    @property
    def conservation_ok(self) -> bool:
        return all(
            row.issued == row.completed + row.dropped for row in self.rows
        )


# ---------------------------------------------------------------------------
# churn schedule (drawn up front from churn-owned streams)


@dataclass(frozen=True)
class ChurnArrival:
    t_ns: int
    index: int
    lifetime_ns: int


def churn_schedule(
    churn: ChurnSpec, seed: int, horizon_ns: int
) -> List[ChurnArrival]:
    """Draw the full arrival/lifetime schedule for one run.

    Deterministic in ``(churn, seed, horizon_ns)`` and independent of
    anything the servers do: the streams hang off a root factory
    derived from the scenario seed under the ``churn`` namespace.
    """
    rng = RngFactory(derive_seed(seed, "fleet-churn", "process"))
    arrivals = rng.stream("churn:arrivals")
    lifetimes = rng.stream("churn:lifetimes")
    mean_gap_ns = 1e9 / churn.arrival_rate_per_s
    schedule: List[ChurnArrival] = []
    t = 0
    index = 0
    while True:
        t += int(arrivals.expovariate(1.0 / mean_gap_ns)) + 1
        if t >= horizon_ns:
            return schedule
        life = int(lifetimes.expovariate(1.0 / churn.mean_lifetime_ns)) + 1
        schedule.append(
            ChurnArrival(
                t_ns=t,
                index=index,
                lifetime_ns=max(life, churn.min_lifetime_ns),
            )
        )
        index += 1


# ---------------------------------------------------------------------------
# the controller


class FleetController:
    """Lifecycle owner of one booted fleet.

    Construction performs the static boot (place, then
    :func:`~repro.fleet.scenario.boot_server` per server, exactly what
    ``ScenarioSpec.boot()`` returns); afterwards the lifecycle
    verbs mutate the fleet while keeping the controller's capacity
    view, the planner's core allocations and the event timeline in
    lock-step.  All verbs other than construction require core-gapped
    servers — they ride the hotplug/park machinery, which shared-core
    mode does not have.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        costs: CostModel = DEFAULT_COSTS,
        admission: str = "strict",
    ):
        admission = resolve_admission(admission)
        self.spec = spec
        self.costs = costs
        placement = place(spec)
        if admission == "strict" and placement.rejected:
            detail = "; ".join(
                f"{name}: {reason}" for name, reason in placement.rejected
            )
            raise FleetAdmissionError(
                f"{len(placement.rejected)} tenant(s) refused admission: "
                f"{detail}"
            )
        servers = [
            boot_server(spec, placement, index, costs)
            for index in range(len(spec.servers))
        ]
        self.fleet = Fleet(spec, placement, servers)
        self.timeline: List[FleetEvent] = []
        self.counts: Dict[str, int] = {
            "admit": 0,
            "reject": 0,
            "evict": 0,
            "resize_up": 0,
            "resize_down": 0,
            "resize_refused": 0,
            "migrate": 0,
        }
        self.audit_problems: List[str] = []
        #: one schedule auditor per server: each verb folds in only the
        #: spans closed since that server's previous audit
        self._auditors = [CoreGapAuditor() for _ in servers]
        #: tenant -> current server index
        self.where: Dict[str, int] = {}
        #: tenant -> currently active vCPU count (autoscaler view)
        self.active_vcpus: Dict[str, int] = {}
        #: tenant -> spec (static + admitted churn tenants)
        self.tenants: Dict[str, TenantSpec] = {}
        #: tenant -> BootedVm on its current server
        self.booted: Dict[str, BootedVm] = {}
        #: live free capacity per server, in vCPU units
        self.free: List[int] = list(placement.free)
        #: tenant -> [admitted_ns, departed_ns|None, resizes, migrations,
        #:            migration_slo_charge, servers...]
        self._history: Dict[str, Dict] = {}
        #: per-server sim time at fleet-clock zero (set by start_serving)
        self._base: List[int] = [s.system.sim.now for s in servers]
        self.t_ns = 0
        self._serving = False
        self._horizon_ns = 0

        for name, index in placement.assignments:
            tenant = next(t for t in spec.tenants if t.name == name)
            self._register(tenant, index, at_ns=0)
            self.timeline.append(FleetEvent(0, "admit", name, index, "boot"))
            self.counts["admit"] += 1
        for name, reason in placement.rejected:
            self.timeline.append(FleetEvent(0, "reject", name, -1, reason))
            self.counts["reject"] += 1

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------

    def _register(self, tenant: TenantSpec, server: int, at_ns: int) -> None:
        name = tenant.name
        self.where[name] = server
        self.active_vcpus[name] = tenant.vm.n_vcpus
        self.tenants[name] = tenant
        self._history[name] = {
            "admitted_ns": at_ns,
            "departed_ns": None,
            "resizes": 0,
            "migrations": 0,
            "migration_slo_charge": 0,
            "servers": [server],
        }
        for vm in self.fleet.servers[server].vms:
            if vm.spec.name == name:
                self.booted[name] = vm

    def _server(self, name: str) -> BootedServer:
        return self.fleet.servers[self.where[name]]

    def _clients_of(self, name: str) -> List[OpenLoopClient]:
        clients: List[OpenLoopClient] = []
        for server in self.fleet.servers:
            clients.extend(
                c for c in server.clients if c.tenant.name == name
            )
        return clients

    def _require_gapped(self, server: BootedServer, verb: str) -> None:
        if not server.system.config.is_gapped:
            raise SimulationError(
                f"FleetController.{verb} needs a core-gapped server; "
                f"server {server.index} runs mode "
                f"{server.system.config.mode!r}"
            )

    def _run_planner(self, server: BootedServer, label: str, gen):
        """Drive one planner thread body to completion on a server.

        Planner refusals (:class:`AdmissionError`, ``SimulationError``)
        are caught *inside* the thread body and re-raised here, in the
        controller's frame — an exception crossing the kernel scheduler
        would abort the simulation mid-timestep.
        """
        system = server.system

        def body():
            try:
                result = yield from gen
            except (AdmissionError, SimulationError) as exc:
                return ("error", exc)
            return ("ok", result)

        thread = HostThread(
            name=label,
            body=body(),
            sched_class=SchedClass.FAIR,
            affinity=system.host_cores,
        )
        system.kernel.add_thread(thread)
        system.run_until_event(thread.done_event)
        status, value = thread.result
        if status == "error":
            raise value
        return value

    def _refresh_free(self, server: BootedServer) -> None:
        """Re-derive a gapped server's free capacity from the planner.

        The planner's ``free_cores`` is ground truth (it sees aborted
        transitions that park cores offline); mirroring it keeps the
        controller's admission view honest under storms.
        """
        if server.system.config.is_gapped:
            self.free[server.index] = len(server.system.planner.free_cores())

    def audit_transitions(self, server: BootedServer, what: str) -> None:
        """Core-gap audit after one transition; problems accumulate.

        Folds the spans closed since the server's last audit into its
        occupancy-window sharing audit (each violation is reported
        once), runs the residency audit over every core's uarch
        structures, and cross-checks the hotplug transition log.
        (``CoreGapAuditor.audit`` would close all open spans — a
        mid-run mutation — so the two halves are called directly.)
        """
        system = server.system
        auditor = self._auditors[server.index]
        problems = [
            f"server{server.index}/{what}: {violation}"
            for violation in auditor.audit_schedule(system.tracer)
            + auditor.audit_residency(system.machine)
        ]
        if system.config.is_gapped:
            problems.extend(
                f"server{server.index}/{what}: {p}"
                for p in system.planner.hotplug.audit()
            )
        self.audit_problems.extend(problems)

    # ------------------------------------------------------------------
    # fleet clock
    # ------------------------------------------------------------------

    def start_serving(self, horizon_ns: int) -> None:
        """Open the static tenants' traffic and zero the fleet clock."""
        if self._serving:
            raise SimulationError("start_serving called twice")
        self._serving = True
        self._horizon_ns = horizon_ns
        self._base = [s.system.sim.now for s in self.fleet.servers]
        for server in self.fleet.servers:
            for client in server.clients:
                client.start(horizon_ns)

    def advance_to(self, t_ns: int) -> None:
        """Advance every server to fleet time ``t_ns``, in index order."""
        for server in self.fleet.servers:
            target = self._base[server.index] + t_ns
            now = server.system.sim.now
            if target > now:
                server.system.run_for(target - now)
        self.t_ns = t_ns

    def _local_now(self, server: BootedServer) -> int:
        return server.system.sim.now - self._base[server.index]

    # ------------------------------------------------------------------
    # the lifecycle verbs
    # ------------------------------------------------------------------

    def admit(self, tenant: TenantSpec, window_ns: int) -> Optional[int]:
        """Admit one tenant mid-run; returns its server or None.

        Runs the same bin-packing step boot-time placement uses
        against the live free-capacity view, boots the VM through the
        planner's launch flow (hotplug + realm build), and opens its
        traffic for ``window_ns`` of serving time.
        """
        name = tenant.name
        if name in self.where:
            raise SimulationError(f"tenant {name!r} already admitted")
        need = tenant.vm.n_vcpus
        index = choose_server(need, self.free, self.spec.placement)
        if index is None:
            self.counts["reject"] += 1
            self.timeline.append(
                FleetEvent(
                    self.t_ns,
                    "reject",
                    name,
                    -1,
                    f"needs {need} core(s); free per server: {self.free}",
                )
            )
            return None
        server = self.fleet.servers[index]
        self._require_gapped(server, "admit")
        try:
            booted = boot_vm(server.system, tenant.vm, self.costs)
        except (AdmissionError, SimulationError) as exc:
            # free-capacity view said yes but the machine said no (e.g.
            # cores parked offline by aborted transitions): refuse
            self._refresh_free(server)
            self.counts["reject"] += 1
            self.timeline.append(
                FleetEvent(self.t_ns, "reject", name, index, str(exc))
            )
            return None
        server.vms.append(booted)
        if tenant.traffic is not None:
            fleet_rng = server.system.machine.rng.fork("fleet")
            client = OpenLoopClient(
                server.system,
                tenant,
                booted.devices[tenant.traffic.device],
                rng=fleet_rng.stream(f"arrivals:{name}"),
                costs=self.costs,
            )
            server.clients.append(client)
            client.start(window_ns)
        self._register(tenant, index, at_ns=self.t_ns)
        self._refresh_free(server)
        self.counts["admit"] += 1
        self.timeline.append(FleetEvent(self.t_ns, "admit", name, index))
        self.audit_transitions(server, f"admit:{name}")
        return index

    def evict(self, name: str, drain_ns: int, reason: str = "") -> None:
        """Stop a tenant's traffic, drain, tear its CVM down.

        Request conservation stays exact: arrivals close first, the
        drain window lets in-flight requests finish, and whatever is
        still unanswered counts as dropped (the open-loop regime's
        honest outcome).
        """
        server = self._server(name)
        self._require_gapped(server, "evict")
        system = server.system
        clients = [c for c in server.clients if c.tenant.name == name]
        for client in clients:
            client.stop()
        drain_clients(system, clients, drain_ns)
        booted = self.booted[name]
        self._run_planner(
            server,
            f"planner-evict:{name}",
            system.planner.evict_cvm(booted.kvm),
        )
        self._history[name]["departed_ns"] = self.t_ns
        self.where.pop(name)
        self.active_vcpus.pop(name)
        self._refresh_free(server)
        self.counts["evict"] += 1
        self.timeline.append(
            FleetEvent(self.t_ns, "evict", name, server.index, reason)
        )
        self.audit_transitions(server, f"evict:{name}")

    def resize(self, name: str, target_vcpus: int) -> int:
        """Grow/shrink a tenant one vCPU at a time toward the target.

        Shrinking parks the highest-index active vCPU and returns its
        core to the host (UnbindCall + release + hotplug online); the
        serving vCPU 0 is never parked.  Growing hotplugs a free core
        back and resumes the parked vCPU.  Returns the active count
        actually reached (growth stops cleanly when no core is free).
        """
        server = self._server(name)
        self._require_gapped(server, "resize")
        tenant = self.tenants[name]
        target = max(1, min(tenant.vm.n_vcpus, target_vcpus))
        kvm = self.booted[name].kvm
        active = self.active_vcpus[name]
        while active != target:
            if active > target:
                idx = active - 1
                self._run_planner(
                    server,
                    f"planner-shrink:{name}.{idx}",
                    server.system.planner.shrink_vcpu(kvm, idx),
                )
                active -= 1
                self.counts["resize_down"] += 1
                detail = f"shrink to {active}"
            else:
                idx = active
                try:
                    self._run_planner(
                        server,
                        f"planner-grow:{name}.{idx}",
                        server.system.planner.grow_vcpu(kvm, idx),
                    )
                except (AdmissionError, SimulationError) as exc:
                    self.counts["resize_refused"] += 1
                    self.timeline.append(
                        FleetEvent(
                            self.t_ns,
                            "resize",
                            name,
                            server.index,
                            f"grow refused: {exc}",
                        )
                    )
                    break
                active += 1
                self.counts["resize_up"] += 1
                detail = f"grow to {active}"
            self.active_vcpus[name] = active
            self._history[name]["resizes"] += 1
            self._refresh_free(server)
            self.timeline.append(
                FleetEvent(self.t_ns, "resize", name, server.index, detail)
            )
            self.audit_transitions(server, f"resize:{name}")
        return active

    def migrate(
        self,
        name: str,
        to_server: int,
        window_ns: int,
        policy: RebalancePolicy,
    ) -> bool:
        """Move a tenant to another server (drain, verify, rebuild).

        The source freezes the tenant's arrivals and drains; the
        migration image (tenant identity, sizing, cumulative request
        accounting) is canonicalized and digest-verified on both sides
        with the snapshot machinery; the destination rebuilds the CVM
        from its spec — restore-by-reexecution, as the recovery
        supervisor does — and re-opens traffic after the modelled
        blackout.  The blackout's expected arrivals are charged to the
        tenant's SLO accounting as ``migration_slo_charge``.
        """
        src = self._server(name)
        dst = self.fleet.servers[to_server]
        self._require_gapped(src, "migrate")
        self._require_gapped(dst, "migrate")
        tenant = self.tenants[name]
        need = tenant.vm.n_vcpus
        if self.free[to_server] < need:
            raise SimulationError(
                f"server {to_server} lacks {need} free core(s) for {name}"
            )
        # 1. freeze + drain on the source
        clients = [c for c in src.clients if c.tenant.name == name]
        for client in clients:
            client.stop()
        drain_clients(src.system, clients, policy.drain_ns)
        # 2. pack the migration image and digest it (transfer integrity)
        image = {
            "tenant": name,
            "n_vcpus": tenant.vm.n_vcpus,
            "memory_gib": tenant.vm.memory_gib,
            "stats": [capture_object(c.stats) for c in clients],
        }
        pack_digest = capture_digest(image)
        # 3. tear down on the source
        booted = self.booted[name]
        self._run_planner(
            src,
            f"planner-migrate-out:{name}",
            src.system.planner.evict_cvm(booted.kvm),
        )
        self._refresh_free(src)
        self.audit_transitions(src, f"migrate-out:{name}")
        # 4. verify the image landed intact, then rebuild on the dest
        if capture_digest(image) != pack_digest:
            raise SimulationError(
                f"migration image of {name} corrupted in transfer"
            )
        new_booted = boot_vm(dst.system, tenant.vm, self.costs)
        dst.vms.append(new_booted)
        self.booted[name] = new_booted
        self.where[name] = to_server
        self.active_vcpus[name] = tenant.vm.n_vcpus
        self._history[name]["migrations"] += 1
        self._history[name]["servers"].append(to_server)
        self._refresh_free(dst)
        # 5. re-open traffic after the blackout; charge it to the SLO
        downtime_ns = policy.downtime_ns
        if tenant.traffic is not None:
            segment = len(self._history[name]["servers"]) - 1
            fleet_rng = dst.system.machine.rng.fork("fleet")
            client = OpenLoopClient(
                dst.system,
                tenant,
                new_booted.devices[tenant.traffic.device],
                rng=fleet_rng.stream(f"arrivals:{name}:m{segment}"),
                costs=self.costs,
            )
            dst.clients.append(client)
            remaining = max(0, window_ns - downtime_ns)

            def reopen(client=client, remaining=remaining):
                if remaining > 0:
                    client.start(remaining)

            dst.system.sim.schedule(downtime_ns, reopen)
            charge = int(
                round(tenant.traffic.rate_rps * downtime_ns / 1e9)
            )
            self._history[name]["migration_slo_charge"] += charge
            metrics = dst.system.metrics
            gauge = metrics.gauge("fleet_migration_downtime_ns")
            gauge.set((gauge.value or 0) + downtime_ns)
        self.counts["migrate"] += 1
        self.timeline.append(
            FleetEvent(
                self.t_ns,
                "migrate",
                name,
                to_server,
                f"from server {src.index}; image {pack_digest[:12]}",
            )
        )
        self.audit_transitions(dst, f"migrate-in:{name}")
        return True

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def finish(self) -> None:
        """Stop every client, drain each server, finish the systems."""
        for server in self.fleet.servers:
            for client in server.clients:
                client.stop()
            drain_and_finish(server, self.spec)
            self.audit_transitions(server, "finish")
        self._publish_gauges()

    def _publish_gauges(self) -> None:
        metrics = self.fleet.servers[0].system.metrics
        metrics.gauge("fleet_admit_count").set(self.counts["admit"])
        metrics.gauge("fleet_evict_count").set(self.counts["evict"])
        metrics.gauge("fleet_reject_count").set(self.counts["reject"])
        metrics.gauge("fleet_resize_up_count").set(self.counts["resize_up"])
        metrics.gauge("fleet_resize_down_count").set(
            self.counts["resize_down"]
        )
        metrics.gauge("fleet_migrate_count").set(self.counts["migrate"])

    def tenant_rows(self) -> List[ElasticTenantRow]:
        """Per-tenant outcomes merged across every serving segment."""
        rows: List[ElasticTenantRow] = []
        for name in sorted(self._history):
            history = self._history[name]
            clients = self._clients_of(name)
            issued = sum(c.stats.issued for c in clients)
            completed = sum(c.stats.completed for c in clients)
            slo_late = sum(c.stats.slo_late for c in clients)
            latencies: List[int] = []
            for client in clients:
                latencies.extend(client.stats.latencies_ns)
            dropped = issued - completed
            rows.append(
                ElasticTenantRow(
                    tenant=name,
                    servers=tuple(history["servers"]),
                    admitted_ns=history["admitted_ns"],
                    departed_ns=history["departed_ns"],
                    issued=issued,
                    completed=completed,
                    dropped=dropped,
                    slo_violations=slo_late + dropped,
                    migration_slo_charge=history["migration_slo_charge"],
                    p50_ms=percentile(latencies, 50) / 1e6,
                    p99_ms=percentile(latencies, 99) / 1e6,
                    resizes=history["resizes"],
                    migrations=history["migrations"],
                )
            )
        return rows

    def outcome(self) -> ElasticOutcome:
        counters = {
            f"server{s.index}": {
                k: int(v) for k, v in sorted(s.system.tracer.counters.items())
            }
            for s in self.fleet.servers
        }
        end_ns = {
            f"server{s.index}": s.system.sim.now for s in self.fleet.servers
        }
        return ElasticOutcome(
            rows=self.tenant_rows(),
            timeline=list(self.timeline),
            counts=dict(self.counts),
            audit_problems=list(self.audit_problems),
            counters=counters,
            end_ns=end_ns,
        )


# ---------------------------------------------------------------------------
# the epoch loop


def run_elastic(
    spec: ScenarioSpec,
    churn: Optional[ChurnSpec] = None,
    autoscale: Optional[AutoscalePolicy] = None,
    rebalance: Optional[RebalancePolicy] = None,
    epoch_ns: int = ms(25),
    costs: CostModel = DEFAULT_COSTS,
    admission: str = "strict",
) -> ElasticOutcome:
    """Serve one elastic scenario end to end and return its outcome.

    The controller advances every server to common epoch boundaries in
    serving time and, at each boundary, processes departures, then
    arrivals, then autoscaling, then (at most one) rebalancing
    migration.  The whole run is deterministic in ``spec.seed``.
    """
    controller = FleetController(spec, costs=costs, admission=admission)
    horizon = spec.duration_ns
    controller.start_serving(horizon)
    schedule = (
        churn_schedule(churn, spec.seed, horizon) if churn is not None else []
    )
    arrivals = list(schedule)  # consumed front to back (time-sorted)
    departures: List[Tuple[int, str]] = []
    live_churn = 0
    #: per-tenant issued totals at the previous epoch (autoscale signal)
    last_issued: Dict[str, int] = {}

    t = 0
    while t < horizon:
        t = min(t + epoch_ns, horizon)
        controller.advance_to(t)

        # departures first: free capacity before admitting newcomers
        departures.sort()
        while departures and departures[0][0] <= t:
            _, name = departures.pop(0)
            if name in controller.where:
                controller.evict(
                    name,
                    churn.drain_ns if churn is not None else spec.drain_ns,
                    reason="lifetime over",
                )
                live_churn -= 1

        while arrivals and arrivals[0].t_ns <= t:
            arrival = arrivals.pop(0)
            tenant = churn.tenant_factory(arrival.index)
            if live_churn >= churn.max_concurrent:
                controller.counts["reject"] += 1
                controller.timeline.append(
                    FleetEvent(
                        t,
                        "reject",
                        tenant.name,
                        -1,
                        f"churn cap {churn.max_concurrent} reached",
                    )
                )
                continue
            window = min(arrival.lifetime_ns, horizon - t)
            if window <= 0:
                continue
            server = controller.admit(tenant, window)
            if server is not None:
                live_churn += 1
                departures.append((t + arrival.lifetime_ns, tenant.name))

        if autoscale is not None:
            epoch_s = epoch_ns / 1e9
            for name in list(controller.where):
                tenant = controller.tenants[name]
                if tenant.traffic is None:
                    continue
                issued = sum(
                    c.stats.issued for c in controller._clients_of(name)
                )
                observed_rps = (issued - last_issued.get(name, 0)) / epoch_s
                last_issued[name] = issued
                desired = autoscale.desired_vcpus(
                    observed_rps, tenant.vm.n_vcpus
                )
                active = controller.active_vcpus[name]
                if desired != active:
                    step = active + (1 if desired > active else -1)
                    controller.resize(name, step)

        if rebalance is not None and t < horizon:
            _maybe_rebalance(controller, rebalance, horizon - t)

    controller.finish()
    return controller.outcome()


def _maybe_rebalance(
    controller: FleetController,
    policy: RebalancePolicy,
    window_ns: int,
) -> None:
    """One rebalancing decision: move the smallest movable tenant from
    the fullest server to the emptiest when imbalance crosses the
    threshold and the move strictly reduces it."""
    fleet = controller.fleet
    capacity = [server_capacity(c) for c in fleet.spec.servers]
    used = [
        capacity[i] - controller.free[i] for i in range(len(capacity))
    ]
    fullest = max(range(len(used)), key=lambda i: (used[i], -i))
    emptiest = min(range(len(used)), key=lambda i: (used[i], i))
    imbalance = used[fullest] - used[emptiest]
    if fullest == emptiest or imbalance < policy.imbalance_threshold:
        return
    movable = sorted(
        (
            controller.active_vcpus[name],
            name,
        )
        for name, server in controller.where.items()
        if server == fullest
    )
    for size, name in movable:
        # migrate rebuilds the CVM at its spec size, which exceeds the
        # active count of a tenant the autoscaler shrank
        if controller.tenants[name].vm.n_vcpus > controller.free[emptiest]:
            continue
        # the move must strictly reduce imbalance, not just shuffle it
        if (used[fullest] - size) - (used[emptiest] + size) <= -imbalance:
            continue
        controller.migrate(name, emptiest, window_ns, policy)
        return


# ---------------------------------------------------------------------------
# the elastic sweep


#: sweep variants: each exercises one lifecycle axis, ``full`` all three
ELASTIC_VARIANTS: Tuple[str, ...] = ("churn", "autoscale", "rebalance", "full")


def default_churn_tenant(index: int) -> TenantSpec:
    """The standard churned tenant: a small 2-vCPU Redis server."""
    from .spec import redis_tenant

    return redis_tenant(f"churn-{index}", n_vcpus=2, rate_rps=3000.0)


def _elastic_case(variant: str, duration_ns: int, seed: int, costs: CostModel):
    """Build (spec, churn, autoscale, rebalance) for one sweep variant.

    Unlike the static fleet sweep, an elastic cell is a *whole*
    scenario (migration couples servers), so each variant is exactly
    one cell and the per-variant policies live here, not in cell
    kwargs (policy objects carry callables and must not be pickled).
    """
    from ..experiments.config import SystemConfig
    from .spec import redis_tenant, uniform_rack
    from .sweep import consolidation_scenario

    churn = autoscale = rebalance = None
    if variant in ("churn", "autoscale", "full"):
        spec = consolidation_scenario(
            level=1,
            mode="gapped",
            n_servers=2,
            duration_ns=duration_ns,
            seed=seed,
            costs=costs,
        )
        if variant in ("churn", "full"):
            churn = ChurnSpec(
                arrival_rate_per_s=120.0,
                mean_lifetime_ns=ms(25),
                tenant_factory=default_churn_tenant,
                max_concurrent=3,
            )
        if variant in ("autoscale", "full"):
            # 6000 rps static tenants over-provisioned at 4 vCPUs:
            # ceil(6000/2500) = 3 makes the scaler shed a core per tenant
            autoscale = AutoscalePolicy(rps_per_vcpu=2500.0)
        if variant == "full":
            rebalance = RebalancePolicy(imbalance_threshold=4)
    elif variant == "rebalance":
        spec = ScenarioSpec(
            servers=uniform_rack(
                2,
                SystemConfig(mode="gapped", n_cores=16),
                seed=derive_seed(seed, "fleet-sweep", "elastic-rebalance"),
            ),
            tenants=(
                redis_tenant("big", n_vcpus=4, rate_rps=4000.0, costs=costs),
                redis_tenant("small", n_vcpus=2, rate_rps=2000.0, costs=costs),
            ),
            duration_ns=duration_ns,
            seed=seed,
            placement="pack",
        )
        rebalance = RebalancePolicy(imbalance_threshold=3)
    else:
        raise ValueError(
            f"unknown elastic variant {variant!r}; expected one of "
            f"{ELASTIC_VARIANTS}"
        )
    return spec, churn, autoscale, rebalance


def run_elastic_case(
    variant: str,
    duration_ns: int = ms(60),
    seed: int = 0,
    costs: CostModel = DEFAULT_COSTS,
) -> Dict:
    """One elastic sweep data point, as a picklable summary dict."""
    from dataclasses import asdict

    spec, churn, autoscale, rebalance = _elastic_case(
        variant, duration_ns, seed, costs
    )
    outcome = run_elastic(
        spec,
        churn=churn,
        autoscale=autoscale,
        rebalance=rebalance,
        epoch_ns=ms(10),
        costs=costs,
    )
    issued = sum(row.issued for row in outcome.rows)
    completed = sum(row.completed for row in outcome.rows)
    return {
        "variant": variant,
        "counts": dict(outcome.counts),
        "issued": issued,
        "completed": completed,
        "dropped": issued - completed,
        "worst_p99_ms": max((r.p99_ms for r in outcome.rows), default=0.0),
        "slo_violations": sum(r.slo_violations for r in outcome.rows),
        "migration_slo_charge": sum(
            r.migration_slo_charge for r in outcome.rows
        ),
        "conservation_ok": outcome.conservation_ok,
        "audit_problems": list(outcome.audit_problems),
        "tenants": [asdict(row) for row in outcome.rows],
        "timeline": [asdict(event) for event in outcome.timeline],
        "counters": outcome.counters,
        "end_ns": outcome.end_ns,
    }


def elastic_cells(
    variants: Tuple[str, ...] = ELASTIC_VARIANTS,
    duration_ns: int = ms(60),
    seed: int = 0,
    costs: CostModel = DEFAULT_COSTS,
):
    """The elastic sweep as independent runner cells, in merge order."""
    from ..experiments.runner import cell

    return [
        cell(
            f"elastic/{variant}",
            run_elastic_case,
            variant=variant,
            duration_ns=duration_ns,
            seed=seed,
            costs=costs,
        )
        for variant in variants
    ]


def run_elastic_sweep(
    variants: Tuple[str, ...] = ELASTIC_VARIANTS,
    duration_ns: int = ms(60),
    seed: int = 0,
    costs: CostModel = DEFAULT_COSTS,
    jobs: Optional[int] = None,
) -> Dict[str, Dict]:
    """Run every variant; returns ``variant -> summary`` in sweep order."""
    from ..experiments.runner import run_cells

    cells = elastic_cells(variants, duration_ns, seed, costs)
    outputs = run_cells(cells, jobs=jobs)
    return {summary["variant"]: summary for summary in outputs}


def storm_stream(seed: int):
    """Seeded decision stream for the hotplug-storm chaos harness.

    Lives here (not in the harness) because this module is the
    sanctioned seed root for fleet-lifecycle processes: storm decisions
    are churn-domain draws, derived from the scenario seed exactly like
    the arrival/lifetime schedule.
    """
    factory = RngFactory(derive_seed(seed, "fleet-churn", "storm"))
    return factory.stream("churn:storm")
