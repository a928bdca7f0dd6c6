"""repro.fleet: declarative scenarios + multi-server tenant serving.

The fleet layer stands on the :class:`~repro.experiments.system.System`
builder and gives it an API surface fit for racks instead of
one-off experiments:

* **specs** (:mod:`repro.fleet.spec`) -- ``VmSpec`` / ``TenantSpec`` /
  ``ScenarioSpec``: pure data describing servers, tenants, arrival
  process and duration; ``ScenarioSpec.boot()`` replaces the imperative
  ``System(...)`` + ``launch`` + ``add_*`` + ``run_until_*`` incantation;
* **placement** (:mod:`repro.fleet.placement`) -- core-gap-aware
  bin-packing with admission control: a CVM's vCPUs are a hard
  reservation of non-host cores, not a hint;
* **traffic** (:mod:`repro.fleet.traffic`) -- seeded open-loop Poisson
  load over the Table 5 Redis cost model, with per-tenant latency
  percentiles and SLO-violation accounting;
* **sweep** (:mod:`repro.fleet.sweep`) -- the ``fleet`` runner sweep:
  shared vs gapped racks across consolidation levels, one
  digest-deterministic cell per simulated server (servers are
  independent simulations, so a cell boots and serves one server);
* **recovery** (:mod:`repro.fleet.recovery`) -- the checkpoint/restore
  supervisor: periodic :mod:`repro.snap` checkpoints during serving,
  verified restore + fault detach when a server dies, and SLO-honest
  recovery accounting across the restore boundary;
* **elastic** (:mod:`repro.fleet.elastic`) -- the lifecycle API
  (:class:`~repro.fleet.elastic.FleetController` with
  admit/evict/resize/migrate verbs and an event-sourced timeline),
  seeded tenant churn, a hotplug-path vCPU autoscaler, and a
  snapshot-based rebalancer; ``ScenarioSpec.boot()`` is the static
  special case of this API.
"""

from .elastic import (
    AutoscalePolicy,
    ChurnSpec,
    ElasticOutcome,
    FleetController,
    FleetEvent,
    RebalancePolicy,
    churn_schedule,
    elastic_cells,
    run_elastic,
    run_elastic_sweep,
)
from .placement import FleetAdmissionError, Placement, place, server_capacity
from .recovery import (
    RecoveryError,
    RecoveryPolicy,
    RecoveryReport,
    RestoreEvent,
    audit_server,
    build_recoverable_server,
    run_server_with_recovery,
)
from .scenario import (
    BootedServer,
    BootedVm,
    Fleet,
    FleetResult,
    TenantResult,
    boot_server,
    boot_vm,
    drain_and_finish,
    run_server,
    tenant_results,
)
from .spec import (
    DeviceSpec,
    ScenarioSpec,
    TenantSpec,
    TrafficSpec,
    VmSpec,
    redis_tenant,
    uniform_rack,
)
from .sweep import FleetSweepResult, consolidation_scenario, fleet_cells, run_fleet
from .traffic import OpenLoopClient, TenantStats

__all__ = [
    "AutoscalePolicy",
    "BootedServer",
    "BootedVm",
    "ChurnSpec",
    "DeviceSpec",
    "ElasticOutcome",
    "Fleet",
    "FleetController",
    "FleetEvent",
    "RebalancePolicy",
    "FleetAdmissionError",
    "FleetResult",
    "FleetSweepResult",
    "OpenLoopClient",
    "Placement",
    "RecoveryError",
    "RecoveryPolicy",
    "RecoveryReport",
    "RestoreEvent",
    "ScenarioSpec",
    "TenantResult",
    "TenantSpec",
    "TenantStats",
    "TrafficSpec",
    "VmSpec",
    "audit_server",
    "boot_server",
    "boot_vm",
    "build_recoverable_server",
    "churn_schedule",
    "consolidation_scenario",
    "drain_and_finish",
    "elastic_cells",
    "fleet_cells",
    "place",
    "redis_tenant",
    "run_elastic",
    "run_elastic_sweep",
    "run_fleet",
    "run_server",
    "run_server_with_recovery",
    "server_capacity",
    "tenant_results",
]
