"""The benchmark's four workloads, driven only through public entry points.

Each workload builds its simulated system, runs it in timed steps, and
returns what the matching sweep entry point would return, a digest of
the result, the simulated metrics, exact work counts, and the problems
its correctness checks found.  The simulator's host time is read only
here, around the calls into it, never inside it.

Run one workload once and print its result as one JSON line (this is
what ``bench.py`` starts in a fresh process for every run)::

    python benchmarks/e2e/workloads.py --workload coremark-gapped --seed 0 [--profile]
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
)

from repro.analysis.stats import percentile  # noqa: E402
from repro.costs import DEFAULT_COSTS  # noqa: E402
from repro.experiments.config import SystemConfig  # noqa: E402
from repro.experiments.runner import canonical_digest  # noqa: E402
from repro.experiments.system import System  # noqa: E402
from repro.fleet import (  # noqa: E402
    boot_server,
    consolidation_scenario,
    drain_and_finish,
    place,
    tenant_results,
)
from repro.fleet.elastic import FleetController, run_elastic_case  # noqa: E402
from repro.guest.vm import GuestVm  # noqa: E402
from repro.guest.workloads import (  # noqa: E402
    CoremarkStats,
    NetpipeStats,
    coremark_score,
    coremark_workload_factory,
    netpipe_workload_factory,
)
from repro.guest.workloads.netpipe import DEFAULT_SIZES  # noqa: E402
from repro.security.audit import CoreGapAuditor, audit_conservation  # noqa: E402
from repro.sim.clock import ms, sec  # noqa: E402

from layers import attribute  # noqa: E402

__all__ = ["WORKLOADS", "Timer", "Result", "run_workload"]


def _now() -> float:
    return time.perf_counter()  # lint: allow(DET001) - host time of the benchmark


class Timer:
    """Host-time samples of one run, taken around entry-point calls.

    ``run()`` brackets set-up plus the measured phase (and is the only
    region a profiler sees); ``setup()`` and ``step()`` nest inside it.
    The measured phase is cut into ``segments_s`` at every step
    boundary: the steps themselves and the stretches between them, in
    program order, so a deterministic workload cuts every run into the
    same segments.
    """

    def __init__(self, profile: bool = False):
        self.setup_s: List[float] = []
        self.steps_s: List[float] = []
        self.segments_s: List[float] = []
        self.run_s = 0.0
        #: peak resident set at the end of the last run(), before the
        #: checks allocate their own copies of the state
        self.peak_rss_mb = 0.0
        self.profiler = cProfile.Profile() if profile else None
        self._mark = 0.0

    def _cut(self) -> float:
        """End the segment open since the last mark; returns now."""
        now = _now()
        self.segments_s.append(now - self._mark)
        self._mark = now
        return now

    @contextlib.contextmanager
    def run(self):
        if self.profiler is not None:
            self.profiler.enable()
        start = self._mark = _now()
        try:
            yield
        finally:
            self.run_s += self._cut() - start
            if self.profiler is not None:
                self.profiler.disable()
            usage = resource.getrusage(resource.RUSAGE_SELF)
            self.peak_rss_mb = usage.ru_maxrss / 1024

    @contextlib.contextmanager
    def setup(self):
        start = self._cut()
        try:
            yield
        finally:
            self._mark = _now()
            self.setup_s.append(self._mark - start)

    @contextlib.contextmanager
    def step(self):
        self._cut()
        try:
            yield
        finally:
            self._cut()
            self.steps_s.append(self.segments_s[-1])

    @property
    def wall_s(self) -> float:
        """Host time of the measured phase: the run minus its set-up."""
        return sum(self.segments_s)


@dataclass
class Result:
    """What one run of a workload produced (timings live in the Timer)."""

    #: the value the sweep's own entry point returns for this input
    shipped: object
    digest: str
    #: simulated results; they must repeat exactly
    sim: Dict[str, float]
    #: exact work counts read from public state, summed over servers
    counts: Dict[str, float]
    problems: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# checks and counts shared by every workload


def _system_problems(system: System, label: str) -> List[str]:
    """Core-gap audit and accounting conservation after the timed window."""
    report = CoreGapAuditor().audit(system.machine)
    problems = [f"{label}: {v}" for v in report.sharing + report.residency]
    problems += [
        f"{label}: {p}"
        for p in audit_conservation(system.tracer, end_ns=system.sim.now)
    ]
    return problems


def _request_problems(system: System, clients, label: str) -> List[str]:
    """offered == completed + dropped, against the server's own tallies."""
    offered = sum(client.stats.issued for client in clients)
    completed = system.metrics.counter("fleet_request_count").value
    dropped = system.metrics.gauge("fleet_dropped_count").value or 0
    if offered != completed + dropped:
        return [
            f"{label}: offered {offered} != completed {completed} "
            f"+ dropped {dropped}"
        ]
    return []


def _counts(systems: List[System]) -> Dict[str, float]:
    """The exact work counts of ``systems``, summed over servers."""
    counters = [system.tracer.counters for system in systems]

    def total(name: str) -> int:
        return sum(int(c.get(name, 0)) for c in counters)

    return {
        "sim.events": sum(system.sim._seq for system in systems),
        "host.exits": total("exits_total"),
        "host.virq_injects": total("host_virq_inject"),
        "host.hotplug_transitions": sum(
            len(system.planner.hotplug.transitions()) for system in systems
        ),
        "rpc.submits": sum(
            port.submit_count
            for system in systems
            for kvm in system.kvms
            for port in kvm.ports.values()
        ),
        "rpc.sync_calls": sum(
            system.planner.sync_port.call_count for system in systems
        ),
        "hw.sgis": sum(system.machine.gic.sgi_sent for system in systems),
        "rmm.timer_injects": total("rmm_local_timer_inject"),
        "rmm.rec_unbinds": total("rec_unbind_count"),
        "fleet.requests": 0,
        "fleet.verbs": 0,
        "fleet.rejects": 0,
    }


# ---------------------------------------------------------------------------
# the workloads


def coremark_gapped(
    seed: int, timer: Timer, n_steps: int = 60, step_ns: int = ms(5)
) -> Result:
    """The fig6 ``gapped/64`` cell: 63 CoreMark vCPUs, 1 host core.

    Compute-bound with almost no exits.  ``seed`` is not consumed: the
    cell has no random input.
    """
    with timer.run():
        with timer.setup():
            system = System(SystemConfig(mode="gapped", n_cores=64))
            stats = CoremarkStats()
            vm = GuestVm(
                "coremark0", 63, coremark_workload_factory(stats),
                costs=DEFAULT_COSTS,
            )
            kvm = system.launch(vm)
            system.start(kvm)
        start = system.sim.now
        for _ in range(n_steps):
            with timer.step():
                system.run_for(step_ns)
        elapsed = system.sim.now - start
        system.finish()
    score = coremark_score(stats, elapsed)
    return Result(
        shipped=(score, list(system.tracer.samples("run_to_run_ns"))),
        digest=system.state_digest(),
        sim={"sim_score": score},
        counts=_counts([system]),
        problems=_system_problems(system, "server0"),
    )


def netpipe_virtio(
    seed: int,
    timer: Timer,
    sizes: Optional[List[int]] = None,
    pings: int = 150,
    per_step: int = 10,
) -> Result:
    """The fig8 ``gapped/virtio`` cell: ping-pong through an emulated NIC.

    Exit-bound: every send is an MMIO doorbell handled on the host core
    over async RPC.  ``seed`` is not consumed.
    """
    sizes = list(sizes or DEFAULT_SIZES)
    with timer.run():
        with timer.setup():
            system = System(SystemConfig(mode="gapped", n_cores=4))
            stats = NetpipeStats()
            vm = GuestVm(
                "netpipe",
                3,
                netpipe_workload_factory(
                    stats,
                    "virtio-net0",
                    False,
                    clock=lambda: system.sim.now,
                    sizes=sizes,
                    pings_per_size=pings,
                    costs=DEFAULT_COSTS,
                ),
                costs=DEFAULT_COSTS,
            )
            kvm = system.launch(vm)
            system.add_virtio_net(kvm, "virtio-net0", echo_peer=True)
            system.start(kvm)

        def done() -> int:
            return sum(len(v) for v in stats.rtt_ns.values())

        expected = len(sizes) * pings
        for target in range(per_step, expected + per_step, per_step):
            goal = min(target, expected)
            with timer.step():
                system.run_until(lambda: done() >= goal, limit_ns=sec(30))
    small = stats.rtt_ns.get(sizes[0], [])
    problems = _system_problems(system, "server0")
    if done() != expected:
        problems.append(f"{done()} round trips, expected {expected}")
    return Result(
        shipped=stats,
        digest=system.state_digest(),
        sim={"sim_p99_us": percentile(small, 99) / 1e3},
        counts=_counts([system]),
        problems=problems,
    )


def _serving_sim(issued: int, dropped: int, violations: int, p99_ms: float):
    return {
        "sim_p99_us": p99_ms * 1e3,
        "sim_drop_ratio": dropped / issued if issued else 0.0,
        "sim_slo_violation_ratio": violations / issued if issued else 0.0,
    }


def redis_fleet(
    seed: int, timer: Timer, duration_ns: int = ms(60), slice_ns: int = ms(1)
) -> Result:
    """The fleet sweep's ``3/gapped`` point: 6 open-loop Redis tenants.

    Two 16-core gapped servers, three 4-vCPU tenants each, served one
    server after the other in ``slice_ns`` steps, as the sweep's
    per-server cells do.  The Poisson arrival streams consume ``seed``.
    """
    with timer.run():
        with timer.setup():
            spec = consolidation_scenario(
                level=3, mode="gapped", n_servers=2,
                duration_ns=duration_ns, seed=seed,
            )
            placement = place(spec)
            servers = [
                boot_server(spec, placement, index)
                for index in range(len(spec.servers))
            ]
        rows = []
        for server in servers:
            for client in server.clients:
                client.start(spec.duration_ns)
            for start in range(0, duration_ns, slice_ns):
                with timer.step():
                    server.system.run_for(min(slice_ns, duration_ns - start))
            drain_and_finish(server, spec)
            rows.append(tenant_results(server))
    problems = [f"rejected {name}: {why}" for name, why in placement.rejected]
    for server in servers:
        label = f"server{server.index}"
        problems += _system_problems(server.system, label)
        problems += _request_problems(server.system, server.clients, label)
    tenants = [row for server_rows in rows for row in server_rows]
    issued = sum(row.issued for row in tenants)
    counts = _counts([server.system for server in servers])
    counts["fleet.requests"] = issued
    return Result(
        shipped=rows,
        digest=canonical_digest(rows),
        sim=_serving_sim(
            issued,
            sum(row.dropped for row in tenants),
            sum(row.slo_violations for row in tenants),
            max(row.p99_ms for row in tenants),
        ),
        counts=counts,
        problems=problems,
    )


#: the lifecycle verbs a step of ``elastic-churn`` times
_VERBS = ("admit", "evict", "resize", "migrate")


@contextlib.contextmanager
def _instrumented(timer: Timer, controllers: List[FleetController]):
    """Time ``FleetController`` construction as set-up and each lifecycle
    verb as a step, and keep every controller for the checks."""
    originals = {name: getattr(FleetController, name) for name in _VERBS}
    original_init = FleetController.__init__

    def init(self, *args, **kwargs):
        with timer.setup():
            original_init(self, *args, **kwargs)
        controllers.append(self)

    def timed(verb: Callable) -> Callable:
        def wrapper(self, *args, **kwargs):
            with timer.step():
                return verb(self, *args, **kwargs)

        return wrapper

    FleetController.__init__ = init
    for name, verb in originals.items():
        setattr(FleetController, name, timed(verb))
    try:
        yield
    finally:
        FleetController.__init__ = original_init
        for name, verb in originals.items():
            setattr(FleetController, name, verb)


def elastic_churn(
    seed: int, timer: Timer, cases: int = 2, duration_ns: int = ms(50)
) -> Result:
    """The elastic sweep's ``full`` case: churn, autoscale, rebalance.

    A run serves the racks with seeds ``0 .. cases - 1`` (seed 0 is the
    one the elastic sweep ships), one after the other; each is checked
    and released before the next one boots, as the sweep's one-rack
    cells are.  ``seed`` is not consumed: a rack's churn draws move its
    verb count by a quarter between seeds, more than a run can average.
    """
    summaries = []
    problems: List[str] = []
    case_counts = []
    for k in range(cases):
        controllers: List[FleetController] = []
        with _instrumented(timer, controllers), timer.run():
            summary = run_elastic_case("full", duration_ns, seed=k)
        summaries.append(summary)
        problems += [f"case{k}: {p}" for p in summary["audit_problems"]]
        if not summary["conservation_ok"]:
            problems.append(f"case{k}: request conservation broken")
        for server in controllers[0].fleet.servers:
            label = f"case{k}/server{server.index}"
            problems += _system_problems(server.system, label)
            problems += _request_problems(server.system, server.clients, label)
        systems = [server.system for server in controllers[0].fleet.servers]
        case_counts.append(_counts(systems))
    counts = {key: sum(c[key] for c in case_counts) for key in case_counts[0]}
    issued = sum(s["issued"] for s in summaries)
    counts["fleet.requests"] = issued
    counts["fleet.verbs"] = len(timer.steps_s)
    counts["fleet.rejects"] = sum(s["counts"]["reject"] for s in summaries)
    return Result(
        shipped=summaries,
        digest=canonical_digest(summaries),
        sim=_serving_sim(
            issued,
            sum(s["dropped"] for s in summaries),
            sum(s["slo_violations"] for s in summaries),
            max(s["worst_p99_ms"] for s in summaries),
        ),
        counts=counts,
        problems=problems,
    )


#: name -> workload, in the order runs go round-robin
WORKLOADS: Dict[str, Callable[..., Result]] = {
    "coremark-gapped": coremark_gapped,
    "netpipe-virtio": netpipe_virtio,
    "redis-fleet": redis_fleet,
    "elastic-churn": elastic_churn,
}


def run_workload(name: str, seed: int, profile: bool = False) -> Dict:
    """One run of one workload, as the JSON-ready record ``bench.py`` reads."""
    timer = Timer(profile=profile)
    result = WORKLOADS[name](seed, timer)
    record = {
        "workload": name,
        "seed": seed,
        "setup_s": timer.setup_s,
        "wall_s": timer.wall_s,
        "run_s": timer.run_s,
        "steps_s": timer.steps_s,
        "segments_s": timer.segments_s,
        "peak_rss_mb": timer.peak_rss_mb,
        "digest": result.digest,
        "sim": result.sim,
        "counts": result.counts,
        "problems": result.problems,
    }
    if timer.profiler is not None:
        record["layers"] = attribute(timer.profiler)
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_workload(args.workload, args.seed, args.profile)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
