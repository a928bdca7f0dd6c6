"""Scheduler-swap digest equality: calendar queue == binary heap.

The calendar-queue scheduler is a pure performance substitution — by
contract (``SystemConfig.scheduler``) it must dispatch the exact event
sequence the legacy heap produces, including same-timestamp tie-break
order.  These tests replay the repo's digest workloads once per
implementation and diff the canonical digests: the fig6-style sanitizer
probe (exit-heavy gapped + shared KVM paths), a chaos run (fault
injection + hardening timers), and a fleet serving scenario — plus the
probe under permuted tie-break keys, where bucket-internal ordering is
most likely to betray a sort-stability bug.
"""

import pytest

from repro.experiments.chaos import (
    default_fault_plans,
    digest_chaos_outcome,
    run_chaos_case,
)
from repro.experiments.config import SystemConfig
from repro.experiments.runner import canonical_digest
from repro.fleet.spec import ScenarioSpec, redis_tenant, uniform_rack
from repro.lint.sanitizer import diff_digests, run_probe
from repro.sim.clock import ms


class TestProbeEquivalence:
    def test_calendar_matches_heap(self):
        calendar = run_probe(seed=3, n_cores=3, duration_ms=15)
        heap = run_probe(seed=3, n_cores=3, duration_ms=15, scheduler="heap")
        assert diff_digests(calendar, heap) == []

    @pytest.mark.parametrize("tie_break", ["lifo", "seeded:7"])
    def test_equivalence_holds_under_permuted_tie_break(self, tie_break):
        # non-fifo keys route the calendar engine through its heap
        # fallback, but the contract is scheduler-blindness for every
        # key: both engines must realize the same permuted schedule
        calendar = run_probe(
            seed=3, n_cores=3, duration_ms=15, tie_break=tie_break
        )
        heap = run_probe(
            seed=3,
            n_cores=3,
            duration_ms=15,
            tie_break=tie_break,
            scheduler="heap",
        )
        assert diff_digests(calendar, heap) == []


class TestChaosEquivalence:
    @pytest.mark.parametrize("plan_name", ["drop-exit-ipi", "dead-core"])
    def test_chaos_case_scheduler_blind(self, plan_name):
        plans = {plan.name: plan for plan in default_fault_plans()}
        calendar = digest_chaos_outcome(
            run_chaos_case("coremark", plans[plan_name], seed=11)
        )
        heap = digest_chaos_outcome(
            run_chaos_case(
                "coremark", plans[plan_name], seed=11, scheduler="heap"
            )
        )
        assert diff_digests(calendar, heap) == []


def _serving_digest(scheduler: str):
    template = SystemConfig(mode="gapped", n_cores=8, scheduler=scheduler)
    spec = ScenarioSpec(
        servers=uniform_rack(2, template, seed=5),
        tenants=(
            redis_tenant("alpha", n_vcpus=2, rate_rps=4000.0),
            redis_tenant("beta", n_vcpus=2, rate_rps=4000.0),
        ),
        duration_ns=ms(40),
        seed=5,
        placement="spread",
    )
    fleet = spec.boot()
    result = fleet.run()
    spans = [
        f"{srv.index}|{s.core}|{s.domain}|{s.start}|{s.end}"
        for srv in fleet.servers
        for s in srv.system.tracer.spans
    ]
    return canonical_digest((result.tenants, spans))


class TestFleetEquivalence:
    def test_serving_scenario_scheduler_blind(self):
        assert _serving_digest("calendar") == _serving_digest("heap")
