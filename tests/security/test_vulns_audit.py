"""Tests for the vulnerability catalog (fig. 3) and the auditor."""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs import DEFAULT_COSTS
from repro.experiments.config import SystemConfig
from repro.experiments.workbench import build_system, vcpus_for
from repro.guest.vm import GuestVm
from repro.guest.workloads import CoremarkStats, coremark_workload_factory
from repro.hw import Machine, SocTopology
from repro.isa import HOST_DOMAIN, MONITOR_DOMAIN, realm_domain
from repro.security import (
    CATALOG,
    CoreGapAuditor,
    Kind,
    Scope,
    mitigated_by_core_gapping,
    render_fig3,
    timeline,
    unmitigated,
)
from repro.sim.clock import us
from repro.sim.trace import Tracer


class TestCatalog:
    def test_catalog_covers_thirty_plus_vulns(self):
        assert len(CATALOG) >= 30

    def test_years_span_2018_to_2024(self):
        years = {v.year for v in CATALOG}
        assert min(years) == 2018
        assert max(years) == 2024

    def test_only_crosstalk_and_netspectre_survive(self):
        """The paper's headline claim (S2.2 / fig. 3): every catalogued
        vulnerability except CrossTalk, NetSpectre (and the MWAIT
        side channel) is closed by core gapping."""
        names = {v.name for v in unmitigated()}
        assert "CrossTalk" in names
        assert "NetSpectre" in names
        assert "Spectre" not in names
        assert "Meltdown" not in names
        # everything unmitigated is genuinely cross-core or remote
        for vuln in unmitigated():
            assert vuln.scope in (Scope.CROSS_CORE, Scope.REMOTE)

    def test_ghostrace_mitigated_despite_cross_core(self):
        ghostrace = next(v for v in CATALOG if v.name == "GhostRace")
        assert ghostrace.scope is Scope.CROSS_CORE
        assert ghostrace.needs_shared_kernel
        assert mitigated_by_core_gapping(ghostrace)

    def test_sibling_thread_attacks_mitigated(self):
        for vuln in CATALOG:
            if vuln.scope is Scope.SIBLING_THREAD:
                assert mitigated_by_core_gapping(vuln), vuln.name

    def test_timeline_sorted(self):
        years = [v.year for v in timeline()]
        assert years == sorted(years)

    def test_both_kinds_present(self):
        kinds = {v.kind for v in CATALOG}
        assert kinds == {Kind.TRANSIENT, Kind.ARCH_BUG}

    def test_render_mentions_every_vuln(self):
        text = render_fig3()
        for vuln in CATALOG:
            assert vuln.name in text

    def test_mitigation_ratio_matches_paper(self):
        closed = sum(1 for v in CATALOG if mitigated_by_core_gapping(v))
        # "the vast majority (30+) were not exploitable across cores"
        assert closed >= 30


class TestAuditor:
    def test_clean_trace_passes(self):
        tracer = Tracer()
        tracer.begin_span(0, 0, "host")
        tracer.end_span(100, 0)
        tracer.begin_span(0, 1, "realm:1")
        tracer.end_span(100, 1)
        auditor = CoreGapAuditor()
        assert auditor.audit_schedule(tracer) == []

    def test_time_sliced_sharing_detected(self):
        """Host runs *between* two guest spans: inside the guest's
        occupancy window, i.e. the classic time-slicing leak."""
        tracer = Tracer()
        tracer.begin_span(0, 0, "realm:1")
        tracer.end_span(100, 0)
        tracer.begin_span(100, 0, "host")
        tracer.end_span(200, 0)
        tracer.begin_span(200, 0, "realm:1")
        tracer.end_span(300, 0)
        violations = CoreGapAuditor().audit_schedule(tracer)
        assert len(violations) == 1
        assert violations[0].core == 0

    def test_host_before_guest_lifetime_allowed(self):
        """The host legitimately used the core before it was dedicated
        (S3: the invariant covers first-to-last instruction of the
        vCPU, not all of history)."""
        tracer = Tracer()
        tracer.begin_span(0, 0, "host")
        tracer.end_span(100, 0)
        tracer.begin_span(100, 0, "realm:1")
        tracer.end_span(200, 0)
        assert CoreGapAuditor().audit_schedule(tracer) == []

    def test_host_before_and_after_allowed(self):
        """Hotplug off, realm lifetime, reclaim, hotplug on: clean."""
        tracer = Tracer()
        tracer.begin_span(0, 0, "host")
        tracer.end_span(100, 0)
        tracer.begin_span(100, 0, "realm:1")
        tracer.end_span(200, 0)
        tracer.begin_span(200, 0, "host")
        tracer.end_span(300, 0)
        assert CoreGapAuditor().audit_schedule(tracer) == []

    def test_monitor_sharing_allowed(self):
        tracer = Tracer()
        tracer.begin_span(0, 0, "realm:1")
        tracer.end_span(100, 0)
        tracer.begin_span(100, 0, MONITOR_DOMAIN.name)
        tracer.end_span(200, 0)
        tracer.begin_span(200, 0, "realm:1")
        tracer.end_span(300, 0)
        assert CoreGapAuditor().audit_schedule(tracer) == []

    def test_interleaved_realms_on_one_core_flagged(self):
        """Two realms time-slicing one core: the co-scheduling attack
        the binding enforcement exists to prevent."""
        tracer = Tracer()
        tracer.begin_span(0, 0, "realm:1")
        tracer.end_span(100, 0)
        tracer.begin_span(100, 0, "realm:2")
        tracer.end_span(200, 0)
        tracer.begin_span(200, 0, "realm:1")
        tracer.end_span(300, 0)
        violations = CoreGapAuditor().audit_schedule(tracer)
        assert len(violations) == 1

    def test_tenure_cut_splits_occupancy_window(self):
        """Unbind + scrub ends the realm's tenure: host use between two
        *tenures* of the same realm on the same core is legitimate
        (shrink parks the vCPU, the host reclaims the core, a later
        grow re-dedicates it)."""
        tracer = Tracer()
        tracer.begin_span(0, 0, "realm:1")
        tracer.end_span(100, 0)
        tracer.tenure_cut(100, 0, "realm:1")
        tracer.begin_span(100, 0, "host")
        tracer.end_span(200, 0)
        tracer.begin_span(200, 0, "realm:1")
        tracer.end_span(300, 0)
        assert CoreGapAuditor().audit_schedule(tracer) == []

    def test_tenure_cut_does_not_excuse_sharing_within_a_tenure(self):
        """A cut on another core (or after the fact) changes nothing:
        host time inside one uncut occupancy window stays a violation."""
        tracer = Tracer()
        tracer.begin_span(0, 0, "realm:1")
        tracer.end_span(100, 0)
        tracer.tenure_cut(100, 1, "realm:1")  # different core
        tracer.begin_span(100, 0, "host")
        tracer.end_span(200, 0)
        tracer.begin_span(200, 0, "realm:1")
        tracer.end_span(300, 0)
        violations = CoreGapAuditor().audit_schedule(tracer)
        assert len(violations) == 1

    def test_sequential_realms_clean_after_scrub(self):
        """Realm 2 reuses realm 1's core after destruction: legitimate
        (the release path flushes all microarchitectural state; the
        residency audit checks that side)."""
        tracer = Tracer()
        tracer.begin_span(0, 0, "realm:1")
        tracer.end_span(100, 0)
        tracer.begin_span(100, 0, "realm:2")
        tracer.end_span(200, 0)
        assert CoreGapAuditor().audit_schedule(tracer) == []

    def test_residency_violation_detected(self):
        machine = Machine(SocTopology(name="a", n_cores=2, memory_gib=1))
        core = machine.core(0)
        core.uarch.l1d.access(0x100, realm_domain(1))
        core.uarch.l1d.access(0x200, HOST_DOMAIN)
        violations = CoreGapAuditor().audit_residency(machine)
        assert any(v.structure == "l1d" and v.core == 0 for v in violations)

    def test_residency_clean_when_separated(self):
        machine = Machine(SocTopology(name="a", n_cores=2, memory_gib=1))
        machine.core(0).uarch.l1d.access(0x100, realm_domain(1))
        machine.core(1).uarch.l1d.access(0x200, HOST_DOMAIN)
        assert CoreGapAuditor().audit_residency(machine) == []

    def test_monitor_residency_allowed(self):
        machine = Machine(SocTopology(name="a", n_cores=1, memory_gib=1))
        machine.core(0).uarch.l1d.access(0x100, realm_domain(1))
        machine.core(0).uarch.l1d.access(0x200, MONITOR_DOMAIN)
        assert CoreGapAuditor().audit_residency(machine) == []

    def test_report_summary(self):
        tracer = Tracer()
        tracer.begin_span(0, 0, "realm:1")
        tracer.end_span(10, 0)
        machine = Machine(SocTopology(name="a", n_cores=1, memory_gib=1))
        report = CoreGapAuditor().audit(machine, tracer)
        assert report.clean
        assert "CLEAN" in report.summary()


GUESTS = ("realm:1", "realm:2", "vm:a")
DOMAINS = GUESTS + ("host", "monitor", "idle")


def keys(violations):
    return [(v.core, *sorted((v.domain_a, v.domain_b))) for v in violations]


def oracle_keys(tracer):
    """Brute force: split each guest's spans on a core into tenures by
    the number of its cuts at or before the span's start, take each
    tenure's window as [min start, max end], and test every span on
    that core of a domain the guest distrusts against every window."""
    found = set()
    for core in {s.core for s in tracer.spans}:
        on_core = [s for s in tracer.spans if s.core == core]
        for guest in GUESTS:
            cuts = [
                c.time
                for c in tracer.tenure_cuts
                if (c.core, c.domain) == (core, guest)
            ]
            tenures = defaultdict(list)
            for s in on_core:
                if s.domain == guest:
                    tenures[sum(t <= s.start for t in cuts)].append(s)
            for tenure in tenures.values():
                first = min(s.start for s in tenure)
                last = max(s.end for s in tenure)
                found.update(
                    (core, *sorted((guest, s.domain)))
                    for s in on_core
                    if s.domain not in (guest, "monitor", "idle")
                    and s.start < last
                    and s.end > first
                )
    return found


#: one core's history: (domain, idle gap before, duration, how long
#: after its end the span is recorded; late ones go in by insert_span)
core_history = st.lists(
    st.tuples(
        st.sampled_from(DOMAINS),
        st.integers(0, 3),
        st.integers(1, 4),
        st.sampled_from((0, 0, 0, 3, 9)),
    ),
    max_size=12,
)


class TestIncrementalAudit:
    @given(
        st.lists(core_history, min_size=1, max_size=3),
        st.lists(
            st.tuples(
                st.integers(0, 2), st.sampled_from(GUESTS), st.integers(0, 90)
            ),
            max_size=6,
        ),
        st.lists(st.integers(0, 100), max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_fold_matches_brute_force_at_every_audit(
        self, histories, cuts, audit_times
    ):
        events = []  # (when, order, action); spans, then cuts, then audits
        for core, history in enumerate(histories):
            t = 0
            for domain, gap, duration, delay in history:
                start, t = t + gap, t + gap + duration
                span = ("span", core, domain, start, t, delay)
                events.append((t + delay, 0, span))
        events += [(at, 1, ("cut", core, domain)) for core, domain, at in cuts]
        events += [(when, 2, ("audit",)) for when in audit_times]
        events.append((200, 2, ("audit",)))
        tracer = Tracer()
        kept = CoreGapAuditor()
        reported = []
        for when, _, action in sorted(events, key=lambda e: e[:2]):
            if action[0] == "span":
                _, core, domain, start, end, delay = action
                if delay:
                    tracer.insert_span(core, domain, start, end)
                else:
                    tracer.begin_span(start, core, domain)
                    tracer.end_span(end, core)
            elif action[0] == "cut":
                tracer.tenure_cut(when, action[1], action[2])
            else:
                reported += keys(kept.audit_schedule(tracer))
                expected = oracle_keys(tracer)
                assert len(reported) == len(set(reported))
                assert set(reported) == expected
                fresh = keys(CoreGapAuditor().audit_schedule(tracer))
                assert sorted(fresh) == sorted(expected)

    def test_kept_auditor_survives_coalesced_rewrites(self):
        """Compute-span coalescing inserts spans behind the prefix an
        auditor already folded; a kept auditor must refold and still
        agree with a fresh one at every step."""
        config = SystemConfig(
            mode="gapped", n_cores=4, seed=7, coalesce_compute=True
        )
        system = build_system(config, DEFAULT_COSTS)
        vm = GuestVm(
            "cm",
            vcpus_for(config, 4),
            coremark_workload_factory(CoremarkStats()),
            costs=DEFAULT_COSTS,
        )
        system.start(system.launch(vm))
        spans = system.tracer.spans
        kept = CoreGapAuditor()
        reported = []
        rewrites = folded = 0
        last = None
        for _ in range(40):
            system.run_for(us(250))
            rewrites += folded > 0 and spans[folded - 1] is not last
            reported += keys(kept.audit_schedule(system.tracer))
            fresh = keys(CoreGapAuditor().audit_schedule(system.tracer))
            assert sorted(reported) == sorted(fresh)
            folded, last = len(spans), spans[-1]
        assert rewrites >= 1, "no step rewrote the folded prefix"
