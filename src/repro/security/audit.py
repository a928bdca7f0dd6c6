"""The core-gap auditor: proving the invariant over simulated schedules.

The paper's security argument (S3) reduces to two checkable properties:

(a) all instructions of a confidential vCPU execute on one core, and
(b) from first to last instruction, only guest-trusted code (the
    monitor) runs on that core.

The auditor consumes the tracer's execution spans -- the ground truth of
which security domain occupied which core when -- and reports every
violation: a pair of mutually distrusting domains that both executed on
one physical core.  It also audits *residual microarchitectural state*:
after a run, no core-private structure may hold a distrusting pair.

Run on shared-core schedules it reports exactly the sharing the paper
calls leaking; on core-gapped schedules it must return clean.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..hw.machine import Machine
from ..isa.worlds import (
    HOST_DOMAIN,
    IDLE_DOMAIN,
    MONITOR_DOMAIN,
    ROOT_DOMAIN,
    SecurityDomain,
    World,
    realm_domain,
)
from ..sim.trace import ExecutionSpan, Tracer

__all__ = [
    "SharingViolation",
    "ResidencyViolation",
    "AuditReport",
    "CoreGapAuditor",
    "audit_conservation",
]


@dataclass(frozen=True)
class SharingViolation:
    """Two distrusting domains executed on the same core."""

    core: int
    domain_a: str
    domain_b: str
    #: first time each domain was seen on the core
    first_a: int
    first_b: int

    def __str__(self) -> str:
        return (
            f"core {self.core}: {self.domain_a} (t={self.first_a}) and "
            f"{self.domain_b} (t={self.first_b}) shared the core"
        )


@dataclass(frozen=True)
class ResidencyViolation:
    """A core-private structure holds state of distrusting domains."""

    core: int
    structure: str
    domains: Tuple[str, ...]

    def __str__(self) -> str:
        return (
            f"core {self.core}: {self.structure} holds state of "
            f"{', '.join(self.domains)}"
        )


@dataclass
class AuditReport:
    sharing: List[SharingViolation] = field(default_factory=list)
    residency: List[ResidencyViolation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.sharing and not self.residency

    def summary(self) -> str:
        if self.clean:
            return "AUDIT CLEAN: no distrusting domains ever shared a core"
        lines = [
            f"AUDIT FAILED: {len(self.sharing)} sharing violations, "
            f"{len(self.residency)} residency violations"
        ]
        lines += [f"  {v}" for v in self.sharing[:20]]
        lines += [f"  {v}" for v in self.residency[:20]]
        return "\n".join(lines)


def audit_conservation(
    tracer: Tracer, end_ns: int, start_ns: int = 0
) -> List[str]:
    """Accounting invariants (#8) that must hold on any schedule, fault
    injected or not.  Returns human-readable problems ([] when clean).

    * exit-count conservation: ``exits_total`` equals the sum of the
      per-reason ``exit:*`` counters (an exit that is counted must be
      attributed, and vice versa);
    * CPU-time conservation: per core, the summed execution-span time
      cannot exceed the wall-clock window, and no span runs backwards
      or escapes the window.
    """
    problems: List[str] = []
    counters = tracer.counters
    exits_total = int(counters.get("exits_total", 0))
    by_reason = sum(
        int(v) for k, v in counters.items() if k.startswith("exit:")
    )
    if exits_total != by_reason:
        problems.append(
            f"exit counts unbalanced: exits_total={exits_total} but "
            f"sum(exit:*)={by_reason}"
        )
    wall = end_ns - start_ns
    busy: Dict[int, int] = {}
    for span in tracer.spans:
        if span.end < span.start:
            problems.append(
                f"core {span.core}: span for {span.domain} runs "
                f"backwards ({span.start}..{span.end})"
            )
            continue
        if span.start < start_ns or span.end > end_ns:
            problems.append(
                f"core {span.core}: span for {span.domain} escapes the "
                f"window ({span.start}..{span.end} vs {start_ns}..{end_ns})"
            )
        busy[span.core] = busy.get(span.core, 0) + (span.end - span.start)
    for core, busy_ns in sorted(busy.items()):
        if busy_ns > wall:
            problems.append(
                f"core {core}: {busy_ns} ns of execution in a "
                f"{wall} ns window"
            )
    return problems


class CoreGapAuditor:
    """Checks schedules and residual state against the threat model.

    The schedule audit is a fold: an auditor remembers how far into a
    tracer it has read, so auditing after every transition costs the
    spans closed since the last audit; a fresh auditor folds it all.
    """

    def __init__(self, domains: Optional[Iterable[SecurityDomain]] = None):
        #: registry for resolving span names back to domain objects
        self._registry: Dict[str, SecurityDomain] = {
            d.name: d
            for d in (HOST_DOMAIN, MONITOR_DOMAIN, ROOT_DOMAIN, IDLE_DOMAIN)
        }
        #: cached per span name: is it a guest; does a guest distrust it
        self._guest: Dict[str, bool] = {}
        self._foe: Dict[Tuple[str, str], bool] = {}
        #: (core, *sorted pair) keys already reported, kept across refolds
        self._reported: Set[Tuple[int, str, str]] = set()
        self._restart(None)
        for domain in domains or ():
            self.register(domain)

    def register(self, domain: SecurityDomain) -> None:
        self._registry[domain.name] = domain
        self._guest.clear()
        self._foe.clear()

    def _resolve(self, name: str) -> SecurityDomain:
        domain = self._registry.get(name)
        if domain is None:
            if name.startswith("realm:"):
                domain = realm_domain(int(name.split(":", 1)[1]))
            else:
                domain = SecurityDomain(name, World.NORMAL)
            self._registry[name] = domain
        return domain

    def _restart(self, tracer: Optional[Tracer]) -> None:
        """Forget the fold, not what it reported."""
        self._tracer = tracer
        self._folded = self._cuts_folded = 0
        self._last: Optional[ExecutionSpan] = None
        #: (core, guest) -> tenure-cut times, in recording order
        self._cuts: Dict[Tuple[int, str], List[int]] = {}
        #: core -> guest -> [tenure index, first start, {foe: first start}]
        self._tenures: Dict[int, Dict[str, list]] = defaultdict(dict)

    # ------------------------------------------------------------------
    # schedule audit
    # ------------------------------------------------------------------

    def audit_schedule(self, tracer: Tracer) -> List[SharingViolation]:
        """Fold in the spans and tenure cuts recorded since this
        auditor's last call on ``tracer``; return the violations
        completed since then (each ``(core, pair)`` once per auditor).

        The paper's invariant (S3): from the *first to the last
        instruction* of a vCPU on its core, only guest-trusted code may
        run there.  So a guest and a domain it distrusts violate it on a
        core iff a span of the other lies inside the guest's occupancy
        window [first span, last span] -- a host that ran only *before*
        dedication, or a realm that reused a core after another realm
        was destroyed (and scrubbed; see the residency audit), is
        legitimate.  A monitor-mediated unbind or rebind ends the
        realm's *tenure* on its core: the monitor records the scrubbed
        handoff, at the present, as a tenure cut
        (:meth:`~repro.sim.trace.Tracer.tenure_cut`), and a span belongs
        to the tenure of the cuts up to its start.

        Spans on one core never overlap and close in time order, so a
        foreign span lies inside a tenure window exactly when it falls
        between two spans of that tenure: per core, each guest keeps its
        tenure and the distrusting domains seen since its last span, and
        its next span in the same tenure reports them.  If
        ``insert_span`` (compute-span coalescing) put a span inside the
        folded prefix, or ``tracer`` is another, the fold restarts.
        """
        spans = tracer.spans
        folded = self._folded
        if tracer is not self._tracer or (
            folded and spans[folded - 1] is not self._last
        ):
            self._restart(tracer)
            folded = 0
        cuts, tenures = self._cuts, self._tenures
        for cut in tracer.tenure_cuts[self._cuts_folded:]:
            cuts.setdefault((cut.core, cut.domain), []).append(cut.time)
        self._cuts_folded = len(tracer.tenure_cuts)
        guests, foes, reported = self._guest, self._foe, self._reported
        found: List[Tuple[int, str, str, int, int]] = []
        for span in spans[folded:]:
            core, name, start = span.core, span.domain, span.start
            on_core = tenures[core]
            for guest, tenure in on_core.items():
                foe = foes.get((guest, name))
                if foe is None:
                    foe = foes[guest, name] = self._resolve(guest).distrusts(
                        self._resolve(name)
                    )
                if foe:
                    tenure[2].setdefault(name, start)
            guest = guests.get(name)
            if guest is None:
                # the host's occupancy legitimately has gaps (hotplug
                # off -> realm lifetime -> hotplug on): not a window
                guest = self._resolve(name).is_realm or name.startswith("vm:")
                guests[name] = guest
            if not guest:
                continue
            index = bisect_right(cuts.get((core, name), ()), start)
            tenure = on_core.get(name)
            if tenure is None:
                tenure = on_core[name] = [index, start, {}]
            elif tenure[0] != index:
                tenure[0], tenure[1] = index, start
            else:
                for other, since in tenure[2].items():
                    key = (core, *sorted((name, other)))
                    if key not in reported:
                        reported.add(key)
                        found.append((core, name, other, tenure[1], since))
            tenure[2].clear()
        self._folded, self._last = len(spans), spans[-1] if spans else None
        return [SharingViolation(*violation) for violation in found]

    # ------------------------------------------------------------------
    # residual microarchitectural state audit
    # ------------------------------------------------------------------

    def audit_residency(self, machine: Machine) -> List[ResidencyViolation]:
        """Walk every core-private structure for distrusting co-residency.

        The shared LLC is deliberately excluded: it is out of the threat
        model (S2.4), with hardware partitioning recommended instead.
        """
        violations: List[ResidencyViolation] = []
        for core in machine.cores:
            for name, structure in core.uarch.structures():
                present = structure.domains_present()
                bad = self._distrusting_subsets(present)
                if bad:
                    violations.append(
                        ResidencyViolation(core.index, name, bad)
                    )
        return violations

    def _distrusting_subsets(
        self, present: Set[SecurityDomain]
    ) -> Tuple[str, ...]:
        domains = sorted(present, key=lambda d: d.name)
        for i, dom_a in enumerate(domains):
            for dom_b in domains[i + 1:]:
                if dom_a.distrusts(dom_b):
                    return tuple(d.name for d in domains)
        return ()

    # ------------------------------------------------------------------
    # combined
    # ------------------------------------------------------------------

    def audit(self, machine: Machine, tracer: Optional[Tracer] = None) -> AuditReport:
        tracer = tracer or machine.tracer
        tracer.close_all_spans(machine.sim.now)
        return AuditReport(
            sharing=self.audit_schedule(tracer),
            residency=self.audit_residency(machine),
        )
