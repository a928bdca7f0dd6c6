"""The serving paths make no reference cycles in steady state.

CPython frees an object the moment its last reference goes, unless the
object sits in a reference cycle: only the cyclic collector frees
those, and each of its passes rewalks the containers the simulator
keeps alive.  Each test here warms one serving path up, turns the
collector off, runs 5 ms more, and requires that nothing the run
dropped is waiting for the collector.
"""

import gc

import pytest

from repro.costs import DEFAULT_COSTS
from repro.experiments.config import SystemConfig
from repro.experiments.system import System
from repro.fleet import boot_server, consolidation_scenario, place
from repro.guest.vm import GuestVm
from repro.guest.workloads import (
    CoremarkStats,
    NetpipeStats,
    coremark_workload_factory,
    netpipe_workload_factory,
)
from repro.sim.clock import ms


def coremark_gapped() -> System:
    """Compute: 8-core gapped SoC, one 7-vCPU CoreMark realm."""
    system = System(SystemConfig(mode="gapped", n_cores=8))
    vm = GuestVm(
        "coremark0", 7, coremark_workload_factory(CoremarkStats()),
        costs=DEFAULT_COSTS,
    )
    system.start(system.launch(vm))
    return system


def netpipe_virtio() -> System:
    """Exits: 4-core gapped SoC, NetPIPE through an emulated NIC."""
    system = System(SystemConfig(mode="gapped", n_cores=4))
    vm = GuestVm(
        "netpipe",
        3,
        netpipe_workload_factory(
            NetpipeStats(),
            "virtio-net0",
            False,
            clock=lambda: system.sim.now,
            costs=DEFAULT_COSTS,
        ),
        costs=DEFAULT_COSTS,
    )
    kvm = system.launch(vm)
    system.add_virtio_net(kvm, "virtio-net0", echo_peer=True)
    system.start(kvm)
    return system


def redis_server() -> System:
    """Serving: one gapped server of three open-loop Redis tenants."""
    spec = consolidation_scenario(level=3, mode="gapped", n_servers=1)
    server = boot_server(spec, place(spec), 0)
    for client in server.clients:
        client.start(spec.duration_ns)
    return server.system


@pytest.mark.parametrize(
    "build", [coremark_gapped, netpipe_virtio, redis_server]
)
def test_steady_state_leaves_nothing_for_the_collector(build):
    system = build()
    system.run_for(ms(2))
    gc.collect()
    gc.disable()
    try:
        system.run_for(ms(5))
        assert gc.collect() == 0
    finally:
        gc.enable()
