"""The fleet sweep: cell layout, --jobs determinism, admission gate."""

from dataclasses import asdict

import pytest

from repro.costs import DEFAULT_COSTS
from repro.experiments.runner import canonical_digest
from repro.fleet.sweep import (
    _run_server_cell,
    consolidation_scenario,
    fleet_cells,
    run_fleet,
)
from repro.sim.clock import ms

TINY = dict(levels=(1, 2), n_servers=2, rate_rps=8000.0, duration_ns=ms(25))


def sweep_digest(result):
    return canonical_digest(
        {
            f"{level}/{mode}": [asdict(row) for row in tenants]
            for (level, mode), tenants in sorted(result.rows.items())
        }
    )


class TestCells:
    def test_cell_ids_enumerate_the_grid(self):
        cells = fleet_cells(**TINY)
        assert [c.cell_id for c in cells] == [
            "fleet/1/shared/server0",
            "fleet/1/shared/server1",
            "fleet/1/gapped/server0",
            "fleet/1/gapped/server1",
            "fleet/2/shared/server0",
            "fleet/2/shared/server1",
            "fleet/2/gapped/server0",
            "fleet/2/gapped/server1",
        ]

    def test_over_capacity_level_refused_with_names(self):
        # 4 tenants x 4 vCPUs = 16 > the 15 free cores of a gapped server
        with pytest.raises(ValueError, match="admission refused"):
            _run_server_cell(
                4, "gapped", 0, 2, 8000.0, ms(10), 0, DEFAULT_COSTS
            )


class TestServerCellsEqualSerial:
    def test_tenant_rows_bit_identical(self):
        # servers are independent simulations: one cell per server,
        # concatenated in server order, reproduces the in-process run
        kwargs = dict(n_servers=2, rate_rps=8000.0, duration_ns=ms(20))
        for level, mode in ((1, "gapped"), (2, "shared")):
            cells = [
                row
                for index in range(kwargs["n_servers"])
                for row in _run_server_cell(
                    level, mode, index, seed=0, costs=DEFAULT_COSTS, **kwargs
                )
            ]
            serial = consolidation_scenario(level, mode, **kwargs).boot().run()
            assert canonical_digest(cells) == canonical_digest(serial.tenants)


class TestJobsDeterminism:
    def test_parallel_equals_serial_byte_for_byte(self):
        serial = run_fleet(jobs=1, **TINY)
        parallel = run_fleet(jobs=2, **TINY)
        assert sweep_digest(serial) == sweep_digest(parallel)

    def test_summary_aggregates_every_server(self):
        result = run_fleet(jobs=1, **TINY)
        summary = result.summary(2, "gapped")
        assert summary["tenants"] == 4  # level 2 x 2 servers
        assert summary["issued"] > 0
        assert summary["dropped"] == 0


class TestScenarioShape:
    def test_spread_placement_levels_the_rack(self):
        from repro.fleet import place

        spec = consolidation_scenario(2, "gapped", n_servers=2)
        placement = place(spec)
        assert not placement.rejected
        assert len(placement.tenants_on(0)) == 2
        assert len(placement.tenants_on(1)) == 2

    def test_rack_seeds_differ_between_modes(self):
        shared = consolidation_scenario(1, "shared")
        gapped = consolidation_scenario(1, "gapped")
        assert {c.seed for c in shared.servers}.isdisjoint(
            {c.seed for c in gapped.servers}
        )
