"""The benchmark times the program the sweeps run, and its traces repeat.

* Driver equivalence: each workload, with its sliced ``run_for``, its
  chunked ``run_until`` or its wrapped lifecycle verbs, returns the same
  result (by canonical digest) as the entry point its sweep ships.
* Golden digests: seeds 0, 1 and 2 are recorded for every workload.
* Traced runs: two give identical per-layer call counts, and the layers'
  self time accounts for the traced wall time.

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_drivers.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench
from workloads import (
    WORKLOADS,
    FleetController,
    Timer,
    coremark_gapped,
    elastic_churn,
    netpipe_virtio,
    redis_fleet,
    run_workload,
)
from layers import LAYERS

from repro.costs import DEFAULT_COSTS
from repro.experiments import fig6, fig8
from repro.experiments.runner import canonical_digest
from repro.fleet.elastic import run_elastic_case
from repro.fleet.sweep import _run_server_cell
from repro.sim.clock import ms

REPO = os.path.normpath(os.path.join(bench.HERE, "..", ".."))


def test_coremark_steps_match_fig6_cell():
    result = coremark_gapped(0, Timer(), n_steps=4, step_ns=ms(5))
    shipped = fig6._coremark_cell("gapped", 64, ms(20), DEFAULT_COSTS)
    assert canonical_digest(result.shipped) == canonical_digest(shipped)
    assert result.problems == []


def test_netpipe_chunks_match_fig8_cell():
    result = netpipe_virtio(0, Timer(), sizes=[64, 4096], pings=6, per_step=4)
    shipped = fig8._run_one("gapped", "virtio", [64, 4096], 6, DEFAULT_COSTS)
    assert canonical_digest(result.shipped) == canonical_digest(shipped)
    assert result.problems == []


@pytest.mark.parametrize("seed", [0, 1])
def test_redis_slices_match_fleet_cells(seed):
    result = redis_fleet(seed, Timer(), duration_ns=ms(7), slice_ns=ms(2))
    shipped = [
        _run_server_cell(3, "gapped", index, 2, 6000.0, ms(7), seed, DEFAULT_COSTS)
        for index in range(2)
    ]
    assert canonical_digest(result.shipped) == canonical_digest(shipped)
    assert result.problems == []


def test_elastic_wrapped_verbs_match_elastic_case():
    verbs = {name: getattr(FleetController, name) for name in ("admit", "resize")}
    timer = Timer()
    result = elastic_churn(1, timer, cases=2, duration_ns=ms(30))
    shipped = [run_elastic_case("full", ms(30), seed=k) for k in range(2)]
    assert canonical_digest(result.shipped) == canonical_digest(shipped)
    assert result.problems == []
    assert len(timer.setup_s) == 2 and timer.steps_s
    assert result.counts["fleet.verbs"] == len(timer.steps_s)
    # the timing wrappers are gone once the run ends
    assert {n: getattr(FleetController, n) for n in verbs} == verbs


def test_golden_covers_seeds_0_to_2():
    with open(bench.GOLDEN) as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(WORKLOADS)
    for name in WORKLOADS:
        assert sorted(golden[name]) == ["0", "1", "2"]
    # only redis-fleet consumes the seed
    for name in ("coremark-gapped", "netpipe-virtio", "elastic-churn"):
        assert len(set(golden[name].values())) == 1
    assert len(set(golden["redis-fleet"].values())) == 3


@pytest.mark.parametrize("name", ["coremark-gapped", "netpipe-virtio"])
def test_full_size_run_matches_golden(name):
    record = run_workload(name, 0)
    with open(bench.GOLDEN) as handle:
        assert record["digest"] == json.load(handle)[name]["0"]
    assert record["problems"] == []


def test_traced_runs_repeat_and_account_for_wall_time():
    first, _ = bench.run_child("netpipe-virtio", 0, profile=True)
    second, _ = bench.run_child("netpipe-virtio", 0, profile=True)
    assert first["problems"] == [] and second["problems"] == []
    calls = [{k: v["calls"] for k, v in r["layers"].items()} for r in (first, second)]
    assert calls[0] == calls[1]
    for record in (first, second):
        self_s = sum(record["layers"][layer]["self_s"] for layer in LAYERS)
        assert abs(self_s - record["run_s"]) <= 0.05 * record["run_s"]


def test_benchmark_json_lists_what_bench_reports():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert list(WORKLOADS) == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_refuses_to_run_without_simulator_sources(tmp_path):
    for name in ("bench.py", "workloads.py", "layers.py", "golden.json"):
        shutil.copy(os.path.join(bench.HERE, name), tmp_path / name)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench.py"), "--workload",
         "coremark-gapped", "--seed", "0", "--seconds", "5", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
