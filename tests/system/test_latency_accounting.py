"""Deferred latency folding ≡ one RunningStat.add per sample.

The machine appends each latency to a pending list and folds the list
into its RunningStat on every read and whenever the list fills. These
tests feed a reference RunningStat one ``add`` per sample, from the
latencies the machine returns and the events it logs, and require the
machine's statistics to match bit for bit — across several folds and
reads in the middle of the run.
"""

from repro.common.stats import RunningStat
from repro.system import machine as machine_module
from repro.system.eventlog import EventLog
from repro.system.machine import Machine, RequestPath

from tests.conftest import make_config


def fields(stat):
    return (stat.count, stat.mean, stat._m2, stat.minimum, stat.maximum,
            stat._samples, stat._stride)


def test_folded_latencies_match_per_sample_adds():
    machine = Machine(make_config(cgct=True, perturbation=7, prefetch=True),
                      seed=1)
    log = EventLog(capacity=1 << 16)
    machine.attach_event_log(log)
    demand = RunningStat()
    samples = 3 * machine_module._FOLD_EVERY + 17
    now = 0
    for i in range(samples):
        address = 0x40000 + ((i * 7919) % 900) * 64
        miss = machine.ifetch_miss if i % 5 == 0 else machine.load_miss
        latency = miss(i % 4, address, now)
        demand.add(latency)
        now += 50
        # The pending lists stay bounded however long the run.
        assert all(len(pending) < machine_module._FOLD_EVERY
                   for pending in machine._latency_pending)
        if i % 700 == 0:  # a read in the middle folds what is pending
            assert fields(machine.demand_latency) == fields(demand)
    assert fields(machine.demand_latency) == fields(demand)

    paths = {}
    for event in log:
        path = RequestPath(event.path)
        if path is not RequestPath.NO_REQUEST:
            paths.setdefault((event.request, path), RunningStat()).add(
                event.latency)
    assert log.recorded == len(log)
    assert {key: fields(stat) for key, stat in machine.path_latency.items()} \
        == {key: fields(stat) for key, stat in paths.items()}
    assert max(stat.count for stat in paths.values()) > (
        machine_module._FOLD_EVERY)


def test_reset_drops_pending_latencies():
    machine = Machine(make_config(cgct=True), seed=0)
    for i in range(10):
        machine.load_miss(0, 0x40000 + i * 64, i * 100)
    machine.reset_stats()
    assert machine.demand_latency.count == 0
    assert machine.path_latency == {}
    latency = machine.load_miss(0, 0x90000, 10_000)
    assert machine.demand_latency.count == 1
    assert machine.demand_latency.mean == latency
