"""Tests of the benchmark itself, on tiny versions of its workloads.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import copy
import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench.checks import replica_state, state_mismatches, truth_mismatches
from perfbench.common import END_TO_END, run_episodes
from perfbench.layers import PER_LAYER
from perfbench.net import NET_MIX, net_episode
from perfbench.sims import IDLE_TRICKLE, WRITE_HEAVY, sim_episode
from perfbench.stats import InsufficientSamples, percentile

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_WRITE_HEAVY = replace(
    WRITE_HEAVY, n_nodes=8, n_items=64, updates=4, rounds=40, recover_every=4
)
TINY_IDLE = replace(
    IDLE_TRICKLE, n_nodes=8, n_items=64, every=2, rounds=70, recover_every=5
)
# 130 rounds of 8 sessions leave enough samples beyond the per-layer p99s.
TINY_NET = replace(NET_MIX, n_items=64, rounds=130, recover_every=10)


def _run(workload, tmp_path, trace, seed=3):
    if workload is TINY_NET:
        def episode(seed, tracer):
            return net_episode(workload, seed, tracer, tmp_path)
    else:
        def episode(seed, tracer):
            return sim_episode(workload, seed, tracer, tmp_path)
    return run_episodes(episode, seed, seconds=0, trace=trace)


@pytest.mark.parametrize("workload", [TINY_WRITE_HEAVY, TINY_IDLE, TINY_NET])
@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metric_names_equal_benchmark_json(workload, trace, tmp_path):
    result = _run(workload, tmp_path, trace)
    assert result.correct, result.failures
    key = "per_layer" if trace else "end_to_end"
    assert list(result.metrics) == [metric["name"] for metric in SPEC[key]]
    assert result.units == {metric["name"]: metric["unit"] for metric in SPEC[key]}


def test_declared_metrics_equal_benchmark_json():
    assert [name for name, _unit in END_TO_END] == [
        metric["name"] for metric in SPEC["end_to_end"]
    ]
    assert [name for name, _unit in PER_LAYER] == [
        metric["name"] for metric in SPEC["per_layer"]
    ]


def test_sim_counters_repeat_across_runs(tmp_path):
    first = _run(TINY_WRITE_HEAVY, tmp_path, trace=False, seed=5)
    second = _run(TINY_WRITE_HEAVY, tmp_path, trace=True, seed=5)
    assert first.correct and second.correct
    assert first.episodes[0].counters == second.episodes[0].counters


class TestPercentile:
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with pytest.raises(InsufficientSamples):
            percentile(list(range(99)), 90)
        with pytest.raises(InsufficientSamples):
            percentile(list(range(19)), 50)
        with pytest.raises(InsufficientSamples):
            percentile(list(range(999)), 99)

    def test_accepts_exactly_ten_beyond(self):
        assert percentile(list(range(100)), 90) == pytest.approx(89.1)
        assert percentile(list(range(20)), 50) == pytest.approx(9.5)
        assert percentile([5.0] * 1000, 99) == 5.0


class TestCorrectnessCheck:
    @pytest.fixture
    def converged(self):
        from repro.cluster.simulation import ClusterSimulation
        from repro.experiments.common import make_factory, make_items
        from repro.workload.generators import SingleWriterWorkload

        items = make_items(32)
        sim = ClusterSimulation(
            make_factory("dbvv", 4, items), 4, items,
            wire=False, sanitize=False, durable=False, seed=1,
        )
        for event in SingleWriterWorkload(items, 4, seed=1).generate(40):
            sim.apply_update(event.node, event.item, event.op)
        sim.run_until_converged()
        return sim, items

    def test_replica_values_against_truth(self, converged):
        sim, items = converged
        truth = {item: sim.ground_truth.value(item) for item in items}
        values = [{item: node.read(item) for item in items} for node in sim.nodes]
        assert truth_mismatches(values, truth) == []
        corrupted = copy.deepcopy(values)
        corrupted[2][items[7]] = b"corrupted"
        problems = truth_mismatches(corrupted, truth)
        assert len(problems) == 1 and "replica 2" in problems[0]
        assert truth_mismatches(values, truth) == []

    def test_recovered_state_against_live(self, converged):
        sim, _items = converged
        live = replica_state(sim.nodes[1].node)
        assert state_mismatches(live, replica_state(sim.nodes[1].node)) == []
        dbvv, entries = copy.deepcopy(live)
        name, value, ivv, in_conflict = entries[3]
        bad_value = (dbvv, entries[:3] + ((name, value + b"!", ivv, in_conflict),) + entries[4:])
        assert state_mismatches(live, bad_value)
        bad_dbvv = ((dbvv[0] + 1, *dbvv[1:]), entries)
        assert state_mismatches(live, bad_dbvv)


def _program_slots():
    """Every module global and class attribute of the loaded program."""
    slots = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            slots[(module_name, attr)] = value
            if inspect.isclass(value) and value.__module__ == module_name:
                for name, member in list(vars(value).items()):
                    slots[(module_name, attr, name)] = member
    return slots


@pytest.mark.parametrize("workload", [TINY_WRITE_HEAVY, TINY_NET])
def test_trace_wrappers_fully_removed(workload, tmp_path):
    import repro.net.node  # noqa: F401 - load every traced module first

    before = _program_slots()
    result = _run(workload, tmp_path, trace=True)
    assert result.correct, result.failures
    assert result.metrics["wire.frames"] > 0  # the wrappers did record
    after = _program_slots()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
