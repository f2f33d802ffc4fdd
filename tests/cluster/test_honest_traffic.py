"""Honest simulator traffic never trips a validator.

The validators in :mod:`repro.core.validate` run only where bytes from
outside the process become objects (:mod:`repro.net`,
:mod:`repro.durable`); the simulator runs none.  Their budgets must
still admit everything an honest run produces, so this suite replays
the net layer's checks on every message an encoded-mode simulation
delivers — through crashes, recoveries, partitions and heals, in both
propagation modes.
"""

import random
from collections import Counter

import pytest

from repro.cluster.failures import (
    Crash,
    FailurePlan,
    HealEvent,
    PartitionEvent,
    Recover,
)
from repro.cluster.network import SimulatedNetwork
from repro.cluster.simulation import ClusterSimulation
from repro.core.messages import (
    PropagationReply,
    PropagationRequest,
    YouAreCurrent,
)
from repro.core.validate import (
    validate_propagation_request,
    validate_session_answer,
)
from repro.errors import ValidationError
from repro.experiments.common import make_factory, make_items
from repro.substrate.operations import Put

N_NODES = 5
ITEMS = make_items(8)

PLAN = [
    Crash(node=1, at_round=2),
    PartitionEvent(groups=((0, 1, 2), (3, 4)), at_round=3),
    Recover(node=1, at_round=6),
    HealEvent(at_round=8),
    Crash(node=4, at_round=9),
    Recover(node=4, at_round=11),
]


def run_checked(protocol, monkeypatch):
    """Run a seeded faulty workload; validate every delivered session
    message against the node it is delivered to, as ``repro.net``
    would.  Returns the kinds seen and the validation failures."""
    sim = ClusterSimulation(
        make_factory(protocol, N_NODES, ITEMS),
        N_NODES,
        ITEMS,
        seed=7,
        wire=True,
        failure_plan=FailurePlan(list(PLAN)),
    )
    seen = Counter()
    failures = []
    deliver = SimulatedNetwork.deliver

    def checking_deliver(network, src, dst, message):
        delivered = deliver(network, src, dst, message)
        receiver = sim.nodes[dst].node
        seen[type(delivered).__name__] += 1
        try:
            if isinstance(delivered, PropagationRequest):
                validate_propagation_request(delivered, receiver)
            elif isinstance(delivered, (YouAreCurrent, PropagationReply)):
                validate_session_answer(delivered, src, receiver)
        except ValidationError as exc:
            failures.append((src, dst, type(delivered).__name__, str(exc)))
        return delivered

    monkeypatch.setattr(SimulatedNetwork, "deliver", checking_deliver)
    rng = random.Random(11)
    for round_no in range(14):
        for writer in range(N_NODES):
            if sim.network.is_up(writer) and rng.random() < 0.4:
                # Single writer per item: no conflicts to muddy the run.
                item = rng.choice(ITEMS[writer::N_NODES])
                value = f"{writer}:{round_no}".encode()
                sim.apply_update(writer, item, Put(value))
        sim.run_round()
    sim.run_until_converged(max_rounds=80)
    assert sim.converged()
    assert sum(node.node.conflicts.count for node in sim.nodes) == 0
    return seen, failures


@pytest.mark.parametrize("protocol", ["dbvv", "dbvv-delta"])
def test_every_delivered_session_message_validates(protocol, monkeypatch):
    seen, failures = run_checked(protocol, monkeypatch)
    assert failures == []
    for kind in ("PropagationRequest", "YouAreCurrent", "PropagationReply"):
        assert seen[kind] > 0, (kind, seen)
