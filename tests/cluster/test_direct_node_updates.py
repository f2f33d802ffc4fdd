"""Updates made through the node API reach every replica.

Experiments E1, E2, E4 and E5 call ``ProtocolNode.user_update`` on the
simulation's nodes directly instead of going through
``ClusterSimulation.apply_update``.  The quiescent fast path must see
such an update anyway: it reads the live DBVVs before each session, so
the first session that pulls from the updated replica runs for real.
"""

import pytest

from repro.cluster.simulation import ClusterSimulation
from repro.experiments.common import make_factory, make_items
from repro.substrate.operations import Put

N_NODES = 8
ITEMS = make_items(6)


@pytest.mark.parametrize("wire", [False, True], ids=["modelled", "wire"])
def test_update_through_node_api_propagates(wire):
    sim = ClusterSimulation(
        make_factory("dbvv", N_NODES, ITEMS),
        N_NODES,
        ITEMS,
        seed=3,
        wire=wire,
        sanitize=False,
        durable=False,
    )
    sim.apply_update(1, ITEMS[1], Put(b"seed"))
    sim.run_until_converged(max_rounds=50)
    for _ in range(5):  # quiescent rounds: every session skips
        sim.run_round()
    assert sim.total_counters.fastpath_skips > 0

    sim.nodes[0].user_update(ITEMS[0], Put(b"direct"))
    for _ in range(30):
        sim.run_round()

    holders = [node.read(ITEMS[0]) == b"direct" for node in sim.nodes]
    assert holders == [True] * N_NODES
    assert sim.converged()
