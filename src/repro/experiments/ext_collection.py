"""Extension: the network-wide price of multihop data collection.

The paper's introduction asks "network-wide, how much energy do network
services such as routing consume?"  This experiment answers it on a
collection tree running over instrumented forwarding queues: every
node's samples are priced across the whole network, separating each
origin's cost (including the forwarding it causes on relays) from idle
listening.

The deployment is sweepable: ``nodes`` sets the tree size and
``topology`` its shape (``line`` — a chain into the root, the default
three-hop 12 -> 11 -> 10-root; ``star`` — every node one hop from the
root), so ``python -m repro sweep ext_collection --seeds 8 --set
nodes=3,5 --set topology=line,star`` maps how each origin's network
cost and spread scale with depth and shape across seeds.
"""

from __future__ import annotations

from repro.core.netmerge import NetworkMerger
from repro.core.report import format_table
from repro.experiments.common import ExperimentResult, network_sweep_data
from repro.tos.network import Network
from repro.tos.node import NodeConfig, QuantoNode
from repro.units import seconds, to_mj

ROOT_ID = 10

#: Closed value sets and lower bounds, validated before any sweep
#: worker forks.
PARAM_CHOICES = {"topology": ("line", "star")}
PARAM_MINIMUMS = {"nodes": 2}

_HOP_WORDS = {1: "one", 2: "two", 3: "three", 4: "four", 5: "five",
              6: "six", 7: "seven", 8: "eight", 9: "nine"}


def _topology_desc(node_ids: list[int], topology: str) -> str:
    if topology == "star":
        leaves = ", ".join(str(n) for n in node_ids[1:])
        return f"star: {leaves} -> {node_ids[0]}-root"
    hops = " -> ".join(str(n) for n in reversed(node_ids[1:]))
    return f"{hops} -> {node_ids[0]}-root"


def run(
    seed: int = 5,
    duration_ns: int = seconds(30),
    nodes: int = 3,
    topology: str = "line",
    sample_period_ns: int = seconds(4),
) -> ExperimentResult:
    from repro.apps.collection import (
        build_line_topology,
        build_star_topology,
    )

    if nodes < 2:
        raise ValueError("a collection tree needs at least 2 nodes")
    if topology not in PARAM_CHOICES["topology"]:
        raise ValueError(f"unknown topology {topology!r}; "
                         f"choose from {PARAM_CHOICES['topology']}")
    node_ids = [ROOT_ID + i for i in range(nodes)]
    network = Network(seed=seed)
    for node_id in node_ids:
        network.add_node(NodeConfig(node_id=node_id, mac="csma"))
    builder = build_line_topology if topology == "line" \
        else build_star_topology
    apps = builder(network, node_ids, root_id=ROOT_ID,
                   sample_period_ns=sample_period_ns)
    network.boot_all({nid: app.start for nid, app in apps.items()})
    network.run(duration_ns)

    # Every node's log is analysed in one fused pass (one timeline, one
    # fold), and the maps merge into the network-wide report.
    merger = NetworkMerger()
    for nid, analysis in zip(node_ids, QuantoNode.breakdown_all(
            [network.node(nid) for nid in node_ids])):
        merger.add(nid, analysis.energy_map)
    report = merger.report()

    rows = []
    for origin in node_ids:
        name = f"{origin}:Collect"
        if name not in report.by_activity:
            continue
        spread = report.spread[name]
        rows.append((
            name,
            f"{to_mj(report.by_activity[name]):.3f}",
            f"{100 * report.remote_fraction(name, origin):.1f} %",
            ", ".join(f"n{n}:{to_mj(e):.2f}"
                      for n, e in sorted(spread.items())),
        ))
    table = format_table(
        ("origin activity", "network total (mJ)", "spent remotely",
         "per-node (mJ)"),
        rows, title="the network-wide price of each node's data "
                    f"({_topology_desc(node_ids, topology)})")

    root = apps[ROOT_ID]
    leaf_id = node_ids[-1]
    leaf_name = f"{leaf_id}:Collect"
    stats = [
        f"delivered at root: {len(root.delivered)} packets "
        f"({sorted({o for o, _ in root.delivered})} origins)",
    ]
    if topology == "line" and nodes >= 3:
        relay = apps[node_ids[1]]
        stats.append(
            f"middle node forwarded {relay.packets_forwarded} packets, "
            f"queue drops: {relay.queue.dropped}")
    else:
        forwarded = sum(apps[nid].packets_forwarded
                        for nid in node_ids if nid != ROOT_ID)
        stats.append(f"non-root nodes sent {forwarded} packets upward")

    leaf_remote = report.remote_fraction(leaf_name, leaf_id) \
        if leaf_name in report.by_activity else 0.0
    leaf_hops = nodes - 1 if topology == "line" else 1
    hops_word = _HOP_WORDS.get(leaf_hops, str(leaf_hops))
    hops_word += " hop" if leaf_hops == 1 else " hops"
    return ExperimentResult(
        exp_id="ext_collection",
        title="Multihop collection: per-origin network energy",
        text="\n\n".join([table, "\n".join(stats)]),
        data={
            "delivered": len(root.delivered),
            "origins_at_root": sorted({o for o, _ in root.delivered}),
            "leaf_remote_fraction": leaf_remote,
            "by_activity_mj": {k: to_mj(v)
                               for k, v in report.by_activity.items()},
            **network_sweep_data(report),
        },
        comparisons=[
            (f"leaf samples traverse {hops_word} (bool)", 1.0,
             1.0 if leaf_id in {o for o, _ in root.delivered} else 0.0),
        ],
    )
