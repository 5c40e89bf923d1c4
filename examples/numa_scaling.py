#!/usr/bin/env python3
"""Beyond the paper: vProbe on larger NUMA machines.

The paper evaluates on two sockets; nothing in vProbe's design is
two-node specific.  This study runs Credit vs vProbe on synthetic
2-, 3- and 4-node hosts (two cores per node, one LLC each) under an
LLC-thrashing workload and reports how the gap evolves: more nodes
mean more wrong places a NUMA-blind balancer can put a VCPU, so the
remote-access gap widens with scale.

The batched engine exists only for dual-socket hosts, so the 3- and
4-node machines run the reference loop (same results, slower).

Run with::

    python examples/numa_scaling.py
"""

from repro.core import vprobe
from repro.hardware import symmetric_topology
from repro.metrics import format_table, summarize
from repro.workloads import synthetic_profile
from repro.xen import CreditScheduler, Domain, Machine, SimConfig
from repro.xen.memalloc import place_split

GIB = 1024**3


def run_machine(num_nodes: int, policy) -> tuple[float, float]:
    """Runtime and remote ratio of a thrashing workload on N nodes."""
    topo = symmetric_topology(num_nodes, 2)
    machine = Machine(
        topo, policy, SimConfig(seed=7, sample_period_s=0.5, max_time_s=60.0)
    )
    num_vcpus = 4 * num_nodes  # 2x oversubscription
    profile = synthetic_profile("llc-t", total_instructions=8e8)
    machine.add_domain(
        Domain.homogeneous(
            "vm", num_nodes * GIB, place_split(num_vcpus, num_nodes),
            profile, num_vcpus,
        )
    )
    machine.run()
    stats = summarize(machine).domain("vm")
    return stats.mean_finish_time_s or float("nan"), stats.remote_ratio


def main() -> None:
    rows = []
    for nodes in (2, 3, 4):
        credit_t, credit_r = run_machine(nodes, CreditScheduler())
        vprobe_t, vprobe_r = run_machine(nodes, vprobe())
        rows.append(
            (
                nodes,
                credit_t,
                vprobe_t,
                (1 - vprobe_t / credit_t) * 100.0,
                credit_r * 100.0,
                vprobe_r * 100.0,
            )
        )
        print(f"  {nodes} nodes done")

    print()
    print(
        format_table(
            [
                "nodes",
                "credit (s)",
                "vprobe (s)",
                "improvement (%)",
                "credit remote (%)",
                "vprobe remote (%)",
            ],
            rows,
        )
    )
    print(
        "\nAlgorithm 2's node order generalises to distance-then-id and"
        "\nAlgorithm 1's MIN-NODE fill keeps the spread even on any node"
        "\ncount — the gap typically widens as nodes are added."
    )


if __name__ == "__main__":
    main()
