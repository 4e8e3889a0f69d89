"""Brute-force reference oracle: try every injective assignment directly.

No pruning, no symmetry reduction, no shared code with the search module;
this is the independent ground truth the search results are checked against
(only viable for tiny graphs).
"""

from itertools import permutations

from oddgraceful import GraphTopology


def brute_force_has_labeling(topology: GraphTopology) -> bool:
    q = topology.q
    odd_values = list(range(1, 2 * q, 2))
    for labels in permutations(range(2 * q), len(topology.names)):
        diffs = sorted(abs(labels[a] - labels[b]) for a, b in topology.edges)
        if diffs == odd_values:
            return True
    return False
