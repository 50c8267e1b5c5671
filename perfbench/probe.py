"""Call the search filter directly, once per available lane.

Usage: python perfbench/probe.py SOURCE TARGET KIND BOUND

Prints one JSON object: the available lanes and, for each, the candidates
the exhaustive (or first-hit) filter run evaluated and its rate.  This is
the lane table of ``benchmarks/bench_search.py`` on benchmark inputs.
"""

from __future__ import annotations

import json
import sys
import time

from flattori import jsonio, kernels
from flattori.equivalence import DEFAULT_NODE_BUDGET, intertwiner_space


def main():
    source, target, kind, bound = sys.argv[1:5]
    basis = intertwiner_space(jsonio.load_torus(source), jsonio.load_torus(target), kind)
    n = basis[0].rows
    flat = [[int(m.entries[i][j]) for i in range(n) for j in range(n)] for m in basis]
    out = {"available_lanes": list(kernels.available_lanes()), "lanes": {}}
    for lane in kernels.available_lanes():
        start = time.perf_counter()
        hits, nodes, exhausted = kernels.run_filter(flat, n, int(bound), DEFAULT_NODE_BUDGET,
                                                    max_hits=1, lane=lane)
        seconds = time.perf_counter() - start
        out["lanes"][lane] = {"candidates": nodes, "hits": len(hits), "exhausted": exhausted,
                              "seconds": seconds, "cand_per_s": nodes / seconds}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
