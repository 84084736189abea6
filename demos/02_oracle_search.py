"""Brute-force ground truth for both study feeders.

Enumerates every breaker configuration of the 13-node system two ways
(naive, one solve per state, and the per-island decomposition, which solves
each island's pages in batches) and shows they agree, then uses the
decomposition to make the 2^26 configurations of the 123-node system
tractable. Each line reports how many configurations were actually solved:
all of them (naive) or each island's sub-states (decomposed).
"""

import time

from gridrestore import brute_force, builtin_feeder

feeder = builtin_feeder("ieee13")
print("=== ieee13: 2^9 = 512 configurations")
for method in ("naive", "decomposed"):
    start = time.perf_counter()
    result = brute_force(feeder, method=method)
    closed = [feeder.breakers[i].id for i, s in enumerate(result.best_states) if s]
    print(f"{method:>10}: best {result.best_served_kw:.0f} kW via {closed}, "
          f"{result.feasible_count} feasible, {result.solved_count} solved, "
          f"{time.perf_counter() - start:.2f} s")
print(f"restored fraction of capacity: {2563 / 2600:.1%}")

print("\n=== ieee123: 2^26 = 67,108,864 configurations")
feeder = builtin_feeder("ieee123")
start = time.perf_counter()
result = brute_force(feeder)  # decomposed: per-microgrid islands
print(f"{result.method}: best {result.best_served_kw:.0f} kW "
      f"({result.best_served_kw / 2400:.2%} of the 2400 kW capacity), "
      f"{result.feasible_count:,} feasible of {result.evaluated_count:,} "
      f"({result.solved_count:,} island sub-states solved), "
      f"{time.perf_counter() - start:.2f} s")
per_island = {}
for agent, ids in enumerate(feeder.partition.assignments):
    index = {b.id: i for i, b in enumerate(feeder.breakers)}
    closed = [bid for bid in ids if result.best_states[index[bid]]]
    per_island[f"microgrid {agent + 1}"] = len(closed)
print("closed breakers per microgrid:", per_island)
