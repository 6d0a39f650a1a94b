"""Round-by-round walkthrough of the saturation cascade on a toy plant.

Two agents drive the single output y = u1 + u2, but only agent 1 measures
it. Agent 1's ceiling (0.5) is too low to reach the floor (1.0) alone, so
it saturates, raises a beacon, and agent 2 quietly finishes the job without
ever seeing the measurement. Messages flow only while a beacon is up.
"""
import numpy as np

from ripplesim import (Graph, LinearPlant, ProtocolGains, Scenario,
                       message_stats, run, verify_trace)

plant = LinearPlant(sensitivity=[[1.0, 1.0]], offset=[0.0],
                    u_lower=[0.0, 0.0], u_upper=[0.5, 1.0],
                    y_lower=[1.0], measured_nodes=[0])
comm = Graph(node_count=2, edges=((0, 1),))
gains = ProtocolGains(eta1=[1.0, 1.0], eta2=[0.5, 0.5], eta3=[1.0, 1.0])
scenario = Scenario(plant=plant, comm_graph=comm, u0=np.zeros(2),
                    gains=gains)

outcome, trace = run(scenario)
print(f"{outcome.status} after {outcome.rounds} rounds\n")
print(f"{'round':>5} {'u1':>8} {'u2':>8} {'y':>8} {'deficit':>8} "
      f"{'beacon1':>8} {'msgs':>5}")
for t, u, y, f, b, m in zip(trace.rounds.tolist(), trace.u, trace.y,
                            trace.deficit, trace.beacons,
                            trace.messages.tolist()):
    print(f"{t:5d} {u[0]:8.4f} {u[1]:8.4f} {y[0]:8.4f} "
          f"{f[0]:8.4f} {b[0]:8.4f} {m:5d}")

stats = message_stats(trace, comm, scenario.u0)
print(f"\ntotal messages: {stats.total}")
print(f"agent 1 first beacon:     round {stats.first_beacon.get(0)}")
print(f"agent 2 first assistance: round {stats.first_assistance.get(1)}")
print(f"agent 2 first move:       round {stats.first_change.get(1)} "
      "(strictly after the beacon reached it)")
print("invariant check:", verify_trace(trace, comm, plant.u_upper,
                                       scenario.u0) or "clean")
