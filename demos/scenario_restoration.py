"""Run both bundled restoration scenarios and print their activation story.

The five-bus grid trips its strongest line while a load jumps 40%; the
ten-node water network loses its main booster pump and one reservoir. In
both cases violated agents act first, saturate, and recruit neighbors over
the communication overlay until every floor is met again.
"""
import numpy as np

from ripplesim import load_scenario, message_stats, run


def show(name):
    scenario = load_scenario(name)
    outcome, trace = run(scenario)
    plant, u0 = outcome.plant, outcome.u0  # as disrupted and rebased
    labels = [scenario.node_label(i) for i in range(plant.control_dim)]

    print(f"=== {name}: {outcome.status} after {outcome.rounds} rounds, "
          f"{sum(r.messages for r in trace)} messages ===")
    first = trace[0]
    violated = [scenario.node_label(n)
                for n, y, f in zip(plant.measured_nodes, first.y,
                                   plant.y_lower) if y < f]
    print("outputs below their floors after the disruption:", violated)

    stats = message_stats(trace, scenario.comm_graph, u0)
    order = sorted(stats.first_change.items(), key=lambda kv: kv[1])
    print("activation order (agent: first round its control moved):")
    for agent, rnd in order:
        tag = "violated" if first.deficit[agent] > 0 else "recruited"
        print(f"  node {labels[agent]:>2}: round {rnd:5d}  ({tag})")

    terminal = plant.solve(trace[-1].u)
    worst = float(np.min(terminal - plant.y_lower))
    print(f"terminal floor margin: {worst:.2e}")
    used = (trace[-1].u - u0) / np.maximum(plant.u_upper - u0, 1e-12)
    flexible = [i for i in range(len(labels))
                if plant.u_upper[i] - u0[i] > 1e-12]
    effort = ", ".join(f"{labels[i]}: {used[i]:.0%}" for i in flexible)
    print(f"control effort used: {effort}\n")


if __name__ == "__main__":
    show("pjm5")
    show("wds10")
