"""Walk through the family-relations knowledge base step by step.

Builds the twelve-node coverage graph (five labelled examples, seven
candidate rules), prints the scored table, then runs a few forgetting
steps and a promotion pass to show the lifecycle working.

Run:  python demos/family_walkthrough.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from covkb.harness import build_oneshot_state, load_scenario
from covkb.metrics import compute_permanence
from covkb.rules import render_rule

HERE = os.path.dirname(__file__)
SCENARIO = os.path.join(HERE, "..", "fixtures", "family", "family.scn")


def show_table(state, title):
    table = state.ensure_metrics()
    _, perm = compute_permanence(state.graph, table, state.classes)
    print(f"\n== {title}")
    print(f"{'id':>4} {'cls':>3} {'L':>8} {'S+':>8} {'S-':>8} "
          f"{'opt+':>9} {'opt-':>9} {'perm':>9}  rule")
    for nid in sorted(state.graph.nodes):
        rule = state.graph.nodes[nid]
        print(
            f"{nid:>4} {rule.class_label or '':>3} "
            f"{state.graph.node_length(nid):>8.3f} "
            f"{table.support[nid]['+']:>8.3f} {table.support[nid]['-']:>8.3f} "
            f"{table.opt[nid]['+']:>9.3f} {table.opt[nid]['-']:>9.3f} "
            f"{perm[nid]:>9.3f}  {render_rule(rule)}"
        )


def main():
    state = build_oneshot_state(load_scenario(SCENARIO))
    show_table(state, "initial working space")

    print("\n== coverage DAG (reduced edges, coverer -> covered)")
    for u in sorted(state.graph.nodes):
        for v in sorted(state.graph.suc(u)):
            print(f"   {u} -> {v}")

    # One forgetting step removes the node with the weakest permanence:
    # the fully ground chained rule, made redundant by its generalisations.
    removed = state.forget_step()
    print(f"\nforgotten first: node {removed[0]}")

    promoted = state.promote_pass()
    print("promoted above the average optimality:")
    for nid in promoted:
        print("   ", render_rule(state.graph.nodes[nid]))

    # Keep forgetting: leaf removals park their mass as residuals on the
    # surviving coverers, so the consolidated rules keep their support.
    for _ in range(4):
        removed = state.forget_step()
        if not removed:
            break
        print(f"forgot {removed} -> population {state.population()}")
    show_table(state, "after forgetting, residuals doing the remembering")


if __name__ == "__main__":
    main()
