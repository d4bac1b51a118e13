"""Seeded synthetic pool generator: a fact base, labelled evidence and a
candidate generalisation lattice, plus a scenario file that covkb loads.

The background is a random set of binary facts `p<k>(c<i>,c<j>)`.  The
hidden concept is `t(X,Y) :- p0(X,Z), p1(Z,Y)` or `t(X,Y) :- p2(X,Y)`;
pairs that satisfy it are `+` evidence and a matching number of pairs
that do not are `-` evidence.  Each candidate seed is a most specific
clause `t(a,b) :- ...` built from background facts around one evidence
pair.  Random walks from it turn one constant into a variable or drop one
body literal per step, and every clause on a walk is emitted, so each
walk is a coverage chain.  `walks` (chains per seed) tunes edge density.

Only `random.Random(seed)` drives the choices, so one seed gives the same
bytes on every run.  Usage:

    python3 perfbench/synth.py --seed 7 [--size 800] --out DIR
"""

from __future__ import annotations

import argparse
import os
import random
from typing import Dict, List, Sequence, Tuple

Literal = Tuple[str, Tuple[str, ...]]

N_PREDICATES = 6
DEPTH = 5
WALKS = 4
BODY_MIN, BODY_MAX = 2, 4

# The synth workload's pool and scenario: a few hundred live nodes.
SIZE = 800          # candidate clauses
STEPS = 200
CAPACITY = 250
ARRIVAL_P = 0.5


def _literal_text(lit: Literal, names: Dict[str, str]) -> str:
    pred, args = lit
    return pred + "(" + ",".join(names.get(a, a) for a in args) + ")"


def _clause_text(head: Literal, body: Sequence[Literal], variables: Sequence[str]) -> str:
    """Render with the given constants turned into V0, V1, ... by first use."""
    names: Dict[str, str] = {}
    wanted = set(variables)
    for _, args in [head, *body]:
        for a in args:
            if a in wanted and a not in names:
                names[a] = f"V{len(names)}"
    text = _literal_text(head, names)
    if body:
        text += " :- " + ", ".join(_literal_text(lit, names) for lit in body)
    return text + "."


def generate(seed: int, size: int) -> Dict[str, str]:
    """Return the pool files (name -> text) for one seed and candidate count."""
    rng = random.Random(seed)
    n_const = max(12, int(size ** 0.5) + 4)
    consts = [f"c{i}" for i in range(n_const)]
    preds = [f"p{k}" for k in range(N_PREDICATES)]

    facts = set()
    for pred in preds:
        while sum(1 for f in facts if f[0] == pred) < 2 * n_const:
            facts.add((pred, (rng.choice(consts), rng.choice(consts))))
    facts = sorted(facts)
    out_edges: Dict[str, List[Literal]] = {c: [] for c in consts}
    for fact in facts:
        out_edges[fact[1][0]].append(fact)

    related = {(a, b) for p, (a, b) in facts if p == "p2"}
    for p, (a, z) in facts:
        if p == "p0":
            related |= {(a, y) for q, (z2, y) in out_edges[z] if q == "p1"}
    pairs = [(a, b) for a in consts for b in consts]
    positives = sorted(related)
    negatives = [p for p in pairs if p not in related]
    n_each = max(8, min(len(positives), size // 8))
    pos = rng.sample(positives, min(n_each, len(positives)))
    neg = rng.sample(negatives, len(pos))

    def specific_clause(a: str, b: str) -> List[Literal]:
        """2..4 background facts reachable from a, ending near b."""
        body: List[Literal] = []
        frontier = a
        want = rng.randint(BODY_MIN, BODY_MAX)
        for _ in range(want):
            choices = out_edges[frontier] or out_edges[b] or facts
            lit = rng.choice(choices)
            if lit not in body:
                body.append(lit)
            frontier = lit[1][1]
        return body

    candidates: List[str] = []
    seen = set()
    examples = pos + neg
    while len(candidates) < size:
        a, b = rng.choice(examples)
        head: Literal = ("t", (a, b))
        base_body = specific_clause(a, b)
        for _ in range(WALKS):
            body = list(base_body)
            variables: List[str] = []
            for step in range(DEPTH + 1):
                text = _clause_text(head, body, variables)
                if text not in seen:
                    seen.add(text)
                    candidates.append(text)
                    if len(candidates) == size:
                        break
                remaining = sorted({x for _, args in [head, *body] for x in args} - set(variables))
                if len(body) > 1 and (not remaining or rng.random() < 0.4):
                    body.pop(rng.randrange(len(body)))
                elif remaining:
                    variables.append(rng.choice(remaining))
                else:
                    break
            if len(candidates) == size:
                break

    def block(lines: List[str]) -> str:
        return "\n".join(lines) + "\n"

    background = ["% synthetic background facts", "#background"]
    background += [f"{p}({x},{y})." for p, (x, y) in facts]
    evidence = ["% synthetic labelled evidence", "#classes + -", "#evidence +"]
    evidence += [f"t({x},{y})." for x, y in pos]
    evidence += ["#evidence -"] + [f"t({x},{y})." for x, y in neg]
    cands = ["% synthetic candidate lattice", "#candidates"] + candidates
    return {
        "background.kbr": block(background),
        "evidence.kbr": block(evidence),
        "candidates.kbr": block(cands),
    }


def scenario_text(seed: int, steps: int, capacity: int, arrival_p: float) -> str:
    return "\n".join([
        "# synthetic lattice scenario",
        f"seed = {seed}",
        f"steps = {steps}",
        f"arrival_p = {arrival_p}",
        f"capacity = {capacity}",
        "forget_fraction = 0.25",
        "beta = 0.1",
        "theta_p_mode = avg_opt_clamped",
        "theta_d_mode = fixed:0",
        "consolidation_class = +",
        "background = background.kbr",
        "evidence = evidence.kbr",
        "candidates = candidates.kbr",
    ]) + "\n"


def write_pool(out_dir: str, seed: int, size: int = SIZE, steps: int = STEPS,
               capacity: int = CAPACITY, arrival_p: float = ARRIVAL_P) -> str:
    """Write the pool and `synth.scn` into out_dir; return the scenario path."""
    os.makedirs(out_dir, exist_ok=True)
    files = generate(seed, size)
    files["synth.scn"] = scenario_text(seed, steps, capacity, arrival_p)
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return os.path.join(out_dir, "synth.scn")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", type=int, default=SIZE, help="candidate clauses")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    print(write_pool(args.out, args.seed, args.size))


if __name__ == "__main__":
    main()
