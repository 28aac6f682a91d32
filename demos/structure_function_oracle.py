"""Exact structure functions: memorization vs structure, at desk scale.

Builds the prefix-coded hypothesis family over a 64-element input domain
and compares three tasks:

  * random labels  -- no structure: every NAT of description buys exactly
                      one NAT of loss (the overfitting line N ln2 - t);
  * a planted parity rule -- the curve drops to zero as soon as the budget
                      covers the rule's code length;
  * the planted task with randomized labels -- structure destroyed, the
                      curve returns to the memorization line.

Writes structure_function.svg into the working directory.
"""

import math

import numpy as np

from taskinfo import svg
from taskinfo.finite_oracle import (
    HypothesisFamily,
    complexity,
    critical_beta,
    extension_cost,
    structure_function,
)
from taskinfo.tasks import (
    DiscreteSpace,
    TaskTransform,
    apply_transform,
    generate_planted_task,
    generate_random_label_task,
)

N = 60
fam = HypothesisFamily.for_space(DiscreteSpace(64), 2)
rule = fam.hypothesis("parity011")

random_task = generate_random_label_task(N, DiscreteSpace(64), 2, seed=1)
planted_task = generate_planted_task(N, rule, 0.0, seed=2)
scrambled = apply_transform(planted_task,
                            TaskTransform(kind="label_randomization", seed=3))

print(f"family: {len(fam)} rules over 64 inputs, Kraft sum "
      f"{fam.kraft_sum():.6f}")
print(f"N ln 2 = {N * math.log(2):.2f} NATS\n")

for name, task in (("random labels", random_task),
                   ("planted parity", planted_task),
                   ("scrambled planted", scrambled)):
    value, h = complexity(task, fam)
    beta_star = critical_beta(task, fam)
    print(f"{name:18s}  C(D) = {value:6.2f}  argmin = {h.name:14s}  "
          f"beta* = {beta_star:.3f}")

grid = np.linspace(2.0, 50.0, 60)
series = []
for name, task in (("random labels", random_task),
                   ("planted parity", planted_task),
                   ("scrambled planted", scrambled)):
    curve = structure_function(task, fam, grid)
    finite = np.isfinite(curve.loss)
    series.append((name, curve.abscissa[finite].tolist(),
                   curve.loss[finite].tolist()))
series.append(("N ln2 - t", grid.tolist(),
               np.maximum(N * math.log(2) - grid, 0.0).tolist()))

out = "structure_function.svg"
with open(out, "w", encoding="utf-8") as fh:
    fh.write(svg.line_plot(series, "structure functions S(t)",
                           "description budget t (NATS)", "loss (NATS)"))
print(f"\nwrote {out}")
print("the random-label curve tracks the memorization line; the planted "
      "curve collapses once t covers the rule "
      f"(cost {rule.code_length + extension_cost(N, 0, 2):.2f} NATS)")
