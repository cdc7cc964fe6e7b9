"""Measuring categorical association with Cramer's V.

Builds contingency tables by hand to show the chi-square -> V path, then
computes a full association matrix over a mixed-type table (numerics join via
quantile binning) and selects the columns most associated with the target by
reading the target's row of that matrix.

Run: python demos/02_association_and_selection.py
"""

from dataclasses import replace

import numpy as np

from sevpred import (
    SyntheticSpec,
    association_matrix,
    bin_numeric,
    build_contingency,
    chi_square,
    cramers_v,
    generate_synthetic,
    select_features,
)

# Hand-sized example first: a 2x2 table with visible dependence.
ct = build_contingency(
    ["wet", "wet", "wet", "dry", "dry", "dry"],
    ["crash", "crash", "safe", "safe", "safe", "crash"],
)
print("counts:\n", ct.counts)
print("chi-square:", round(chi_square(ct), 4))
print("Cramer's V:", round(cramers_v(ct), 4))
print("V (bias corrected):", round(cramers_v(ct, bias_corrected=True), 4))

# Quantile binning is how numeric columns take part.
values = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
print("\nquartile bins of", values.tolist(), "->", bin_numeric(values, 4).tolist())

# Full matrix over a synthetic table; cat_0 is made to copy the target so it
# tops the ranking.
table = generate_synthetic(
    SyntheticSpec(3000, (0.1, 0.5, 0.3, 0.1), n_numeric=2, n_categorical=2, seed=7)
)
# a categorical column is int64 codes into its labels: target k gets label "tk"
k = table.schema.target_cardinality
table = replace(
    table,
    columns={**table.columns, "cat_0": table.target - 1},
    labels={**table.labels, "cat_0": np.array([f"t{v}" for v in range(1, k + 1)], dtype=object)},
)

matrix = association_matrix(table, n_bins=8)
print("\nassociation matrix labels:", matrix.labels)
print(np.round(matrix.values, 3))

# selection reads the target's row of the matrix: no V is computed twice
report = select_features(matrix, table.schema.target, threshold=0.2)
print("\nranked against the target (its row of the matrix):")
for name, v in report.ranked:
    marker = "*" if name in report.selected else " "
    print(f"  {marker} {name:8s} V={v:.4f}")
print("selected at threshold 0.2:", report.selected)
