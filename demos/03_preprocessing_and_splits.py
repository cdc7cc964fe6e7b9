"""From mixed columns to a dense design matrix, without leakage.

Fits the one-hot codec and standardizer on the training rows only, assembles
the feature matrix for all rows, and shows that the stratified 60:20:20 split
preserves class proportions in every part.

Run: python demos/03_preprocessing_and_splits.py
"""

import numpy as np

from sevpred import (
    SyntheticSpec,
    assemble,
    fit_one_hot,
    fit_standardizer,
    generate_synthetic,
    stratified_split,
)
from sevpred.dataset import ColumnKind

table = generate_synthetic(
    SyntheticSpec(1000, (0.05, 0.65, 0.25, 0.05), n_numeric=2, n_categorical=2, seed=13)
)
split = stratified_split(table.target, ratios=(0.6, 0.2, 0.2), seed=99)
print("split sizes:", {k: len(v) for k, v in split.parts().items()})
for part_name, idx in split.parts().items():
    counts = np.bincount(table.target[idx], minlength=5)[1:]
    print(f"  {part_name:5s} class counts: {counts.tolist()}")

numeric = [n for n, k in table.schema.columns if k == ColumnKind.NUMERIC]
categorical = [n for n, k in table.schema.columns if k == ColumnKind.CATEGORICAL]

# Fit on train only; categories seen only in val/test become zero vectors.
codec = fit_one_hot(table, categorical, rows=split.train)
standardizer = fit_standardizer(table, numeric, rows=split.train)
print("\nlearned categories:", codec.categories)
print("numeric moments:", {k: (round(m, 3), round(s, 3)) for k, (m, s) in standardizer.moments.items()})

features = assemble(table, codec, standardizer)
print(f"\ndesign matrix: {features.n} x {features.d}")
print("column labels:", features.column_labels[:6], "...")

# each one-hot block is one code column; -1 marks a category unseen at fit time
print("cells with categories unseen at fit time:", np.count_nonzero(features.codes < 0))

train_block = features.values[split.train]
print("train numeric means (should be ~0):", np.round(train_block[:, :2].mean(axis=0), 6))
