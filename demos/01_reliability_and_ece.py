"""Reliability diagrams and expected calibration error.

Builds two toy models over the same predictions, one honest and one
overconfident, and shows how the binned accuracy-vs-confidence gap
turns into a single ECE number.
"""

import io

import numpy as np

from pseudocal import PredictionBatch, bin_stats_to_csv, ece, reliability_bins

rng = np.random.default_rng(0)

# 1. A well-calibrated model: labels drawn from the model's own softmax.
n, classes = 4000, 4
logits = rng.standard_normal((n, classes)) * 2.0
probs = np.exp(logits - logits.max(axis=1, keepdims=True))
probs /= probs.sum(axis=1, keepdims=True)
labels = np.array([rng.choice(classes, p=p) for p in probs])

honest = PredictionBatch(logits=logits, labels=labels)
print(f"honest model      ECE = {ece(honest):.4f}")

# 2. The same decision function, but confidence inflated 4x. The
#    predictions (and accuracy) are identical; only confidence moves.
sharpened = PredictionBatch(logits=logits * 4.0, labels=labels)
print(f"sharpened model   ECE = {ece(sharpened):.4f}")
assert honest.accuracy() == sharpened.accuracy()

# 3. The bins behind the number. For the sharpened model the top bin
#    holds most samples at near-1.0 confidence but much lower accuracy.
stats = reliability_bins(sharpened, 10)
print("\nreliability bins of the sharpened model (10 bins):")
csv_text = io.StringIO()
bin_stats_to_csv(stats, csv_text)
print(csv_text.getvalue())
