"""Why the synthesis choices matter: ablations and the mix-ratio sweep.

Three things fall out of the ablation table:

* fitting on raw pseudo-labeled samples (with or without a confidence
  filter) collapses to the sharpening bound T = 0.05, because every
  sample trivially agrees with its own label;
* mixing same-labeled pairs inherits the same failure;
* mixing distinct-labeled pairs manufactures a realistic share of
  wrong predictions, which is what makes the temperature land near the
  oracle.

The sweep shows the medium mix-ratio band working best: ratios near
0.5 make mixtures too ambiguous, ratios near 1.0 make them too easy.
"""

from dataclasses import replace

from pseudocal import (
    MixupConfig,
    PredictionBatch,
    ShiftSpec,
    calibrate,
    correspondence_rate,
    ece,
    generate,
    lambda_sweep,
    pseudo_set,
    train,
    variant_filtered_pl,
    variant_pseudo_label,
)

spec = ShiftSpec(n_classes=5, dim=10, n_source=2000, n_target=2000,
                 mean_shift=1.0, rotation=0.45, seed=0)
task = generate(spec)
model = train(task, epochs=400, lr=0.1, gamma=3.0, seed=0)
batch = PredictionBatch(
    logits=model.predict_logits(task.target_inputs), labels=task.target_labels
)
cfg = MixupConfig(seed=0)

print("ablation                 T        ECE")
fits = {
    "mixup distinct (ours)": calibrate(model, task.target_inputs, cfg),
    "pseudo-label":          variant_pseudo_label(batch.logits),
    "filtered pseudo-label": variant_filtered_pl(batch.logits),
    "mixup same-label":      calibrate(model, task.target_inputs, replace(cfg, pairing="same")),
    "mixup beta ratios":     calibrate(model, task.target_inputs,
                                       replace(cfg, lambda_policy="beta")),
}
for name, cal in fits.items():
    print(f"{name:<22} {cal.temperature:>7.3f} {ece(cal.apply(batch)):>10.4f}")

# The diagnostic behind the trick: mixed samples succeed or fail
# together with their dominant constituent far above chance.
pseudo = pseudo_set(model, task.target_inputs, cfg)
rate = correspondence_rate(pseudo, task.target_labels)
print(f"\ncorrespondence rate: {rate:.3f} "
      f"(chance would be near {0.5:.2f}; deep-net benchmarks report >0.60)")

rows = lambda_sweep(model, task, [0.51, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9],
                    ["hard", "soft"], seeds=[0, 1, 2])
print("\nmix ratio sensitivity (mean ECE over 3 seeds):")
print("lambda   hard     soft")
for lam in (0.51, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9):
    cells = {r["label_mode"]: r["mean_ece"] for r in rows if r["lambda"] == lam}
    print(f"{lam:>6.2f} {cells['hard']:>7.4f} {cells['soft']:>8.4f}")
