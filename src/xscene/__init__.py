"""Cross-scene transfer lab: gradient surgery toward an EMA cosine
target, logit normalization, distance-correlation restriction, and
symmetric-KL ensemble distillation, exercised on synthetic spectral
classification tasks."""

__version__ = "0.1.0"
