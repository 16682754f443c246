"""Cross-scene transfer lab: gradient surgery toward an EMA cosine
target, logit normalization, distance-correlation restriction, and
symmetric-KL ensemble distillation, exercised on synthetic spectral
classification tasks."""

from .agreement import (LogitNormConfig, cosine_similarity, ema_update,
                        gradvac_update, logitnorm, logitnorm_ce,
                        magnitude_similarity)
from .data import (SceneDataset, SynthConfig, generate_pair, load_csv,
                   sample_k_per_class, save_csv)
from .disagreement import (dcor_loss, distance_correlation, double_center,
                           pairwise_distances, symmetric_kl)
from .harness import (RunReport, TrainConfig, ablate, evaluate, load_checkpoint,
                      load_config, save_checkpoint, train, write_log)
from .metrics import (ConfusionMatrix, average_accuracy, cohen_kappa,
                      overall_accuracy)
from .model import (ModelBundle, forward_ensemble, forward_target_agree,
                    forward_target_disagree, shared_gradients)
from .nn import (Mlp, ParamSet, adam_step, ce_logit_grad, cross_entropy,
                 make_rng, softmax)

__version__ = "0.1.0"
