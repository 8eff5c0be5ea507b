"""Token-constrained contrastive learning with instance/prototype memory
banks, DBSCAN pseudo-labels, and retrieval evaluation on synthetic
identity data."""

from .cluster import dbscan
from .config import EvalConfig, RunConfig, RunPaths, load_run_config
from .encoder import (EncodeOutput, EncoderParams, encode, encode_backward,
                      init_params, load_checkpoint, patch_means, save_checkpoint)
from .errors import ConfigError, DataFormatError, NumericError
from .evaluate import RankingResult, evaluate_encoder, evaluate_retrieval
from .linalg import (DegenerateNormWarning, finite_diff_grad, normalize_rows,
                     relative_error)
from .losses import (LossOutput, patch_rate, select_constraint_tokens,
                     softmax_ce)
from .memory import (compute_prototypes, label_runs, mine, momentum_update, plan_anchors,
                     plan_epoch, write_rounds)
from .synth import (SynthDataset, SynthSpec, generate, load_dataset,
                    save_dataset, split_query_gallery)
from .training import TrainConfig, TrainResult, sample_batches, train

__version__ = "0.1.0"
