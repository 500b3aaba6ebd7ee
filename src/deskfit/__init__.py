"""deskfit: few-shot text classification with a small trainable sentence encoder.

Training is two-step: fine-tune the encoder on contrastive sentence pairs
with a squared cosine-similarity loss, then fit a logistic-regression head
on the fine-tuned embeddings. The package also provides teacher-student
distillation, a FLOPs cost model, the standard evaluation metrics, and a
reproducible multi-split experiment harness with a CLI.
"""

# set before the submodules load: harness reads it as its TOOL_VERSION
__version__ = "0.1.0"

from .corpus import (
    Dataset,
    LabeledExample,
    SplitSet,
    load_dataset,
    make_splits,
    sample_few_shot,
    save_dataset_jsonl,
)
from .cost import CostReport, CostSpec, inference_flops, speedup, training_flops
from .distill import (
    DistillConfig,
    SimilarityPair,
    distill,
    generate_unlabeled_pairs,
    teacher_similarities,
)
from .encoder import (
    EncoderParams,
    FinetuneConfig,
    cosine,
    encode,
    finetune,
    init_params,
    pair_loss,
    pair_loss_grad,
    tokenize,
)
from .errors import DeskfitError
from .harness import (
    DistillCurveConfig,
    ExperimentConfig,
    ExperimentReport,
    evaluate_model,
    run_cost_report,
    run_distill_curve,
    run_experiment,
    run_sweep,
)
from .head import (
    HeadParams,
    HeadTrainConfig,
    head_logits,
    head_predict,
    train_head,
    train_head_soft,
)
from .metrics import accuracy, average_precision, mae_x100, mcc
from .pairs import PairSet, TrainPair, generate_pairs, max_unique_pairs
from .pipeline import (
    EncoderConfig,
    FitConfig,
    Model,
    fit,
    load_model,
    predict,
    predict_proba,
    save_model,
)
from .synthetic import make_corpus, make_unlabeled_pool
