"""evidkit: uncertainty-aware multi-label classification on Beta evidence.

Each class gets a binary evidence head producing (defective, non-defective)
evidence; subjective-logic opinions turn that evidence into probabilities
plus an explicit uncertainty mass, which drives out-of-distribution
detection. Expert class-importance weights reshape per-class base rates.
"""

import os

# Cap BLAS thread pools before numpy is first imported anywhere in the
# package. EDL_NUM_THREADS is the documented knob; it only takes effect
# if the host did not already pin these.
_threads = os.environ.get("EDL_NUM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

from .errors import ConfigError, DataFormatError, EvidkitError, TrainingDiverged
from .opinions import (
    DEFAULT_PRIOR_WEIGHT,
    BaseRatePair,
    DirichletPair,
    EvidencePair,
    Opinion,
    dirichlet_from_evidence,
    expected_probability,
    opinion_from_evidence,
    probability_from_opinion,
)
from .base_rates import CIWTable, adjust_base_rates, sigmoid
from .losses import batch_nll, batch_nll_grad
from .network import (
    EvidenceHeadParams,
    MlpParams,
    TrainConfig,
    TrainResult,
    batch_evidence,
    batch_loss,
    batch_loss_grads,
    evidence_from_features,
    extract_features,
    finetune_head,
    init_head,
    init_model,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train_model,
)
from .datasets import (
    GenConfig,
    DatasetSplit,
    Sample,
    SampleTable,
    generate_dataset,
    load_ciw_config,
    load_dataset,
    random_ciw_table,
    samples_to_arrays,
    save_ciw_config,
    save_dataset,
)
from .evaluation import (
    AggregationMode,
    BatchPrediction,
    MetricsReport,
    aupr,
    auroc,
    baseline_ood_scores,
    f1_normal,
    f2_ciw,
    fpr_at_95_tpr,
    parse_aggregation,
    per_class_f2,
    predict_batch,
    render_report,
    write_scores_csv,
)

__version__ = "0.1.0"
