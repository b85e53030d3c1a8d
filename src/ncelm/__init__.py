"""Log-bilinear language models trained by exact maximum likelihood,
noise-contrastive estimation, or self-normalized importance sampling.

The package is organized as a library of pure numpy/scipy building
blocks: corpus ingestion (corpus), the model and its checkpoint format
(model), alias-method noise sampling (noise), the three gradient
estimators (estimators), the SGD training loop (trainer), perplexity and
sentence-completion evaluation (evaluation), finite-difference and
convergence diagnostics (diagnostics), and synthetic ground-truth corpus
generation (synthetic). A thin command-line front end lives in cli.
"""

from .corpus import (
    BOUNDARY_MODES,
    OOS_ID,
    OOS_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    Dataset,
    Vocabulary,
    build_vocab,
    encode,
    extract_bidirectional_pairs,
    extract_pairs,
    load_vocab,
    read_sentences,
    save_vocab,
    tokenize_line,
    unigram_counts,
)
from .diagnostics import benchmark_update
from .errors import (
    CheckpointFormatError,
    ConfigError,
    DegenerateWeightsError,
    DivergenceError,
    IngestionError,
    NcelmError,
    SupportError,
)
from .estimators import (
    Gradient,
    IsStats,
    exact_nce_gradient,
    expected_ml_gradient,
    is_gradient_and_objective,
    is_objective,
    ml_gradient_and_objective,
    nce_gradient_and_objective,
    nce_objective,
    update_normalizers,
)
from .evaluation import (
    CompletionProblem,
    completion_accuracy,
    perplexity,
    predicted_speedup,
    read_completion_problems,
    write_completion_problems,
)
from .model import (
    LblParams,
    NormalizerStore,
    full_distribution,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .noise import NoiseDistribution, from_counts, sample, uniform
from .trainer import (
    TrainConfig,
    TrainHistory,
    sgd_step,
    train,
    update_learning_rate,
)

__version__ = "0.1.0"
