"""Scalable n-gram neural language models.

Four output layers over one shared context network (full softmax,
class-factored, tree-factored, unnormalised), two training algorithms
(maximum-likelihood SGD and noise contrastive estimation), and the
supporting pieces: vocabulary partitioning, diagonal context transforms,
perplexity/n-best evaluation, memory accounting and a binary model format.
"""

from .corpus import (BOS_ID, BOS_TOKEN, EOS_ID, EOS_TOKEN, UNK_ID, UNK_TOKEN,
                     Vocabulary, build_vocabulary, instance_arrays,
                     read_sentences, unigram_distribution, unigram_from_counts)
from .errors import (DataError, ModelFormatError, SnlmError,
                     TrainingDivergedError)
from .evaluation import (BenchmarkReport, EvaluationReport, MemoryEstimate,
                         memory_estimate, perplexity,
                         perplexity_from_instances, query_benchmark,
                         score_nbest, score_sentence)
from .model import (REGIME_CLASS, REGIME_STANDARD, REGIME_TREE, MacCounter,
                    ModelConfig, ModelParameters, OutputLayer,
                    full_distribution, init_parameters, log_prob,
                    log_probs_batch, parameter_shapes, project_batch,
                    project_context, unnormalised_log_score,
                    starting_parameters, unnormalised_scores_batch)
from .modelfile import load_model, save_model
from .partitioning import (VocabularyTree, WordClassing, brown_clustering,
                           class_bigram_objective, frequency_binning,
                           huffman_tree)
from .training import (EpochStats, Gradients, NoiseTable, TrainingConfig,
                       TrainingResult, empirical_unigram, ml_gradient,
                       ml_objective, nce_gradient, nce_objective,
                       squared_norm, train)

__version__ = "0.1.0"
