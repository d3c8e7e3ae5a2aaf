"""Core PT-k query algorithms — the paper's primary contribution.

Layout mirrors Section 4 and Section 5 of the paper:

* :mod:`~repro.core.subset_probability` — the Poisson-binomial dynamic
  program behind subset probabilities ``Pr(S, j)`` (Theorem 2).
* :mod:`~repro.core.basic_case` — the O(kn) exact algorithm when every
  tuple is independent (Equations 3–4).
* :mod:`~repro.core.rule_compression` — rule-tuple compression
  (Cases 1–3, Corollaries 1–2) producing compressed dominant sets.
* :mod:`~repro.core.reordering` — aggressive and lazy prefix-sharing
  orders over compression units with the Equation-5 cost accounting.
* :mod:`~repro.core.pruning` — the three pruning rules (Theorems 3–5)
  plus the early-stop bound on unseen tuples.
* :mod:`~repro.core.exact` — the complete exact algorithm (Figure 3) in
  three variants: RC, RC+AR, RC+LR.
* :mod:`~repro.core.sampling` — the Monte-Carlo estimator of Section 5
  with lazy unit generation and progressive stopping.
* :mod:`~repro.core.results` — result/statistics containers shared by the
  algorithms and the benchmark harness.
"""

from repro.core.basic_case import topk_probabilities_independent
from repro.core.exact import ExactVariant, exact_ptk_query, exact_topk_probabilities
from repro.core.results import AlgorithmStats, PTKAnswer, TupleProbability
from repro.core.sampling import (
    SamplingConfig,
    SamplingResult,
    sampled_ptk_query,
    sampled_topk_probabilities,
)
from repro.core.subset_probability import subset_probabilities

__all__ = [
    "AlgorithmStats",
    "ExactVariant",
    "PTKAnswer",
    "SamplingConfig",
    "SamplingResult",
    "TupleProbability",
    "exact_ptk_query",
    "exact_topk_probabilities",
    "sampled_ptk_query",
    "sampled_topk_probabilities",
    "subset_probabilities",
    "topk_probabilities_independent",
]
