"""Active and semi-supervised learning for remote sensing classification.

The paper grounds Challenge C1 in Persello & Bruzzone, "Active and
Semisupervised Learning for the Classification of Remote Sensing Images"
[20]: labelled EO data is scarce and expensive ("it is not feasible to assume
the availability of enough ground truth"), so the label budget must be spent
where it matters and the unlabelled archive must be exploited.

* :func:`uncertainty_sampling` / :func:`margin_sampling` — query strategies
  scoring pool samples by predictive entropy or margin;
* :class:`ActiveLearner` — the budgeted labelling loop: train, query the
  most informative samples, label, repeat (random sampling is the baseline);
* :func:`self_training` — semi-supervised pseudo-labelling: confident
  predictions on unlabelled data join the training set, iterated to a
  fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MLError
from repro.datasets.eurosat import Dataset
from repro.ml.metrics import accuracy as accuracy_fn
from repro.ml.network import Sequential


def predictive_entropy(probabilities: np.ndarray) -> np.ndarray:
    """Shannon entropy per row of a (N, C) probability matrix."""
    probabilities = np.asarray(probabilities)
    if probabilities.ndim != 2:
        raise MLError("probabilities must be (N, C)")
    clipped = np.clip(probabilities, 1e-12, 1.0)
    return -(clipped * np.log(clipped)).sum(axis=1)


def prediction_margin(probabilities: np.ndarray) -> np.ndarray:
    """Best-minus-second-best probability per row (small = uncertain)."""
    probabilities = np.asarray(probabilities)
    if probabilities.ndim != 2 or probabilities.shape[1] < 2:
        raise MLError("probabilities must be (N, C) with C >= 2")
    top_two = np.sort(probabilities, axis=1)[:, -2:]
    return top_two[:, 1] - top_two[:, 0]


def uncertainty_sampling(
    model: Sequential, pool_x: np.ndarray, count: int
) -> np.ndarray:
    """Indices of the *count* highest-entropy pool samples."""
    if count < 1:
        raise MLError("count must be >= 1")
    entropy = predictive_entropy(model.predict_proba(pool_x))
    return np.argsort(entropy)[::-1][:count]


def margin_sampling(
    model: Sequential, pool_x: np.ndarray, count: int
) -> np.ndarray:
    """Indices of the *count* smallest-margin pool samples."""
    if count < 1:
        raise MLError("count must be >= 1")
    margin = prediction_margin(model.predict_proba(pool_x))
    return np.argsort(margin)[:count]


def random_sampling(
    pool_size: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """The baseline: *count* indices drawn uniformly without replacement."""
    if count < 1 or count > pool_size:
        raise MLError(f"cannot draw {count} from a pool of {pool_size}")
    return rng.choice(pool_size, size=count, replace=False)


@dataclass
class ActiveRound:
    """One round of the labelling loop."""

    labelled: int
    accuracy: float


@dataclass
class ActiveLearner:
    """A budgeted active-learning loop over a labelled pool.

    The pool's labels play the oracle: they are revealed only when queried.
    ``train_fn(model, dataset)`` trains in place; ``model_fn(bands)``
    constructs a fresh model per round (retraining from scratch keeps
    rounds comparable).
    """

    model_fn: Callable[[], Sequential]
    train_fn: Callable[[Sequential, Dataset], None]
    strategy: str = "uncertainty"  # uncertainty | margin | random
    seed: int = 0

    def run(
        self,
        pool: Dataset,
        test: Dataset,
        initial: int = 20,
        batch: int = 20,
        rounds: int = 5,
    ) -> Tuple[Sequential, List[ActiveRound]]:
        """Run the loop; returns (final model, per-round history)."""
        if self.strategy not in ("uncertainty", "margin", "random"):
            raise MLError(f"unknown strategy {self.strategy!r}")
        if initial < 1 or batch < 1 or rounds < 1:
            raise MLError("initial, batch, and rounds must be >= 1")
        if initial + batch * rounds > len(pool):
            raise MLError("label budget exceeds the pool size")
        rng = np.random.default_rng(self.seed)

        labelled_idx = list(rng.choice(len(pool), size=initial, replace=False))
        history: List[ActiveRound] = []
        model = self.model_fn()
        for _ in range(rounds):
            labelled = pool.subset(np.asarray(sorted(labelled_idx)))
            model = self.model_fn()
            self.train_fn(model, labelled)
            history.append(
                ActiveRound(
                    labelled=len(labelled_idx),
                    accuracy=accuracy_fn(model.predict(test.x), test.y),
                )
            )
            unlabelled = np.setdiff1d(
                np.arange(len(pool)), np.asarray(labelled_idx)
            )
            if unlabelled.size == 0:
                break
            take = min(batch, unlabelled.size)
            if self.strategy == "random":
                picked = random_sampling(unlabelled.size, take, rng)
            elif self.strategy == "margin":
                picked = margin_sampling(model, pool.x[unlabelled], take)
            else:
                picked = uncertainty_sampling(model, pool.x[unlabelled], take)
            labelled_idx.extend(unlabelled[picked].tolist())
        return model, history


def self_training(
    model_fn: Callable[[], Sequential],
    train_fn: Callable[[Sequential, Dataset], None],
    labelled: Dataset,
    unlabelled_x: np.ndarray,
    confidence: float = 0.9,
    max_iterations: int = 3,
) -> Tuple[Sequential, Dataset, List[int]]:
    """Iterated pseudo-labelling.

    Each iteration trains on the current labelled set, pseudo-labels the
    unlabelled samples the model is confident about (max probability >=
    ``confidence``), and absorbs them. Stops when nothing new qualifies.
    Returns (final model, final training set, adopted-per-iteration counts).
    """
    if not 0.5 < confidence <= 1.0:
        raise MLError("confidence must be in (0.5, 1.0]")
    remaining = np.asarray(unlabelled_x)
    current = labelled
    adopted_history: List[int] = []
    model = model_fn()
    train_fn(model, current)
    for _ in range(max_iterations):
        if remaining.shape[0] == 0:
            break
        probabilities = model.predict_proba(remaining)
        best = probabilities.max(axis=1)
        confident = best >= confidence
        adopted = int(confident.sum())
        adopted_history.append(adopted)
        if adopted == 0:
            break
        pseudo_labels = probabilities[confident].argmax(axis=1)
        current = Dataset(
            np.concatenate([current.x, remaining[confident]]),
            np.concatenate([current.y, pseudo_labels.astype(np.int64)]),
            current.class_names,
        )
        remaining = remaining[~confident]
        model = model_fn()
        train_fn(model, current)
    return model, current, adopted_history
