import numpy as np
import pytest

from protoad.data import ValidationError
from protoad.evalharness import auroc, spearman


def _pairwise_auroc(scores, labels):
    """Brute force: 1 per normal > anomaly pair, 0.5 per tie, over all pairs."""
    normal = scores[labels == 1]
    anomaly = scores[labels == 0]
    wins = (normal[:, None] > anomaly[None, :]).sum()
    ties = (normal[:, None] == anomaly[None, :]).sum()
    return (wins + 0.5 * ties) / (len(normal) * len(anomaly))


@pytest.mark.parametrize("seed", range(8))
def test_auroc_matches_pairwise_count_with_many_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    scores = rng.integers(0, 6, size=n).astype(float)    # few values: heavy ties
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]
    assert auroc(scores, labels) == _pairwise_auroc(scores, labels)


def test_auroc_all_tied_is_one_half():
    assert auroc(np.full(7, 3.0), np.array([1, 0, 1, 0, 1, 0, 1])) == 0.5


def test_auroc_perfect_separation():
    assert auroc([0.1, 0.2, 0.9, 0.8], [0, 0, 1, 1]) == 1.0
    assert auroc([0.1, 0.2, 0.9, 0.8], [1, 1, 0, 0]) == 0.0


def test_auroc_needs_both_classes():
    with pytest.raises(ValidationError):
        auroc([0.1, 0.2], [1, 1])


def test_spearman_with_ties_uses_average_ranks():
    # Ranks of [1, 1, 2] are [1.5, 1.5, 3], identical to those of [0, 0, 5].
    assert spearman([1.0, 1.0, 2.0], [0.0, 0.0, 5.0]) == pytest.approx(1.0, abs=1e-12)
