"""Mini-batch iteration over ACFG lists.

:func:`iterate_minibatches` picks *which* graphs form a minibatch (the
paper's batch-mode SGD, Table II).  The models collate each plain ACFG
list into a :class:`~repro.core.batched.GraphBatch` themselves
(``DgcnnBase.collate``), so every forward builds its batch afresh.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence

import numpy as np

from repro.exceptions import TrainingError
from repro.features.acfg import ACFG

if TYPE_CHECKING:  # imported lazily at runtime: repro.core.magic imports
    from repro.core.batched import GraphBatch  # repro.train, not vice versa


def iterate_minibatches(
    acfgs: Sequence[ACFG],
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
    shuffle: bool = True,
) -> Iterator[List[ACFG]]:
    """Yield batches of ACFGs; the final partial batch is kept.

    The paper trains with stochastic gradient descent "in a batch mode"
    with batch sizes 10 or 40 (Table II).
    """
    if batch_size < 1:
        raise TrainingError(f"batch_size must be >= 1, got {batch_size}")
    indices = np.arange(len(acfgs))
    if shuffle:
        generator = rng if rng is not None else np.random.default_rng()
        generator.shuffle(indices)
    for start in range(0, len(indices), batch_size):
        chunk = indices[start : start + batch_size]
        yield [acfgs[i] for i in chunk]


class BatchCollator:
    """Name kept for the benchmark harness, which patches ``__call__``.

    Nothing in ``repro`` calls it: the models collate plain ACFG lists
    themselves.  Calling it builds a fresh normalized ``GraphBatch``.
    """

    def __call__(self, acfgs: Sequence[ACFG]) -> "GraphBatch":
        from repro.core.batched import GraphBatch

        return GraphBatch(acfgs)
