"""Name kept for the benchmark harness; the compiled tape is gone.

The eager autograd engine is the only execution path.  Nothing in
``repro`` uses :class:`CompiledModel`; it survives as an eager
pass-through because the benchmark still patches its methods.
"""

from typing import Any

import numpy as np


class CompiledModel:
    """Eager pass-through: ``forward``/``infer`` return log-probabilities."""

    def __init__(self, model: Any) -> None:
        self.model = model
        self._output: Any = None

    def forward(self, batch: Any) -> np.ndarray:
        self._output = self.model(batch)
        return self._output.data

    def infer(self, batch: Any) -> np.ndarray:
        """Eval-mode :meth:`forward`; leaves the model in eval mode."""
        self.model.train(False)
        return self.forward(batch)

    def backward(self, seed: np.ndarray) -> None:
        self._output.backward(seed)
