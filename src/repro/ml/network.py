"""Sequential model container."""

from __future__ import annotations

import io
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MLError
from repro.ml.layers import Layer, Parameter
from repro.ml.losses import softmax_probabilities


class Sequential:
    """A stack of layers trained with backprop."""

    def __init__(self, layers: Sequence[Layer]):
        if not layers:
            raise MLError("Sequential requires at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    @property
    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    @property
    def parameter_bytes(self) -> int:
        """Model size in bytes (float32 on the wire), for the comm models."""
        return self.parameter_count * 4

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions (argmax of logits)."""
        return self.forward(x, training=False).argmax(axis=1)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax_probabilities(self.forward(x, training=False))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {
            f"{index}.{p.name}": p.value.copy()
            for index, layer in enumerate(self.layers)
            for p in layer.parameters()
        }

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for index, layer in enumerate(self.layers):
            for p in layer.parameters():
                key = f"{index}.{p.name}"
                if key not in state:
                    raise MLError(f"missing parameter {key} in state dict")
                if state[key].shape != p.value.shape:
                    raise MLError(
                        f"shape mismatch for {key}: "
                        f"{state[key].shape} vs {p.value.shape}"
                    )
                p.value[...] = state[key]

    def save(self, path: str) -> None:
        np.savez(path, **self.state_dict())

    def load(self, path: str) -> None:
        with np.load(path) as data:
            self.load_state_dict({k: data[k] for k in data.files})


def classify_patches(
    model: Sequential, data: np.ndarray, patch_size: int
) -> Tuple[np.ndarray, int]:
    """Classify a ``(bands, rows, cols)`` raster patch-wise in one forward pass.

    The raster is tiled into non-overlapping ``patch_size`` squares; a
    trailing strip narrower than a patch is covered by one more patch flush
    with the edge, whose label wins the overlap. Returns the ``(rows, cols)``
    int16 class map and the width of the logits (the model's class count).
    """
    _, rows, cols = data.shape
    if rows < patch_size or cols < patch_size:
        raise MLError(f"scene {rows}x{cols} smaller than patch size {patch_size}")
    spans = [
        (r, c)
        for r in _tile_starts(rows, patch_size)
        for c in _tile_starts(cols, patch_size)
    ]
    logits = model.forward(
        np.stack([data[:, r : r + patch_size, c : c + patch_size] for r, c in spans]),
        training=False,
    )
    out = np.zeros((rows, cols), dtype=np.int16)
    for (r, c), label in zip(spans, logits.argmax(axis=1)):
        out[r : r + patch_size, c : c + patch_size] = label
    return out, logits.shape[1]


def _tile_starts(length: int, patch: int) -> List[int]:
    starts = list(range(0, length - patch + 1, patch))
    if starts[-1] + patch < length:
        starts.append(length - patch)  # cover the trailing strip
    return starts
