"""Shape-keyed scratch-buffer pool backing the fused nn engine.

Minibatch training on the numpy substrate used to allocate dozens of
temporaries per batch (layer activations, masks, input gradients, optimizer
scratch).  A :class:`Workspace` turns each of those into a named, preallocated
buffer: the first batch of a given shape allocates, every later batch reuses.

Buffers of two or more dimensions are keyed by ``(name, shape[1:], dtype)``
— everything but the row count.  A request for fewer rows than the buffer
holds gets a leading-row view of it (the buffer itself when the rows match
exactly); only a request for more rows reallocates.  So a tensor that is
asked for at many row counts (the training remainder batch, the serve
executor's tile-padded micro-batches) costs one buffer of its largest row
count, and the steady state allocates nothing.  One-dimensional buffers are
keyed by their exact shape.  The price is that one name can back only one
live tensor at a time: a caller must not hold a ``get(name, (m, k))``
result across a ``get(name, (n, k))`` call it still needs apart.

Buffers are owned by whoever holds the workspace — a layer's forward output
is valid only until that layer's next forward call.  Code that hands arrays
to callers (model ``predict``/``generate`` surfaces) must copy at the
boundary.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace"]


class Workspace:
    """Named, shape-keyed pool of reusable numpy buffers."""

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict[tuple, np.ndarray] = {}

    def get(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Return a ``shape`` buffer for ``name``, allocating only to grow.

        The contents are unspecified — callers must fully overwrite
        (``out=`` semantics), never read-modify-write.
        """
        if not isinstance(shape, tuple):
            shape = tuple(shape)
        rowwise = len(shape) >= 2
        key = (name, rowwise, shape[1:] if rowwise else shape,
               np.dtype(dtype).char)
        buf = self._bufs.get(key)
        if buf is None or (rowwise and buf.shape[0] < shape[0]):
            buf = np.empty(shape, dtype=dtype)
            self._bufs[key] = buf
        elif rowwise and buf.shape[0] != shape[0]:
            return buf[:shape[0]]
        return buf

    def zeros(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """Like :meth:`get`, but the buffer is zero-filled on every call."""
        buf = self.get(name, shape, dtype)
        buf[...] = 0.0
        return buf

    def clear(self) -> None:
        """Drop every buffer (e.g. after a dtype switch)."""
        self._bufs.clear()

    def __len__(self) -> int:
        return len(self._bufs)

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self._bufs)
