"""Module and parameter primitives of the numpy NN framework.

A :class:`Module` owns :class:`Parameter` objects and implements
``forward``/``backward``.  Backward takes the upstream gradient and
returns the gradient with respect to the module's input, accumulating
parameter gradients in place — the same contract as classic
define-by-run frameworks, minus autograd (each module knows its own
adjoint, which keeps the framework small and auditable).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Iterator, List

import numpy as np


class _GradState(threading.local):
    """Per-thread gradient switch, toggled by :func:`no_grad`.

    Thread-local (not process-wide) so a serving worker running an
    inference plan under ``no_grad`` cannot flip gradient caching off —
    or, worse, back *on* mid-forward — for a training loop in another
    thread.  Each thread starts with gradients enabled.
    """

    enabled = True


_GRAD_STATE = _GradState()


def is_grad_enabled() -> bool:
    """Whether modules should record state for a later backward pass
    (on the calling thread)."""
    return _GRAD_STATE.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager that disables backward-state caching.

    Inside the context every module runs forward-only: convolution
    im2col matrices, ReLU masks, pooling argmax indices and batch-norm
    normalized activations are not retained, which is the inference
    fast path's memory win.  Calling ``backward`` on a module whose
    forward ran under ``no_grad`` raises ``RuntimeError``.  The switch
    is per-thread: entering ``no_grad`` on one thread leaves concurrent
    training threads untouched.
    """
    previous = _GRAD_STATE.enabled
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


class Parameter:
    """A learnable tensor with its gradient accumulator."""

    def __init__(self, value: np.ndarray, name: str = "") -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Module:
    """Base class: a differentiable tensor-to-tensor transform."""

    def __init__(self) -> None:
        self._parameters: List[Parameter] = []
        self.training = True

    # -- plumbing ----------------------------------------------------------

    def register(self, value: np.ndarray, name: str) -> Parameter:
        """Create and track a parameter."""
        param = Parameter(value, name=name)
        self._parameters.append(param)
        return param

    def parameters(self) -> Iterator[Parameter]:
        """All learnable parameters of this module."""
        return iter(self._parameters)

    def num_parameters(self) -> int:
        return sum(p.value.size for p in self._parameters)

    def zero_grad(self) -> None:
        for param in self._parameters:
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    @property
    def needs_grad(self) -> bool:
        """True when forward must cache state for backward.

        Inference skips the caches two ways: module-local ``eval()``
        and the global :func:`no_grad` context.
        """
        return self.training and is_grad_enabled()

    # -- compute -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. input; accumulates parameter gradients."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- (de)serialization ---------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Parameter values keyed by their registered names."""
        state: Dict[str, np.ndarray] = {}
        for param in self._parameters:
            if param.name in state:
                raise ValueError(f"duplicate parameter name {param.name!r}")
            state[param.name] = param.value.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameter values saved by :meth:`state_dict`."""
        for param in self._parameters:
            if param.name not in state:
                raise KeyError(f"missing parameter {param.name!r}")
            value = np.asarray(state[param.name], dtype=np.float64)
            if value.shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {param.name!r}: "
                    f"{value.shape} vs {param.value.shape}"
                )
            param.value = value.copy()
            param.grad = np.zeros_like(param.value)


class Identity(Module):
    """Pass-through module (used for 'identity' activations)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out
