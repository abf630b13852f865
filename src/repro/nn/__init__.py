"""NumPy neural-network substrate (PyTorch/DGL substitute).

Public surface:

* :class:`~repro.nn.tensor.Tensor` — reverse-mode autodiff array.
* :class:`~repro.nn.module.Module` / :class:`~repro.nn.module.Parameter`.
* Layers: :class:`Linear`, :class:`MLP`, :class:`Sequential`,
  :class:`LSTMCell`, :class:`LSTM`, :class:`BiLSTM`, :class:`AdditiveAttention`.
* Optimizer: :class:`Adam`.
* ``functional`` ops incl. graph segment aggregation (sum/mean), the
  k-step message pass, the batch-invariant ``linear`` kernel, masked softmax.

Only what ``src/`` calls lives here; ops that serve the test oracles alone
sit beside them (``scatter_rows`` in ``tests/core/gnn_reference.py``,
``log_softmax`` in ``tests/nn/nn_reference.py``).
"""

from . import functional, init
from .layers import MLP, Activation, Linear, Sequential
from .module import Module, Parameter
from .optim import Adam, Optimizer
from .rnn import LSTM, AdditiveAttention, BiLSTM, LSTMCell
from .tensor import Tensor, as_tensor, concat, no_grad, stack

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "no_grad",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Sequential",
    "Activation",
    "LSTMCell",
    "LSTM",
    "BiLSTM",
    "AdditiveAttention",
    "Optimizer",
    "Adam",
    "functional",
    "init",
]
