"""fusevit: a vision transformer whose last layer reads tokens selected
from every earlier layer, plus the numerics to train and verify it.

Modules: :mod:`fusevit.tensor` (tensors, reverse-mode autodiff),
:mod:`fusevit.gradcheck` (the finite-difference oracle), :mod:`fusevit.encoder`,
:mod:`fusevit.selector`, :mod:`fusevit.model` (the fused model),
:mod:`fusevit.data` (synthetic data), :mod:`fusevit.train`, :mod:`fusevit.ftz`
(tensor files) and :mod:`fusevit.cli`. Import each name from the module that
defines it.
"""

__version__ = "0.1.0"
