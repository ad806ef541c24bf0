"""fusevit: a vision transformer whose last layer reads tokens selected
from every earlier layer, plus the numerics to train and verify it.

The package is self-contained: tensors, reverse-mode autodiff, and a
finite-difference gradient oracle live in :mod:`fusevit.tensor`; the
encoder, token selectors, and fused model in :mod:`fusevit.encoder`,
:mod:`fusevit.selector`, :mod:`fusevit.model`; synthetic data and the
training loop in :mod:`fusevit.data` and :mod:`fusevit.train`. Each name is
imported from the module that defines it.
"""

__version__ = "0.1.0"
