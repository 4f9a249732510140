"""Rank-1 lattice quadrature with tent-transformed and symmetrized rules.

The package builds lattice point sets, evaluates reproducing kernels for
four weighted function-space families, computes worst-case errors by
kernel double sums and by closed forms, constructs generating vectors
component by component, and runs convergence studies on two families of
test integrands.  Its public names are those of its modules' ``__all__``.
"""
from . import bench, cbc, kernels, points, wce
from .bench import *  # noqa: F401,F403
from .cbc import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .points import *  # noqa: F401,F403
from .wce import *  # noqa: F401,F403

__all__ = []
__all__ += bench.__all__
__all__ += cbc.__all__
__all__ += kernels.__all__
__all__ += points.__all__
__all__ += wce.__all__

__version__ = "0.1.0"
