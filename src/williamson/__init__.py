"""Exhaustive enumeration of Williamson sequences of orders divisible by 2 or 3.

Import the submodules (``from williamson import cli, pipeline``); the package
itself holds only ``__version__``.
"""

__version__ = "0.6.0"
