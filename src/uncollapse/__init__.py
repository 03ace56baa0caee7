"""Simulation and analytics for undoing generalized qubit measurements.

The package covers the abstract POVM/Kraus formalism of measurement
reversal, closed-form statistics for a continuously monitored charge
qubit, a stochastic trajectory engine with reproducible noise streams,
the null-result phase-qubit protocol, and the step sequence that undoes
an arbitrary measurement of many entangled qubits.

Every submodule is registered lazily: it sits in ``sys.modules`` and on
the package from the start, and its code runs the first time one of its
attributes is read.  So a command runs only the modules it uses, and an
error in a module surfaces at that first use, not at ``import uncollapse``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

__all__ = [
    "charge",
    "evolving",
    "linalg",
    "measurement",
    "multiqubit",
    "phase",
    "stats",
    "trajectory",
    "__version__",
]


def _register_lazily(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in (*__all__[:-1], "acceptance"):
    globals()[_name] = _register_lazily(_name)
del _name
