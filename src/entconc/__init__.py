"""Entanglement concentration after linear coupling with depolarized photons.

Library layout:

- :mod:`entconc.qmath`      dense complex linear-algebra kernel
- :mod:`entconc.states`     named states and structural classifiers
- :mod:`entconc.channel`    the beam-splitter coupling (step I): one Kraus
                            kernel over a T grid, ``couple`` its one-T case,
                            and the HOM dip in the same mixture form
- :mod:`entconc.fock`       brute-force second-quantized oracle (tests)
- :mod:`entconc.protocol`   the one coupling-and-measurement driver (I, II)
                            of k chains of N couplings, and filtration (III)
- :mod:`entconc.cascade`    one chain of that driver and joint filtration;
                            its closed forms at N = 1 are sigma_II and P_II
- :mod:`entconc.metrics`    concurrence, fidelity, purity
- :mod:`entconc.tomography` simulated 16-setting state tomography
- :mod:`entconc.cli`        parameter sweeps with CSV/JSON output
"""

from .channel import CouplingParams, IndistinguishabilityModel, PostSelectedState, couple
from .metrics import concurrence, fidelity, purity
from .qmath import DensityMatrix
from .states import mixed_env, singlet, singlet_standard

__all__ = [
    "CouplingParams",
    "DensityMatrix",
    "IndistinguishabilityModel",
    "PostSelectedState",
    "concurrence",
    "couple",
    "fidelity",
    "mixed_env",
    "purity",
    "singlet",
    "singlet_standard",
]

__version__ = "0.1.0"
