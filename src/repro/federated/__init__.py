"""Federated learning with data-integration metadata (paper §V).

* :mod:`repro.federated.encryption` — simulated additively-homomorphic
  encryption (Paillier stand-in; a ciphertext vector is one array), additive
  secret sharing and differential privacy noise, with operation counters so
  encryption overhead can be reported.
* :mod:`repro.federated.alignment` — PSI-style private entity alignment
  that turns entity-resolution output into the indicator matrices each
  party needs, without revealing non-overlapping identifiers.
* :mod:`repro.federated.vertical_lr` — vertical federated linear (and
  ridge) regression following Yang et al. [35], the feature spaces
  expressed through the mapping/indicator matrices as in §V-A, its rounds
  epochs of :func:`repro.learning.gd.descend`.
* :mod:`repro.federated.horizontal` — FedAvg for the union / HFL scenario
  (its local epochs are the same loop).
"""

from repro.federated.encryption import (
    SimulatedPaillier,
    EncryptedNumber,
    SecretSharer,
    gaussian_mechanism,
)
from repro.federated.party import Party
from repro.federated.alignment import private_set_intersection, build_alignment
from repro.federated.vertical_lr import VerticalFederatedLinearRegression, VFLTrainingReport
from repro.federated.horizontal import FederatedAveraging, HFLTrainingReport

__all__ = [
    "SimulatedPaillier",
    "EncryptedNumber",
    "SecretSharer",
    "gaussian_mechanism",
    "Party",
    "private_set_intersection",
    "build_alignment",
    "VerticalFederatedLinearRegression",
    "VFLTrainingReport",
    "FederatedAveraging",
    "HFLTrainingReport",
]
