"""Privacy primitives for the federated-learning substrate.

The paper's §V-B lists homomorphic encryption, secret sharing and
differential privacy as the standard privacy techniques for DI+FL
pipelines. Real Paillier encryption needs big-number arithmetic that adds
nothing to the reproduction, so :class:`SimulatedPaillier` keeps the exact
protocol structure — key pairs, ciphertext objects that only support
addition and plaintext scaling, decryption only with the private key — and
counts every operation so the encryption overhead of §V-B can be measured
and reported, while the "ciphertext" internally stores a masked plaintext.
What is simulated and what is exact (message flow, operation counts, byte
counts) is listed in README.md, section "Federated learning".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Union

import numpy as np

from repro.exceptions import FederatedError

Number = Union[int, float]

#: Simulated wire size of one ciphertext: what CPython 3.11 reported for the
#: per-element ciphertext object this module used to build, and the value
#: every recorded ``bytes_transferred`` was taken with. A 2048-bit Paillier
#: ciphertext is 512 B; re-pricing is the cost model's call (ROADMAP item 4d).
CIPHERTEXT_BYTES = 24


@dataclass(frozen=True, eq=False)
class EncryptedNumber:
    """A ciphertext under :class:`SimulatedPaillier`: one value, or one
    float64 array holding a whole encrypted vector.

    Supports only what an additively homomorphic scheme supports: adding
    two ciphertexts from the same key pair, adding a plaintext, and
    multiplying by a plaintext scalar. Indexing an encrypted vector gives
    the ciphertext of that element (or slice).
    """

    key_id: int
    masked_value: Union[float, np.ndarray]

    @property
    def size(self) -> int:
        """How many values are sealed in here."""
        return int(np.size(self.masked_value))

    @property
    def nbytes(self) -> int:
        return self.size * CIPHERTEXT_BYTES

    def __getitem__(self, index) -> "EncryptedNumber":
        return EncryptedNumber(self.key_id, self.masked_value[index])

    def __add__(self, other: Union["EncryptedNumber", Number]) -> "EncryptedNumber":
        if isinstance(other, EncryptedNumber):
            if other.key_id != self.key_id:
                raise FederatedError("cannot add ciphertexts from different key pairs")
            other = other.masked_value
        return EncryptedNumber(self.key_id, self.masked_value + other)

    __radd__ = __add__

    def __mul__(self, scalar: Number) -> "EncryptedNumber":
        if isinstance(scalar, EncryptedNumber):
            raise FederatedError("an additively homomorphic scheme cannot multiply ciphertexts")
        return EncryptedNumber(self.key_id, self.masked_value * float(scalar))

    __rmul__ = __mul__


@dataclass
class SimulatedPaillier:
    """Additively homomorphic encryption stand-in; its counters count values, not calls."""

    key_id: int = field(default_factory=lambda: int(np.random.default_rng().integers(1, 2**31)))
    encryptions: int = field(default=0, init=False)
    decryptions: int = field(default=0, init=False)
    homomorphic_ops: int = field(default=0, init=False)

    def encrypt(self, value: Number) -> EncryptedNumber:
        self.encryptions += 1
        return EncryptedNumber(self.key_id, float(value))

    def encrypt_vector(self, values: Sequence[Number]) -> EncryptedNumber:
        sealed = np.array(values, dtype=float).ravel()
        self.encryptions += sealed.size
        return EncryptedNumber(self.key_id, sealed)

    def decrypt(self, ciphertext: EncryptedNumber) -> Union[float, np.ndarray]:
        if ciphertext.key_id != self.key_id:
            raise FederatedError("ciphertext was produced under a different key pair")
        self.decryptions += ciphertext.size
        return np.copy(ciphertext.masked_value)[()]  # never the ciphertext's own buffer

    def decrypt_vector(self, ciphertexts: EncryptedNumber) -> np.ndarray:
        return np.atleast_1d(self.decrypt(ciphertexts))

    def add(self, a: EncryptedNumber, b: Union[EncryptedNumber, Number]) -> EncryptedNumber:
        self.homomorphic_ops += a.size
        return a + b

    def scale(self, a: EncryptedNumber, scalar: Number) -> EncryptedNumber:
        self.homomorphic_ops += a.size
        return a * scalar

    @property
    def total_operations(self) -> int:
        return self.encryptions + self.decryptions + self.homomorphic_ops


@dataclass
class SecretSharer:
    """Additive secret sharing over the reals (Shamir-style two-of-two)."""

    seed: int = 0

    def share(self, values: np.ndarray, n_shares: int = 2) -> List[np.ndarray]:
        """Split ``values`` into ``n_shares`` additive shares."""
        if n_shares < 2:
            raise FederatedError("secret sharing needs at least two shares")
        values = np.asarray(values, dtype=float)
        rng = np.random.default_rng(self.seed)
        shares = [rng.standard_normal(values.shape) for _ in range(n_shares - 1)]
        last = values - sum(shares)
        return shares + [last]

    @staticmethod
    def reconstruct(shares: Sequence[np.ndarray]) -> np.ndarray:
        if not shares:
            raise FederatedError("cannot reconstruct from zero shares")
        return np.sum(np.stack([np.asarray(s, dtype=float) for s in shares]), axis=0)


def gaussian_mechanism(
    values: np.ndarray,
    sensitivity: float,
    epsilon: float,
    delta: float = 1e-5,
    seed: int = 0,
) -> np.ndarray:
    """Apply the Gaussian mechanism for (ε, δ)-differential privacy."""
    if epsilon <= 0 or delta <= 0:
        raise FederatedError("epsilon and delta must be positive")
    values = np.asarray(values, dtype=float)
    sigma = sensitivity * np.sqrt(2.0 * np.log(1.25 / delta)) / epsilon
    rng = np.random.default_rng(seed)
    return values + rng.normal(0.0, sigma, size=values.shape)
