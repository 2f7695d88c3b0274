"""Tests for repro.federated.encryption."""

import numpy as np
import pytest

from repro.exceptions import FederatedError
from repro.federated.encryption import (
    CIPHERTEXT_BYTES,
    EncryptedNumber,
    SecretSharer,
    SimulatedPaillier,
    gaussian_mechanism,
)


class TestSimulatedPaillier:
    def test_encrypt_decrypt_round_trip(self):
        paillier = SimulatedPaillier(key_id=1)
        assert paillier.decrypt(paillier.encrypt(3.5)) == 3.5

    def test_additive_homomorphism(self):
        paillier = SimulatedPaillier(key_id=1)
        a, b = paillier.encrypt(2.0), paillier.encrypt(5.0)
        assert paillier.decrypt(a + b) == 7.0
        assert paillier.decrypt(a + 1.0) == 3.0
        assert paillier.decrypt(3.0 * b) == 15.0

    def test_ciphertext_multiplication_forbidden(self):
        paillier = SimulatedPaillier(key_id=1)
        a, b = paillier.encrypt(2.0), paillier.encrypt(5.0)
        with pytest.raises(FederatedError):
            _ = a * b

    def test_cross_key_operations_rejected(self):
        first, second = SimulatedPaillier(key_id=1), SimulatedPaillier(key_id=2)
        with pytest.raises(FederatedError):
            _ = first.encrypt(1.0) + second.encrypt(1.0)
        with pytest.raises(FederatedError):
            second.decrypt(first.encrypt(1.0))

    def test_vector_helpers_and_counters(self):
        paillier = SimulatedPaillier(key_id=1)
        values = np.array([1.0, 2.0, 3.0])
        ciphertexts = paillier.encrypt_vector(values)
        assert np.allclose(paillier.decrypt_vector(ciphertexts), values)
        assert paillier.encryptions == 3
        assert paillier.decryptions == 3
        paillier.add(ciphertexts[0], ciphertexts[1])
        paillier.scale(ciphertexts[0], 2.0)
        assert paillier.homomorphic_ops == 2
        assert paillier.total_operations == 8

    def test_an_encrypted_vector_is_one_array(self):
        paillier = SimulatedPaillier(key_id=1)
        values = np.arange(10_000, dtype=float)
        sealed = paillier.encrypt_vector(values)
        assert isinstance(sealed, EncryptedNumber)
        assert isinstance(sealed.masked_value, np.ndarray)
        assert sealed.size == 10_000 and sealed.nbytes == 10_000 * CIPHERTEXT_BYTES
        assert paillier.encrypt(1.0).nbytes == CIPHERTEXT_BYTES
        doubled = paillier.add(sealed, paillier.scale(sealed, 1.0))
        assert np.array_equal(paillier.decrypt_vector(doubled), 2 * values)
        assert (paillier.encryptions, paillier.homomorphic_ops, paillier.decryptions) == (
            10_001, 20_000, 10_000,
        )
        values[0] = -1.0  # the ciphertext does not alias the plaintext buffer
        assert paillier.decrypt(sealed[0]) == 0.0
        for opened in (paillier.decrypt(sealed), paillier.decrypt_vector(sealed)):
            opened[0] = -1.0  # nor does a decrypted array alias the ciphertext
        assert paillier.decrypt(sealed[0]) == 0.0


class TestSecretSharing:
    def test_shares_reconstruct(self, rng):
        values = rng.standard_normal((5, 3))
        shares = SecretSharer(seed=1).share(values, n_shares=3)
        assert len(shares) == 3
        assert np.allclose(SecretSharer.reconstruct(shares), values)

    def test_single_share_rejected(self):
        with pytest.raises(FederatedError):
            SecretSharer().share(np.zeros(3), n_shares=1)
        with pytest.raises(FederatedError):
            SecretSharer.reconstruct([])

    def test_individual_share_reveals_nothing_obvious(self, rng):
        values = np.full(100, 7.0)
        shares = SecretSharer(seed=2).share(values)
        assert not np.allclose(shares[0], values)


class TestDifferentialPrivacy:
    def test_noise_scales_with_epsilon(self):
        values = np.zeros(10_000)
        loose = gaussian_mechanism(values, sensitivity=1.0, epsilon=10.0, seed=1)
        tight = gaussian_mechanism(values, sensitivity=1.0, epsilon=0.1, seed=1)
        assert np.std(tight) > np.std(loose)

    def test_invalid_parameters(self):
        with pytest.raises(FederatedError):
            gaussian_mechanism(np.zeros(3), 1.0, epsilon=0.0)
        with pytest.raises(FederatedError):
            gaussian_mechanism(np.zeros(3), 1.0, epsilon=1.0, delta=0.0)

    def test_deterministic_given_seed(self):
        values = np.ones(5)
        first = gaussian_mechanism(values, 1.0, 1.0, seed=3)
        second = gaussian_mechanism(values, 1.0, 1.0, seed=3)
        assert np.allclose(first, second)
