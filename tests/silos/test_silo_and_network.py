"""Tests for repro.silos.silo and repro.silos.network."""

import numpy as np
import pytest

from repro.exceptions import CatalogError, PrivacyError
from repro.federated.encryption import CIPHERTEXT_BYTES, SimulatedPaillier
from repro.silos.network import SimulatedNetwork, TransferRecord
from repro.silos.silo import DataSilo, PrivacyLevel


class TestDataSilo:
    def test_add_and_lookup(self, hospital):
        s1, _ = hospital
        silo = DataSilo("er")
        silo.add_table(s1)
        assert silo.table("S1") is s1
        assert "S1" in silo
        assert silo.table_names == ["S1"]

    def test_missing_table(self):
        with pytest.raises(CatalogError):
            DataSilo("er").table("nope")

    def test_privacy_levels(self):
        assert DataSilo("a").allows_export
        aggregates = DataSilo("b", privacy=PrivacyLevel.AGGREGATES_ONLY)
        assert not aggregates.allows_export
        assert aggregates.allows_factorized_pushdown
        private = DataSilo("c", privacy=PrivacyLevel.PRIVATE)
        assert not private.allows_factorized_pushdown

    def test_export_respects_privacy(self, hospital):
        s1, _ = hospital
        silo = DataSilo("er", privacy=PrivacyLevel.AGGREGATES_ONLY)
        silo.add_table(s1)
        with pytest.raises(PrivacyError):
            silo.export_table("S1")
        open_silo = DataSilo("er2")
        open_silo.add_table(s1)
        assert open_silo.export_table("S1") is s1


class TestSimulatedNetwork:
    def test_byte_accounting_for_arrays(self):
        network = SimulatedNetwork()
        payload = np.zeros((10, 10))
        record = network.send("a", "b", "matrix", payload)
        assert record.n_bytes == payload.nbytes
        assert network.total_bytes == payload.nbytes
        assert network.n_messages == 1

    def test_byte_accounting_for_other_payloads(self):
        network = SimulatedNetwork()
        assert network.send("a", "b", "none", None).n_bytes == 0
        assert network.send("a", "b", "scalar", 3.0).n_bytes == 8
        assert network.send("a", "b", "text", "abcd").n_bytes == 4
        assert network.send("a", "b", "bytes", b"12345").n_bytes == 5
        assert network.send("a", "b", "list", [1.0, 2.0]).n_bytes == 16
        assert network.send("a", "b", "dict", {"k": 1.0}).n_bytes == 9
        assert network.send("a", "b", "object", object()).n_bytes == 0

    def test_a_ciphertext_costs_its_constant_width_per_value(self):
        network, paillier = SimulatedNetwork(), SimulatedPaillier(key_id=1)
        sealed = paillier.encrypt_vector(np.zeros(5))
        assert network.send("a", "b", "sealed", sealed).n_bytes == 5 * CIPHERTEXT_BYTES
        assert network.send("a", "b", "plain", np.zeros(5)).n_bytes == 40
        assert network.send("a", "b", "one", paillier.encrypt(1.0)).n_bytes == CIPHERTEXT_BYTES

    def test_per_endpoint_accounting(self):
        network = SimulatedNetwork()
        network.send("a", "b", "x", np.zeros(2))
        network.send("b", "a", "y", np.zeros(4))
        assert network.bytes_sent_by("a") == 16
        assert network.bytes_received_by("a") == 32
        assert network.bytes_sent_by("c") == 0

    def test_estimated_time_includes_latency(self):
        network = SimulatedNetwork(bandwidth_bytes_per_s=1000.0, latency_s=0.5)
        network.send("a", "b", "x", np.zeros(125))  # 1000 bytes
        assert network.total_estimated_seconds() == pytest.approx(0.5 + 1.0)

    def test_reset(self):
        network = SimulatedNetwork()
        network.send("a", "b", "x", np.zeros(2))
        network.reset()
        assert network.total_bytes == 0 and network.n_messages == 0

    def test_transfer_record_time(self):
        record = TransferRecord("a", "b", "x", 2000)
        assert record.estimated_seconds(1000.0, 0.1) == pytest.approx(2.1)
