"""The central orchestrator coordinating computation over silos (paper §II-A).

The orchestrator owns the registry of silos and the simulated network.
It supports the two non-federated execution strategies of the optimizer:

* ``materialize_target`` — export the source tables out of their silos
  (privacy permitting), and account the transferred bytes;
* ``factorized_lmm`` / ``factorized_transpose_lmm`` — ship the (small)
  operand to each silo, let each silo compute its local contribution of
  the Eq. (2) rewrite, and ship only the partial results back.

Federated execution is handled by :mod:`repro.federated`, which also goes
through the simulated network for its message accounting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import CatalogError, PrivacyError
from repro.factorized.normalized_matrix import AmalurMatrix
from repro.matrices.builder import IntegratedDataset
from repro.silos.network import SimulatedNetwork
from repro.silos.silo import DataSilo


class Orchestrator:
    """Registry of silos plus execution helpers that account network traffic."""

    ORCHESTRATOR = "orchestrator"

    def __init__(self, network: Optional[SimulatedNetwork] = None):
        self.network = network or SimulatedNetwork()
        self._silos: Dict[str, DataSilo] = {}
        self._table_to_silo: Dict[str, str] = {}

    # -- registry -------------------------------------------------------------------
    def register_silo(self, silo: DataSilo) -> None:
        self._silos[silo.name] = silo
        for table_name in silo.table_names:
            self._table_to_silo[table_name] = silo.name

    def register_table(self, silo_name: str, table_name: str) -> None:
        """Idempotently index one table of a registered silo.

        The table must already live in the silo; re-registering an
        existing index entry is a no-op, so callers adding tables one at a
        time don't have to re-register the whole silo.
        """
        silo = self.silo(silo_name)
        if table_name not in silo.table_names:
            raise CatalogError(
                f"silo {silo_name!r} holds no table named {table_name!r}"
            )
        self._table_to_silo[table_name] = silo_name

    def silo(self, name: str) -> DataSilo:
        try:
            return self._silos[name]
        except KeyError as exc:
            raise CatalogError(f"no silo named {name!r}") from exc

    def silo_of_table(self, table_name: str) -> DataSilo:
        try:
            return self._silos[self._table_to_silo[table_name]]
        except KeyError as exc:
            raise CatalogError(f"no registered silo holds table {table_name!r}") from exc

    @property
    def silo_names(self) -> List[str]:
        return sorted(self._silos)

    @property
    def table_names(self) -> List[str]:
        return sorted(self._table_to_silo)

    def all_tables(self):
        for table_name, silo_name in sorted(self._table_to_silo.items()):
            yield self._silos[silo_name].table(table_name)

    # -- materialized execution ------------------------------------------------------
    def export_sources(self, table_names: Sequence[str]) -> List:
        """Pull source tables to the orchestrator, enforcing privacy and
        accounting the transferred bytes."""
        tables = []
        for table_name in table_names:
            silo = self.silo_of_table(table_name)
            table = silo.export_table(table_name)
            self.network.send(
                silo.name, self.ORCHESTRATOR, f"table:{table_name}", table.to_matrix()
            )
            tables.append(table)
        return tables

    def materialize_target(self, dataset: IntegratedDataset) -> np.ndarray:
        """Materialize the target centrally: every source factor's data is
        shipped to the orchestrator first."""
        for factor in dataset.factors:
            silo_name = self._table_to_silo.get(factor.name, factor.name)
            silo = self._silos.get(silo_name)
            if silo is not None and not silo.allows_export:
                raise PrivacyError(
                    f"silo {silo.name!r} does not allow exporting table {factor.name!r}"
                )
            # Charged as the dense float64 block it ships, rows × columns × 8
            # bytes, from a zero-strided stand-in: reading ``factor.data``
            # would densify a CSR D_k and keep the copy on the factor.
            shipped = np.broadcast_to(np.float64(0.0), (factor.n_rows, factor.n_columns))
            self.network.send(silo_name, self.ORCHESTRATOR, f"data:{factor.name}", shipped)
        return dataset.materialize()

    # -- factorized execution --------------------------------------------------------
    def factorized_lmm(self, dataset: IntegratedDataset, operand: np.ndarray) -> np.ndarray:
        """Compute ``T @ X`` with per-silo local results (Eq. 2 pushdown)."""
        operand = np.asarray(operand, dtype=float)
        if operand.ndim == 1:
            operand = operand[:, None]
        self._check_pushdown_allowed(dataset)
        result = np.zeros((dataset.n_target_rows, operand.shape[1]))
        for index, factor in enumerate(dataset.factors):
            silo_name = self._table_to_silo.get(factor.name, factor.name)
            # Operand travels to the silo, the (target-shaped) partial result
            # travels back. The partial result has r_T rows — this is the
            # communication cost factorization pays.
            self.network.send(self.ORCHESTRATOR, silo_name, "operand", operand)
            single = AmalurMatrix(
                IntegratedDataset(
                    target_columns=list(dataset.target_columns),
                    n_target_rows=dataset.n_target_rows,
                    factors=[factor],
                    scenario=dataset.scenario,
                    label_column=None,
                    name=dataset.name,
                )
            )
            partial = single.lmm(operand)
            self.network.send(silo_name, self.ORCHESTRATOR, "partial_lmm", partial)
            result += partial
        return result

    def factorized_transpose_lmm(self, dataset: IntegratedDataset, operand: np.ndarray) -> np.ndarray:
        """Compute ``Tᵀ @ X`` with per-silo local results."""
        operand = np.asarray(operand, dtype=float)
        if operand.ndim == 1:
            operand = operand[:, None]
        self._check_pushdown_allowed(dataset)
        result = np.zeros((len(dataset.target_columns), operand.shape[1]))
        for factor in dataset.factors:
            silo_name = self._table_to_silo.get(factor.name, factor.name)
            self.network.send(self.ORCHESTRATOR, silo_name, "operand", operand)
            single = AmalurMatrix(
                IntegratedDataset(
                    target_columns=list(dataset.target_columns),
                    n_target_rows=dataset.n_target_rows,
                    factors=[factor],
                    scenario=dataset.scenario,
                    label_column=None,
                    name=dataset.name,
                )
            )
            partial = single.transpose_lmm(operand)
            self.network.send(silo_name, self.ORCHESTRATOR, "partial_tlmm", partial)
            result += partial
        return result

    def _check_pushdown_allowed(self, dataset: IntegratedDataset) -> None:
        for factor in dataset.factors:
            silo_name = self._table_to_silo.get(factor.name)
            if silo_name is None:
                continue
            silo = self._silos[silo_name]
            if not silo.allows_factorized_pushdown:
                raise PrivacyError(
                    f"silo {silo.name!r} is {silo.privacy.value!r}; factorized pushdown of "
                    f"{factor.name!r} would leak derived aggregates — use federated learning"
                )
