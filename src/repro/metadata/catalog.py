"""Hybrid metadata catalog (paper §II-A).

The catalog stores three kinds of metadata:

* *basic metadata* about each source table (schema, row count, null ratio,
  silo location) — :class:`repro.relational.schema.SourceDescription`;
* *data integration metadata* — column matches, row matches, and schema
  mappings between registered sources and target schemas;
* *model metadata* — hyper-parameters, execution environment, evaluation
  metrics, and the link back to the training datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import CatalogError
from repro.metadata.entity_resolution import RowMatch
from repro.metadata.mappings import SchemaMapping
from repro.metadata.schema_matching import ColumnMatch
from repro.relational.schema import SourceDescription
from repro.relational.table import Table


@dataclass
class ModelMetadata:
    """Metadata describing a trained ML model (paper §II-A)."""

    name: str
    model_type: str
    hyperparameters: Dict[str, object] = field(default_factory=dict)
    environment: str = "numpy"
    inputs: List[str] = field(default_factory=list)
    output: str = ""
    metrics: Dict[str, float] = field(default_factory=dict)
    training_datasets: List[str] = field(default_factory=list)


@dataclass
class DIMetadataRecord:
    """DI metadata linking a pair of sources (and optionally a target)."""

    left_source: str
    right_source: str
    column_matches: List[ColumnMatch] = field(default_factory=list)
    row_matches: List[RowMatch] = field(default_factory=list)
    schema_mapping: Optional[SchemaMapping] = None


class MetadataCatalog:
    """In-memory hybrid metadata catalog."""

    def __init__(self) -> None:
        self._sources: Dict[str, SourceDescription] = {}
        self._tables: Dict[str, Table] = {}
        self._di_records: Dict[Tuple[str, str], DIMetadataRecord] = {}
        self._models: Dict[str, ModelMetadata] = {}

    # -- basic metadata ------------------------------------------------------------
    def register_source(self, table: Table, silo: str = "") -> SourceDescription:
        """Register a source table and derive its basic metadata."""
        description = table.describe(silo=silo)
        self._sources[table.name] = description
        self._tables[table.name] = table
        return description

    def source(self, name: str) -> SourceDescription:
        try:
            return self._sources[name]
        except KeyError as exc:
            raise CatalogError(f"source {name!r} is not registered") from exc

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError as exc:
            raise CatalogError(f"source {name!r} is not registered") from exc

    @property
    def source_names(self) -> List[str]:
        return sorted(self._sources)

    def sources_in_silo(self, silo: str) -> List[SourceDescription]:
        return [d for d in self._sources.values() if d.silo == silo]

    # -- DI metadata ----------------------------------------------------------------
    def _pair_key(self, left: str, right: str) -> Tuple[str, str]:
        return (left, right)

    def record_column_matches(
        self, left: str, right: str, matches: Sequence[ColumnMatch]
    ) -> DIMetadataRecord:
        record = self._di_records.setdefault(
            self._pair_key(left, right), DIMetadataRecord(left, right)
        )
        record.column_matches = list(matches)
        return record

    def record_row_matches(
        self, left: str, right: str, matches: Sequence[RowMatch]
    ) -> DIMetadataRecord:
        record = self._di_records.setdefault(
            self._pair_key(left, right), DIMetadataRecord(left, right)
        )
        record.row_matches = list(matches)
        return record

    def record_schema_mapping(
        self, left: str, right: str, mapping: SchemaMapping
    ) -> DIMetadataRecord:
        record = self._di_records.setdefault(
            self._pair_key(left, right), DIMetadataRecord(left, right)
        )
        record.schema_mapping = mapping
        return record

    def di_metadata(self, left: str, right: str) -> DIMetadataRecord:
        key = self._pair_key(left, right)
        if key not in self._di_records:
            raise CatalogError(f"no DI metadata recorded for ({left!r}, {right!r})")
        return self._di_records[key]

    def has_di_metadata(self, left: str, right: str) -> bool:
        return self._pair_key(left, right) in self._di_records

    @property
    def di_records(self) -> List[DIMetadataRecord]:
        return list(self._di_records.values())

    # -- model metadata ----------------------------------------------------------------
    def register_model(self, metadata: ModelMetadata) -> None:
        self._models[metadata.name] = metadata

    def model(self, name) -> ModelMetadata:
        """Look up model metadata by :class:`~repro.system.plan.ModelHandle`
        or by name."""
        name = getattr(name, "name", name)
        try:
            return self._models[name]
        except KeyError as exc:
            raise CatalogError(f"model {name!r} is not registered") from exc

    @property
    def model_names(self) -> List[str]:
        return sorted(self._models)

    def models_trained_on(self, source_name: str) -> List[ModelMetadata]:
        """Models whose training datasets include the given source."""
        return [
            metadata
            for metadata in self._models.values()
            if source_name in metadata.training_datasets
        ]
