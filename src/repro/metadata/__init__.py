"""Data-integration metadata: matching, mappings, catalog, discovery.

This package produces the DI metadata that the paper's matrix
representations (``repro.matrices``) encode: column correspondences from
schema matching, row correspondences from entity resolution, and
declarative schema mappings (s-t tgds) describing how sources populate the
target table.
"""

from repro.metadata.similarity import (
    levenshtein_distance,
    levenshtein_similarity,
    jaro_winkler_similarity,
    ngram_jaccard_similarity,
    value_overlap,
    jaccard_set_similarity,
)
from repro.metadata.schema_matching import (
    ColumnMatch,
    ColumnProfile,
    SchemaMatcher,
    NameBasedMatcher,
    InstanceBasedMatcher,
    HybridMatcher,
    match_schemas,
)
from repro.metadata.entity_resolution import (
    RowMatch,
    EntityResolver,
    KeyBasedResolver,
    SimilarityResolver,
    resolve_entities,
)
from repro.metadata.mappings import (
    Atom,
    TGD,
    SchemaMapping,
    ScenarioType,
    build_scenario_mapping,
)
from repro.metadata.catalog import (
    MetadataCatalog,
    ModelMetadata,
    DIMetadataRecord,
)
from repro.metadata.discovery import (
    AugmentationCandidate,
    DataDiscovery,
)

__all__ = [
    "levenshtein_distance",
    "levenshtein_similarity",
    "jaro_winkler_similarity",
    "ngram_jaccard_similarity",
    "value_overlap",
    "jaccard_set_similarity",
    "ColumnMatch",
    "ColumnProfile",
    "SchemaMatcher",
    "NameBasedMatcher",
    "InstanceBasedMatcher",
    "HybridMatcher",
    "match_schemas",
    "RowMatch",
    "EntityResolver",
    "KeyBasedResolver",
    "SimilarityResolver",
    "resolve_entities",
    "Atom",
    "TGD",
    "SchemaMapping",
    "ScenarioType",
    "build_scenario_mapping",
    "MetadataCatalog",
    "ModelMetadata",
    "DIMetadataRecord",
    "AugmentationCandidate",
    "DataDiscovery",
]
