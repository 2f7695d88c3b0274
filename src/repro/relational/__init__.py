"""In-memory relational substrate used by the Amalur reproduction.

This package provides the minimal relational machinery a data-integration
system needs: typed schemas, column-oriented tables, key factorization for
entity resolution, and CSV import/export. The four Table I relationships
(full outer, inner, left join and union) are not materialized here: the
factor builder (:func:`repro.matrices.builder.integrate_tables`) defines
each target through its row maps.
"""

from repro.relational.types import DataType, NULL, coerce_value, infer_type
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.io import read_csv, write_csv

__all__ = [
    "DataType",
    "NULL",
    "coerce_value",
    "infer_type",
    "Column",
    "Schema",
    "Table",
    "read_csv",
    "write_csv",
]
