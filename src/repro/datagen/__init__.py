"""Workload and dataset generators for tests, examples and benchmarks."""

from repro.datagen.hospital import hospital_tables, hospital_integrated_dataset
from repro.datagen.scenarios import (
    ScenarioSpec,
    generate_scenario_tables,
    generate_scenario_dataset,
)
from repro.datagen.synthetic import (
    OneHotSpec,
    SyntheticSiloSpec,
    generate_integrated_pair,
    generate_one_hot_pair,
    generate_table3_grid,
)
from repro.datagen.hamlet import (
    HAMLET_DATASETS,
    HamletDatasetSpec,
    generate_hamlet_dataset,
)

__all__ = [
    "hospital_tables",
    "hospital_integrated_dataset",
    "ScenarioSpec",
    "generate_scenario_tables",
    "generate_scenario_dataset",
    "SyntheticSiloSpec",
    "generate_integrated_pair",
    "generate_table3_grid",
    "OneHotSpec",
    "generate_one_hot_pair",
    "HAMLET_DATASETS",
    "HamletDatasetSpec",
    "generate_hamlet_dataset",
]
