"""The dense formulation of the factor build, kept as the tests' oracle.

This is how the builders worked before they became one chunk loop: a
target-shaped boolean contribution mask per source (``column_valid``
gathered through the row map), the redundancy complement as ``claimed &
mask`` in source order, and ``D_k = table.to_matrix(numeric mapped
columns)``. A source provides a target column only through a numeric
column. Nothing here is shared with ``repro.streaming.builder``.
"""

import numpy as np

from repro.matrices.builder import _target_rows_for_scenario


def two_source_correspondences(base, other, column_matches, target_columns):
    """Base columns keep their names; matched other columns take the base's."""
    renamed = {m.right_column: m.left_column for m in column_matches}
    base_map = {c: c for c in base.schema.names if c in target_columns}
    other_map = {c: renamed.get(c, c) for c in other.schema.names}
    return base_map, {c: t for c, t in other_map.items() if t in target_columns}


def dense_build(sources, correspondences, row_maps, target_columns):
    """``([(D_k, CI_k, CM_k, complement_k), ...], T)`` built the dense way."""
    target_columns = list(target_columns)
    shape = (len(row_maps[0]), len(target_columns))
    claimed = np.zeros(shape, dtype=bool)
    target = np.zeros(shape)
    factors = []
    for table, mapped_to, row_map in zip(sources, correspondences, row_maps):
        row_map = np.asarray(row_map, dtype=np.int64)
        columns = [
            c.name for c in table.schema
            if mapped_to.get(c.name) in target_columns and c.dtype.is_numeric
        ]
        data = table.to_matrix(columns)
        fed = row_map >= 0
        compressed = np.full(shape[1], -1, dtype=np.int64)
        mask = np.zeros(shape, dtype=bool)
        contribution = np.zeros(shape)
        for position, column in enumerate(columns):
            j = target_columns.index(mapped_to[column])
            compressed[j] = position
            mask[fed, j] = table.column_valid(column)[row_map[fed]]
            contribution[fed, j] = data[row_map[fed], position]
        complement = claimed & mask
        target += np.where(complement, 0.0, contribution)
        claimed |= mask
        factors.append((data, row_map, compressed, complement))
    return factors, target


def assert_matches_dense(dataset, sources, correspondences, row_maps):
    """``dataset`` equals the dense build cell for cell, factor by factor."""
    factors, target = dense_build(
        sources, correspondences, row_maps, dataset.target_columns
    )
    assert len(dataset.factors) == len(factors)
    for built, (data, row_map, compressed, complement) in zip(dataset.factors, factors):
        assert np.array_equal(np.asarray(built.data), data)
        assert np.array_equal(built.indicator.compressed, row_map)
        assert np.array_equal(built.mapping.compressed, compressed)
        assert np.array_equal(built.redundancy.to_dense() == 0.0, complement)
    assert np.array_equal(dataset.materialize(), target)


def assert_two_source_matches_dense(
    dataset, base, other, column_matches, row_matches, scenario
):
    """The two-source entry points against the dense build of the same inputs."""
    assert_matches_dense(
        dataset,
        [base, other],
        two_source_correspondences(base, other, column_matches, dataset.target_columns),
        _target_rows_for_scenario(base.n_rows, other.n_rows, row_matches, scenario),
    )
