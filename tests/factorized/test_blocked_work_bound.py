"""The blocked operators multiply in the source dimension.

Work bound: for every factor and every target-row block, the backend
``matmul`` / ``transpose_matmul`` sees at most ``min(block rows, distinct
source rows the block touches)`` rows of ``D_k``, and a *view* of the
factor's storage whenever those rows are a contiguous range. Parity: the
blocked views and the resident operators agree with ``materialize()`` +
plain numpy across foreign-key orders, storage kinds, column subsets,
redundancy, block sizes and worker counts.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from scipy import sparse

from repro import parallel
from repro.backends import DenseBackend, SparseBackend
from repro.factorized import AmalurMatrix
from repro.learning import LinearRegression, StreamingGD
from repro.matrices.builder import IntegratedDataset, SourceFactor
from repro.matrices.indicator_matrix import IndicatorMatrix
from repro.matrices.mapping_matrix import MappingMatrix
from repro.matrices.redundancy_matrix import RedundancyMatrix
from repro.metadata.mappings import ScenarioType
from repro.streaming import SpillStore

N_TARGET = 45      # target rows; the first UNCOVERED have no S2 partner
UNCOVERED = 9      # ... so a small leading block touches zero rows of S2
N_OTHER = 12       # S2 rows; the last two are never referenced (unmatched)
REFERENCED = N_OTHER - 2
BASE_COLUMNS = ["label", "b1", "b2"]
OTHER_COLUMNS = ["o0", "o1", "o2", "o3"]


@pytest.fixture(autouse=True)
def restore_parallel_config():
    saved = (
        parallel.get_num_workers(), parallel.get_min_parallel_rows(), parallel.get_block_rows()
    )
    yield
    parallel.set_num_workers(saved[0])
    parallel.set_min_parallel_rows(saved[1])
    parallel.set_block_rows(saved[2])


def foreign_keys(order: str) -> np.ndarray:
    """``CI_2``: -1 on the uncovered head, then a 10:1-style many-to-one map."""
    rng = np.random.default_rng(3)
    n = N_TARGET - UNCOVERED
    if order == "sorted":
        keys = np.sort(np.arange(n) % REFERENCED)
    elif order == "shuffled":
        keys = rng.permutation(np.arange(n) % REFERENCED)
    else:  # skewed: most rows reference one source row
        keys = np.where(rng.random(n) < 0.7, 0, rng.integers(0, REFERENCED, size=n))
    return np.concatenate([np.full(UNCOVERED, -1), keys]).astype(np.int64)


def build_dataset(order: str, redundant: bool, store=None) -> IntegratedDataset:
    """S1 (1:1, every target row) joined many-to-one with S2; with
    ``redundant`` S2 also carries ``b1``, masked out wherever S1 has it."""
    rng = np.random.default_rng(11)
    base = rng.standard_normal((N_TARGET, len(BASE_COLUMNS)))
    other = rng.standard_normal((N_OTHER, len(OTHER_COLUMNS)))
    if store is not None:
        spilled_base = store.allocate("S1", *base.shape)
        spilled_other = store.allocate("S2", *other.shape)
        spilled_base[:], spilled_other[:] = base, other
        base, other = spilled_base, spilled_other
    other_targets = ["b1" if redundant and c == "o0" else c for c in OTHER_COLUMNS]
    target_columns = BASE_COLUMNS + [c for c in other_targets if c not in BASE_COLUMNS]
    shape = (N_TARGET, len(target_columns))
    keys = foreign_keys(order)
    other_redundancy = RedundancyMatrix.all_ones("S2", *shape)
    if redundant:
        other_redundancy = RedundancyMatrix.from_rectangle(
            "S2", shape, np.nonzero(keys >= 0)[0], [target_columns.index("b1")]
        )
    factors = [
        SourceFactor(
            "S1", base, BASE_COLUMNS,
            MappingMatrix("S1", target_columns, BASE_COLUMNS, {c: c for c in BASE_COLUMNS}),
            IndicatorMatrix("S1", N_TARGET, N_TARGET, np.arange(N_TARGET)),
            RedundancyMatrix.all_ones("S1", *shape),
        ),
        SourceFactor(
            "S2", other, OTHER_COLUMNS,
            MappingMatrix("S2", target_columns, OTHER_COLUMNS,
                          dict(zip(OTHER_COLUMNS, other_targets))),
            IndicatorMatrix("S2", N_TARGET, N_OTHER, keys),
            other_redundancy,
        ),
    ]
    return IntegratedDataset(
        target_columns=target_columns, n_target_rows=N_TARGET, factors=factors,
        scenario=ScenarioType.LEFT_JOIN, label_column="label", name="T_work_bound",
    )


class CountingBackend(DenseBackend):
    """Records the storage block every multiply is handed."""

    def __init__(self):
        self.blocks = []

    def matmul(self, storage, operand):
        self.blocks.append(storage)
        return super().matmul(storage, operand)

    def transpose_matmul(self, storage, operand):
        self.blocks.append(storage)
        return super().transpose_matmul(storage, operand)


# -- the work bound -------------------------------------------------------------------------


@pytest.mark.parametrize("order", ["sorted", "shuffled", "skewed"])
@pytest.mark.parametrize("block_rows", [1, 7, N_TARGET, N_TARGET + 1])
def test_a_block_multiplies_at_most_its_distinct_source_rows(order, block_rows):
    backend = CountingBackend()
    matrix = AmalurMatrix(build_dataset(order, redundant=False), backend=backend)
    view = matrix.blocked()
    x = np.ones((view.n_columns, 2))
    for start, stop in view.row_blocks(block_rows):
        x_block = np.ones((stop - start, 2))
        for factor in view.factors:
            plan = factor.plan
            inside = (plan.target_rows >= start) & (plan.target_rows < stop)
            distinct = np.unique(plan.source_rows[inside]).size
            bound = min(stop - start, plan.n_source_rows)
            assert distinct <= bound
            backend.blocks.clear()
            factor.lmm_block_add(x, start, stop, np.zeros((stop - start, 2)))
            factor.transpose_lmm_block_add(
                x_block, start, stop, np.zeros((view.n_columns, 2))
            )
            if distinct == 0:
                assert backend.blocks == []  # a block off the factor multiplies nothing
                continue
            assert len(backend.blocks) == 2
            for block in backend.blocks:
                assert block.shape[0] <= bound
                # ... and no more than it touches, unless D_k goes in whole.
                assert block.shape[0] in (distinct, plan.n_source_rows)
                assert block.shape[1] == plan.n_source_columns  # never column-sliced


@pytest.mark.parametrize("spilled", [False, True], ids=["resident", "memmap"])
def test_contiguous_row_maps_are_views_of_the_storage(spilled, tmp_path):
    backend = CountingBackend()
    with SpillStore(tmp_path) as store:
        dataset = build_dataset("sorted", redundant=False, store=store if spilled else None)
        matrix = AmalurMatrix(dataset, backend=backend)
        view = matrix.blocked(columns=["b1", "o1", "o3"])
        x = np.ones((view.n_columns, 1))
        for start, stop in view.row_blocks(7):
            for factor in view.factors:
                backend.blocks.clear()
                factor.lmm_block_add(x, start, stop, np.zeros((stop - start, 1)))
                factor.transpose_lmm_block_add(
                    np.ones((stop - start, 1)), start, stop, np.zeros((view.n_columns, 1))
                )
                for block in backend.blocks:
                    # S1 is the identity map and sorted keys touch a run of
                    # S2 rows: every block is a slice of D_k, never a copy.
                    assert np.shares_memory(block, factor.storage)
        assert sum(len(factor._kept) for factor in view.factors) > 0


@pytest.mark.parametrize("backend_name", ["dense", "sparse"])
@pytest.mark.parametrize("matched", [N_OTHER, N_OTHER - 3], ids=["permuted", "partly-matched"])
def test_a_scattered_injective_map_multiplies_d_k_where_it_lies(matched, backend_name):
    """Shuffled 1:1 join keys: one block covering most of ``D_k`` multiplies
    it whole (a view) and indexes the product instead of copying the rows;
    blocks smaller than ``D_k`` still gather, inside the work bound."""
    rng = np.random.default_rng(17)
    keys = np.full(N_TARGET, -1, dtype=np.int64)
    keys[rng.permutation(N_TARGET)[:matched]] = rng.permutation(N_OTHER)[:matched]
    dataset = IntegratedDataset(
        target_columns=OTHER_COLUMNS, n_target_rows=N_TARGET,
        factors=[SourceFactor(
            "S2", rng.standard_normal((N_OTHER, len(OTHER_COLUMNS))), OTHER_COLUMNS,
            MappingMatrix("S2", OTHER_COLUMNS, OTHER_COLUMNS, {c: c for c in OTHER_COLUMNS}),
            IndicatorMatrix("S2", N_TARGET, N_OTHER, keys),
            RedundancyMatrix.all_ones("S2", N_TARGET, len(OTHER_COLUMNS)),
        )],
        scenario=ScenarioType.LEFT_JOIN, name="T_scattered",
    )
    target = dataset.materialize()
    view = AmalurMatrix(dataset, backend=backend_name).blocked()
    (factor,) = view.factors
    assert factor.plan.rows_injective
    x = rng.standard_normal((view.n_columns, 2))
    y = rng.standard_normal((N_TARGET, 2))
    for block_rows in (N_TARGET, 7):
        blocks = view.row_blocks(block_rows)
        for start, stop in blocks:
            spec = factor.block(start, stop)
            assert spec.n_rows <= min(stop - start, N_OTHER)
            whole = spec.rows == slice(0, N_OTHER) if isinstance(spec.rows, slice) else False
            assert whole == (block_rows == N_TARGET)
        lifted = np.vstack([view.lmm_block(x, *bounds) for bounds in blocks])
        assert np.max(np.abs(lifted - target @ x)) <= 1e-10
        projected = np.zeros((view.n_columns, 2))
        for start, stop in blocks:
            view.transpose_lmm_add(y[start:stop], start, stop, projected)
        assert np.max(np.abs(projected - target.T @ y)) <= 1e-10


def test_csr_row_ranges_share_the_storage_buffers():
    backend = SparseBackend()
    storage = backend.prepare(np.arange(40.0).reshape(10, 4) % 3)
    block = backend.take_rows(storage, slice(3, 8))
    assert sparse.issparse(block) and block.shape == (5, 4)
    assert np.shares_memory(block.data, storage.data)
    assert np.shares_memory(block.indices, storage.indices)
    assert np.array_equal(block.toarray(), storage.toarray()[3:8])
    assert backend.take_rows(storage, slice(0, 10)) is storage


def test_only_grid_blocks_keep_their_row_structure():
    view = AmalurMatrix(build_dataset("shuffled", redundant=True)).blocked()
    grid = view.row_blocks(7)
    x = np.ones((view.n_columns, 1))
    view.lmm_block(x, *grid[2])
    view.lmm_block(x, 3, 19)  # a serving-style window off the grid
    for factor in view.factors:
        assert set(factor._kept) == set(grid)
        assert [b for b, spec in factor._kept.items() if spec is not None] == [grid[2]]
    view.row_blocks(11)  # a new grid drops the old one's structure
    assert all(spec is None for f in view.factors for spec in f._kept.values())


def test_invalidate_drops_the_blocks_correction_slices():
    """``invalidate()`` after an in-place edit of a redundant cell must
    reach the one-block engine too: its blocks hold correction rows."""
    dataset = build_dataset("shuffled", redundant=True)
    matrix = AmalurMatrix(dataset)
    x = np.ones((matrix.n_columns, 1))
    assert np.max(np.abs(matrix.lmm(x) - dataset.materialize() @ x)) <= 1e-10
    dataset.factors[1].data[:, 0] += 5.0  # S2's copy of b1: masked wherever S1 has it
    matrix.invalidate()
    assert np.max(np.abs(matrix.lmm(x) - dataset.materialize() @ x)) <= 1e-10


def test_concurrent_callers_share_one_views_block_structure():
    """Workers fill the kept blocks (and their lazy projectors) while
    racing on one view: every caller must still read a complete structure."""
    view = AmalurMatrix(build_dataset("skewed", redundant=True)).blocked()
    target = build_dataset("skewed", redundant=True).materialize()
    grid = view.row_blocks(7)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((view.n_columns, 2))
    y = rng.standard_normal((N_TARGET, 2))
    failures = []

    def hammer() -> None:
        try:
            for _ in range(20):
                lifted = np.vstack([view.lmm_block(x, *bounds) for bounds in grid])
                projected = np.zeros((view.n_columns, 2))
                for start, stop in grid:
                    view.transpose_lmm_add(y[start:stop], start, stop, projected)
                if np.max(np.abs(lifted - target @ x)) > 1e-10:
                    failures.append("lmm")
                if np.max(np.abs(projected - target.T @ y)) > 1e-10:
                    failures.append("transpose_lmm")
        except Exception as exc:  # noqa: BLE001 - reported through the assertion below
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


# -- parity grid ------------------------------------------------------------------------------

STORAGES = ["dense", "csr", "memmap"]


def _matrix(order, redundant, storage, store):
    dataset = build_dataset(order, redundant, store=store if storage == "memmap" else None)
    return AmalurMatrix(dataset, backend="sparse" if storage == "csr" else "dense")


@pytest.mark.parametrize("redundant", [False, True], ids=["trivial-R", "masked-R"])
@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("order", ["sorted", "shuffled", "skewed"])
def test_blocked_views_match_the_materialized_target(order, storage, redundant, tmp_path):
    with SpillStore(tmp_path) as store:
        matrix = _matrix(order, redundant, storage, store)
        target = matrix.dataset.materialize()
        columns = matrix.dataset.target_columns
        rng = np.random.default_rng(5)
        for subset in (None, [c for c in columns if c not in ("label", "o2")], ["label"]):
            view = matrix.blocked(columns=subset)
            keep = [columns.index(c) for c in (subset or columns)]
            reference = target[:, keep]
            x = rng.standard_normal((len(keep), 3))
            y = rng.standard_normal((N_TARGET, 2))
            for block_rows in (1, 7, N_TARGET, N_TARGET + 1):
                blocks = view.row_blocks(block_rows)
                lifted = np.vstack([view.lmm_block(x, *bounds) for bounds in blocks])
                assert np.max(np.abs(lifted - reference @ x)) <= 1e-10
                projected = np.zeros((len(keep), 2))
                for start, stop in blocks:
                    view.transpose_lmm_add(y[start:stop], start, stop, projected)
                assert np.max(np.abs(projected - reference.T @ y)) <= 1e-10
            window = view.lmm_block(x, 4, 31)  # off-grid, crossing the uncovered head
            assert np.max(np.abs(window - reference[4:31] @ x)) <= 1e-10


@pytest.mark.parametrize("redundant", [False, True], ids=["trivial-R", "masked-R"])
@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("order", ["sorted", "shuffled", "skewed"])
def test_resident_operators_match_at_every_block_size_and_worker_count(
    order, storage, redundant, tmp_path
):
    parallel.set_min_parallel_rows(0)
    with SpillStore(tmp_path) as store:
        matrix = _matrix(order, redundant, storage, store)
        target = matrix.dataset.materialize()
        rng = np.random.default_rng(7)
        x = rng.standard_normal((matrix.n_columns, 3))
        y = rng.standard_normal((matrix.n_rows, 2))
        for block_rows in (1, 7, N_TARGET, N_TARGET + 1):
            parallel.set_block_rows(block_rows)
            results = {}
            for workers in (1, 2, 8):
                parallel.set_num_workers(workers)
                fresh = AmalurMatrix(matrix.dataset, backend=matrix.backend)
                results[workers] = (
                    fresh.lmm(x), fresh.transpose_lmm(y), fresh.crossprod(), fresh.rmm(y.T)
                )
                for result, reference in zip(
                    results[workers], (target @ x, target.T @ y, target.T @ target, y.T @ target)
                ):
                    assert np.max(np.abs(result - reference)) <= 1e-10
            # The grid depends on shape and block settings only: one worker
            # walks it as a plain loop and gets the bits the pool gets.
            for workers in (2, 8):
                for result, reference in zip(results[workers], results[1]):
                    assert np.array_equal(result, reference)


def test_the_worker_count_does_not_move_the_grid():
    """Flipping workers between calls on one matrix keeps the grid object
    (and with it every block's kept row structure)."""
    parallel.set_min_parallel_rows(0)
    parallel.set_block_rows(7)
    matrix = AmalurMatrix(build_dataset("shuffled", redundant=True))
    x = np.ones((matrix.n_columns, 1))
    grids, kept = [], []
    for workers in (1, 2, 1, 8):
        parallel.set_num_workers(workers)
        matrix.lmm(x)
        view = matrix._blocked_view
        grids.append(view.row_blocks(7))
        kept.append([spec for factor in view.factors for spec in factor._kept.values()])
    assert len(grids[0]) == -(-N_TARGET // 7) > 1
    assert all(grid is grids[0] for grid in grids)
    assert all(spec is not None for spec in kept[0])
    for later in kept[1:]:
        assert all(spec is first for spec, first in zip(later, kept[0]))


@pytest.mark.parametrize("block_rows", [7, N_TARGET + 1])
def test_rmm_on_a_redundant_many_to_one_join_is_the_dense_product(block_rows):
    """``rmm`` is ``transpose_lmm`` of the transposed operand: it walks the
    grid, subtracts the redundant cells and charges the ``tlmm.*`` FLOPs."""
    parallel.set_min_parallel_rows(0)
    parallel.set_block_rows(block_rows)
    matrix = AmalurMatrix(build_dataset("skewed", redundant=True))
    target = matrix.dataset.materialize()
    z = np.random.default_rng(3).standard_normal((3, N_TARGET))
    result = matrix.rmm(z)
    assert result.shape == (3, matrix.n_columns)
    assert np.max(np.abs(result - z @ target)) <= 1e-10
    charged = dict(matrix.counter.by_operation)
    fresh = AmalurMatrix(matrix.dataset)
    assert np.array_equal(fresh.transpose_lmm(z.T).T, result)
    assert dict(fresh.counter.by_operation) == charged
    assert not [label for label in charged if label.startswith("rmm.")]


def test_many_to_one_gram_term_stays_in_the_source_dimension():
    """Without redundancy the same-source Gram runs on the factor's own
    source rows against their multiplicity-weighted copy; the row form
    never holds r_T rows."""
    dataset = build_dataset("skewed", redundant=False)
    lone = IntegratedDataset(
        target_columns=OTHER_COLUMNS, n_target_rows=N_TARGET,
        factors=[SourceFactor(
            "S2", dataset.factors[1].data, OTHER_COLUMNS,
            MappingMatrix("S2", OTHER_COLUMNS, OTHER_COLUMNS, {c: c for c in OTHER_COLUMNS}),
            dataset.factors[1].indicator,
            RedundancyMatrix.all_ones("S2", N_TARGET, len(OTHER_COLUMNS)),
        )],
        scenario=ScenarioType.LEFT_JOIN, name="T_lone",
    )
    for backend in ("dense", "sparse"):
        matrix = AmalurMatrix(lone, backend=backend)
        plan = matrix._plans[0]
        target = lone.materialize()
        assert np.max(np.abs(matrix.crossprod() - target.T @ target)) <= 1e-10
        form = plan.row_form()
        assert form.rows.shape[0] == plan.n_source_rows < plan.n_mapped_rows
        assert form.weighted is not None and form.weighted.shape == form.rows.shape
        assert form.rows is plan.storage  # every column mapped in order: no copy


# -- training -----------------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_streaming_gd_on_a_spilled_many_to_one_join_matches_full_batch(workers, tmp_path):
    parallel.set_num_workers(workers)
    parallel.set_min_parallel_rows(0)
    with SpillStore(tmp_path) as store:
        spilled = AmalurMatrix(build_dataset("shuffled", redundant=True, store=store))
        streaming = StreamingGD(
            task="linear", block_rows=7, learning_rate=0.05, n_iterations=40
        ).fit(spilled)
    resident = AmalurMatrix(build_dataset("shuffled", redundant=True))
    reference = LinearRegression(solver="gd", learning_rate=0.05, n_iterations=40).fit(
        resident.feature_matrix_view(), resident.labels()
    )
    assert np.max(np.abs(streaming.coef_ - reference.coef_)) <= 1e-8
    assert abs(streaming.intercept_ - reference.intercept_) <= 1e-8
