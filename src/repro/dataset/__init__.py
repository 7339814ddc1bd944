"""Partitioned datasets as first-class inputs.

Real columns rarely live in one file: datasets arrive partitioned
(``data/part-*.csv``), and dataset-oriented tooling treats a "table" as
a *set* of files.  This package is the resolution layer that the rest of
the pipeline builds on:

* :class:`~repro.dataset.dataset.Dataset` resolves a mixture of paths,
  globs, and directories into an ordered list of
  :class:`~repro.dataset.dataset.DatasetPart` entries (stable sorted
  ordering, format inferred per file, per-file schema checks);
* :mod:`repro.dataset.readers` streams column values out of each part
  (CSV or JSON Lines) with the same missing-column semantics as the
  sharded profile and apply paths;
* :mod:`repro.dataset.backends` holds the format backends and the one
  shard planner both passes use: every part becomes record-aligned
  :class:`~repro.dataset.backends.base.Shard` spans (byte ranges for
  CSV/JSONL, row-group ranges for Parquet/Arrow).

On top of it, :meth:`ParallelProfiler.profile_dataset
<repro.clustering.parallel.ParallelProfiler.profile_dataset>` profiles
those shards and merges them through the associative
:meth:`~repro.clustering.incremental.ColumnProfile.merge_all`,
:meth:`ShardedTableExecutor.run_dataset
<repro.engine.parallel.ShardedTableExecutor.run_dataset>` applies
them, and the CLI's ``profile``/``compile``/``apply`` accept globs and
multiple paths directly (``apply --output-dir`` preserves partition
names).
"""

from repro.dataset.dataset import Dataset, DatasetPart, resolve_dataset
from repro.dataset.readers import iter_part_values

__all__ = [
    "Dataset",
    "DatasetPart",
    "iter_part_values",
    "resolve_dataset",
]
