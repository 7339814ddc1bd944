"""The dataset IO backend registry: formats and schemes behind one seam.

Importing this package registers the built-in backends — CSV, JSON
Lines, Parquet, Arrow IPC — under their names and file suffixes; the
columnar pair registers unconditionally and gates on ``pyarrow`` at
use time, so ``artifacts``/``profile``/``apply`` can *name* the format
in errors and help text even on a no-extras install.  Remote
``scheme://`` partitions resolve through the opener seam in
:mod:`~repro.dataset.backends.remote`.
"""

from repro.dataset.backends.base import (
    Backend,
    RowSpec,
    Shard,
    SinkWriter,
    backend_by_name,
    backend_for_path,
    backend_names,
    input_format_names,
    register_backend,
    sink_format_names,
    supported_suffixes,
)
from repro.dataset.backends.columnar import (
    ArrowBackend,
    ColumnarWriter,
    ParquetBackend,
    pyarrow_available,
)
from repro.dataset.backends.remote import (
    PartOpener,
    file_url_to_path,
    is_url,
    locator_size,
    open_locator,
    register_opener,
    unregister_opener,
    url_scheme,
)
from repro.dataset.backends.text import CsvBackend, JsonlBackend

register_backend(CsvBackend())
register_backend(JsonlBackend())
register_backend(ParquetBackend())
register_backend(ArrowBackend())

__all__ = [
    "ArrowBackend",
    "Backend",
    "ColumnarWriter",
    "CsvBackend",
    "JsonlBackend",
    "ParquetBackend",
    "PartOpener",
    "RowSpec",
    "Shard",
    "SinkWriter",
    "backend_by_name",
    "backend_for_path",
    "backend_names",
    "file_url_to_path",
    "input_format_names",
    "is_url",
    "locator_size",
    "open_locator",
    "pyarrow_available",
    "register_backend",
    "register_opener",
    "sink_format_names",
    "supported_suffixes",
    "unregister_opener",
    "url_scheme",
]
