"""Non-UTF-8 bytes name the same file, line, and offset on every profile path.

Serial and sharded profiling, through ``profile_file`` or
``profile_dataset``, read lines with the same decoder, so one bad byte
raises one message: the file, the 1-based physical line, and the
absolute byte offset — also when the byte sits in a mid-file shard.
"""

from __future__ import annotations

import pytest

from repro.clustering.parallel import ParallelProfiler
from repro.util.errors import CLXError

BAD_LINE = 202


@pytest.fixture
def bad_csv(tmp_path):
    rows = [f"{index},734-422-{index:04d}\n".encode() for index in range(1, 300)]
    rows[BAD_LINE - 2] = b"201,734-422-\xff201\n"  # line 1 is the header
    raw = b"id,phone\n" + b"".join(rows)
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    return path, raw.index(b"\xff")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("entry", ["profile_file", "profile_dataset"])
def test_bad_byte_names_line_and_absolute_offset(bad_csv, entry, workers):
    path, offset = bad_csv
    profiler = ParallelProfiler(workers=workers)
    with pytest.raises(CLXError) as info:
        if entry == "profile_file":
            profiler.profile_file(path, "phone")
        else:
            profiler.profile_dataset([str(path)], "phone")
    assert str(info.value) == (
        f"{path} line {BAD_LINE}: invalid UTF-8 byte 0xff at byte offset "
        f"{offset}; the pipeline reads UTF-8 — re-encode the file"
    )
