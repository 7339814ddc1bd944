"""Tests for the shared utilities."""

from __future__ import annotations

import pytest

from repro.util.errors import CLXError, PatternParseError, SynthesisError, TransformError, ValidationError
from repro.util.rand import DEFAULT_SEED, digits, letters, make_rng, weighted_choice
from repro.util.sinks import AtomicSink
from repro.util.text import common_prefix_length, format_table, truncate
from repro.util.timing import Stopwatch
from repro.util.validate import validated_memo_size


class TestErrors:
    def test_all_errors_derive_from_clxerror(self):
        for error in (PatternParseError, SynthesisError, TransformError, ValidationError):
            assert issubclass(error, CLXError)

    def test_parse_error_keeps_source(self):
        error = PatternParseError("bad", source="<X>")
        assert error.source == "<X>"


class TestRand:
    def test_default_seed_is_stable(self):
        assert make_rng().random() == make_rng(DEFAULT_SEED).random()

    def test_explicit_seed(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_digits_and_letters(self):
        rng = make_rng(1)
        assert len(digits(rng, 6)) == 6
        assert digits(make_rng(1), 6).isdigit()
        assert letters(make_rng(1), 4).islower()
        assert letters(make_rng(1), 4, upper=True).isupper()

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            digits(make_rng(1), -1)
        with pytest.raises(ValueError):
            letters(make_rng(1), -1)

    def test_weighted_choice_validations(self):
        rng = make_rng(1)
        with pytest.raises(ValueError):
            weighted_choice(rng, [], [])
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [1.0, 2.0])
        assert weighted_choice(rng, ["a"], [1.0]) == "a"


class TestText:
    def test_truncate(self):
        assert truncate("short", 10) == "short"
        assert truncate("a" * 50, 10).endswith("…")
        assert len(truncate("a" * 50, 10)) == 10
        with pytest.raises(ValueError):
            truncate("x", 0)

    def test_format_table_alignment(self):
        table = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a  ")

    def test_common_prefix_length(self):
        assert common_prefix_length("abcd", "abxy") == 2
        assert common_prefix_length("", "x") == 0
        assert common_prefix_length("same", "same") == 4


class TestStopwatch:
    def test_measure_accumulates(self):
        watch = Stopwatch()
        with watch.measure("work"):
            pass
        with watch.measure("work"):
            pass
        assert watch.count("work") == 2
        assert watch.total("work") >= 0.0
        assert watch.mean("work") >= 0.0

    def test_unknown_name_is_zero(self):
        watch = Stopwatch()
        assert watch.total("nothing") == 0.0
        assert watch.mean("nothing") == 0.0
        assert watch.count("nothing") == 0

    def test_record_external_samples(self):
        watch = Stopwatch()
        watch.record("chunk", 0.5)
        watch.record("chunk", 1.5)
        assert watch.count("chunk") == 2
        assert watch.total("chunk") == 2.0
        assert watch.mean("chunk") == 1.0


class TestValidators:
    @pytest.mark.parametrize("good", [0, 1, 4096])
    def test_memo_size_accepts_non_negative_ints(self, good):
        assert validated_memo_size(good) == good

    @pytest.mark.parametrize("bad", [-1, -4096, 1.5, "16", None, True, False])
    def test_memo_size_rejects_bad_values(self, bad):
        with pytest.raises(ValidationError, match="--memo-size"):
            validated_memo_size(bad, "--memo-size")


class TestAtomicSink:
    def test_commit_renames_into_place(self, tmp_path):
        target = tmp_path / "out.txt"
        sink = AtomicSink(target).open()
        sink.write("hello\n")
        assert not target.exists()  # nothing at the final path until commit
        sink.commit()
        assert target.read_text() == "hello\n"

    def test_abort_leaves_final_path_untouched(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("original")
        sink = AtomicSink(target).open()
        sink.write("replacement")
        sink.abort()
        assert target.read_text() == "original"
        assert not list(tmp_path.glob(".out.txt.clx-tmp.*"))

    def test_open_after_commit_raises_clearly(self, tmp_path):
        sink = AtomicSink(tmp_path / "out.txt").open()
        sink.write("x")
        sink.commit()
        with pytest.raises(ValueError, match="already committed/aborted"):
            sink.open()

    def test_open_after_abort_raises_clearly(self, tmp_path):
        sink = AtomicSink(tmp_path / "out.txt").open()
        sink.abort()
        with pytest.raises(ValueError, match="already committed/aborted"):
            sink.open()

    def test_write_after_commit_names_the_real_cause(self, tmp_path):
        # The old message was a misleading "sink for X is not open".
        sink = AtomicSink(tmp_path / "out.txt").open()
        sink.commit()
        with pytest.raises(ValueError, match="already committed/aborted"):
            sink.write("late")

    def test_context_reuse_raises_clearly(self, tmp_path):
        sink = AtomicSink(tmp_path / "out.txt")
        with sink as handle:
            handle.write("first\n")
        with pytest.raises(ValueError, match="already committed/aborted"):
            with sink:
                pass  # pragma: no cover - open() raises before the body

    def test_commit_and_abort_stay_idempotent(self, tmp_path):
        target = tmp_path / "out.txt"
        sink = AtomicSink(target).open()
        sink.write("once\n")
        sink.commit()
        sink.commit()  # second commit is a no-op, not an error
        sink.abort()  # abort after commit is also a no-op
        assert target.read_text() == "once\n"

    def test_open_while_live_is_idempotent(self, tmp_path):
        target = tmp_path / "out.txt"
        sink = AtomicSink(target).open()
        sink.write("a")
        sink.open()  # re-open before commit keeps the same handle
        sink.write("b")
        sink.commit()
        assert target.read_text() == "ab"

    def test_empty_commit_produces_empty_file(self, tmp_path):
        target = tmp_path / "out.txt"
        AtomicSink(target).commit()
        assert target.exists() and target.read_text() == ""
