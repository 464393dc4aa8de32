"""Tests for repro.data.io (CSV round-tripping, the binary FRD format)."""

import numpy as np
import pytest

from repro.data.backing import column_dtypes, record_dtype
from repro.data.dataset import CategoricalDataset
from repro.data.io import (
    FRD_MAGIC,
    FrdWriter,
    load_csv,
    open_frd,
    save_csv,
    save_frd,
    save_frd_chunks,
)
from repro.exceptions import DataError


class TestRoundTrip:
    def test_roundtrip_preserves_dataset(self, tiny_dataset, tmp_path):
        path = tmp_path / "tiny.csv"
        save_csv(tiny_dataset, path)
        loaded = load_csv(tiny_dataset.schema, path)
        assert loaded == tiny_dataset

    def test_file_is_label_valued(self, tiny_dataset, tmp_path):
        path = tmp_path / "tiny.csv"
        save_csv(tiny_dataset, path)
        text = path.read_text()
        assert text.splitlines()[0] == "color,size"
        assert "red" in text and "blue" in text

    def test_empty_dataset_roundtrip(self, tiny_schema, tmp_path):
        import numpy as np

        from repro.data.dataset import CategoricalDataset

        empty = CategoricalDataset(tiny_schema, np.empty((0, 2), dtype=int))
        path = tmp_path / "empty.csv"
        save_csv(empty, path)
        assert load_csv(tiny_schema, path).n_records == 0


class TestLoadValidation:
    def test_header_mismatch(self, tiny_dataset, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\nred,s\n")
        with pytest.raises(DataError):
            load_csv(tiny_dataset.schema, path)

    def test_unknown_label(self, tiny_schema, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("color,size\npurple,s\n")
        with pytest.raises(DataError):
            load_csv(tiny_schema, path)

    def test_empty_file(self, tiny_schema, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(tiny_schema, path)


# ----------------------------------------------------------------------
# FRD: the compact columnar binary format
# ----------------------------------------------------------------------
class TestFrdRoundTrip:
    def test_roundtrip_preserves_dataset(self, tiny_dataset, tmp_path):
        path = tmp_path / "tiny.frd"
        save_frd(tiny_dataset, path)
        frd = open_frd(path, schema=tiny_dataset.schema)
        assert frd.n_records == tiny_dataset.n_records
        assert frd.schema == tiny_dataset.schema
        assert frd.to_dataset() == tiny_dataset

    def test_columns_stored_at_minimal_dtype(self, tiny_dataset, tmp_path):
        path = tmp_path / "tiny.frd"
        save_frd(tiny_dataset, path)
        frd = open_frd(path)
        for j, dtype in enumerate(column_dtypes(tiny_dataset.schema)):
            assert frd.column(j).dtype == dtype
            assert np.array_equal(frd.column(j), tiny_dataset.records[:, j])
        assert frd.dtype == record_dtype(tiny_dataset.schema)

    def test_iter_chunks_byte_equality(self, tiny_dataset, tmp_path):
        path = tmp_path / "tiny.frd"
        save_frd(tiny_dataset, path)
        chunks = list(open_frd(path).iter_chunks(3))
        assert [c.shape[0] for c in chunks] == [3, 3, 2]
        rebuilt = np.concatenate(chunks, axis=0)
        assert rebuilt.tobytes() == (
            tiny_dataset.records.astype(record_dtype(tiny_dataset.schema)).tobytes()
        )

    def test_writes_are_deterministic(self, tiny_dataset, tmp_path):
        a, b = tmp_path / "a.frd", tmp_path / "b.frd"
        save_frd(tiny_dataset, a)
        save_frd(tiny_dataset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_streaming_writer_unknown_extent(self, tiny_dataset, tmp_path):
        path = tmp_path / "streamed.frd"
        written = save_frd_chunks(
            tiny_dataset.schema, tiny_dataset.iter_chunks(3), path
        )
        assert written == tiny_dataset.n_records
        assert open_frd(path).to_dataset() == tiny_dataset
        # Chunk boundaries leave no trace in the file.
        whole = tmp_path / "whole.frd"
        save_frd(tiny_dataset, whole)
        assert path.read_bytes() == whole.read_bytes()

    def test_writer_accepts_raw_arrays_and_validates(self, tiny_schema, tmp_path):
        path = tmp_path / "raw.frd"
        with FrdWriter(tiny_schema, path) as writer:
            writer.write(np.array([[0, 0], [1, 2]]))
        assert open_frd(path).n_records == 2
        with pytest.raises(DataError):
            with FrdWriter(tiny_schema, tmp_path / "bad.frd") as writer:
                writer.write(np.array([[0, 99]]))

    def test_empty_dataset_roundtrip(self, tiny_schema, tmp_path):
        empty = CategoricalDataset(tiny_schema, np.empty((0, 2), dtype=int))
        path = tmp_path / "empty.frd"
        save_frd(empty, path)
        frd = open_frd(path)
        assert frd.n_records == 0
        assert list(frd.iter_chunks(4)) == []
        assert frd.to_dataset() == empty

    def test_spool_files_cleaned_up(self, tiny_dataset, tmp_path):
        path = tmp_path / "tiny.frd"
        save_frd(tiny_dataset, path)
        assert [p.name for p in tmp_path.iterdir()] == ["tiny.frd"]


class TestFrdValidation:
    def test_bad_magic_rejected(self, tiny_schema, tmp_path):
        path = tmp_path / "not.frd"
        path.write_bytes(b"definitely not an FRD file")
        with pytest.raises(DataError):
            open_frd(path)

    def test_corrupt_header_rejected(self, tiny_dataset, tmp_path):
        path = tmp_path / "corrupt.frd"
        save_frd(tiny_dataset, path)
        blob = bytearray(path.read_bytes())
        blob[len(FRD_MAGIC) + 4] ^= 0xFF  # flip a header byte
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            open_frd(path)

    def test_schema_mismatch_rejected(self, tiny_dataset, survey_schema, tmp_path):
        path = tmp_path / "tiny.frd"
        save_frd(tiny_dataset, path)
        with pytest.raises(DataError):
            open_frd(path, schema=survey_schema)

    def test_out_of_domain_file_values_caught(self, tiny_dataset, tmp_path):
        path = tmp_path / "tampered.frd"
        save_frd(tiny_dataset, path)
        blob = bytearray(path.read_bytes())
        blob[-1] = 250  # last cell of the last column: size index 250 >= 3
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            open_frd(path).to_dataset()
