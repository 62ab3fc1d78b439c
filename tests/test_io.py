"""Container, PGM, CSV, and JSON serialization round trips."""

import random
import tracemalloc

import numpy as np
import pytest

from mfcal.cascade import SpectrumCurve
from mfcal.cli import _read_input_field, main
from mfcal.io import (
    ContainerDimsError,
    ContainerRows,
    ContainerError,
    ContainerDtypeError,
    ContainerMagicError,
    ContainerVersionError,
    PgmError,
    PgmMagicError,
    PgmMaxvalError,
    PgmTruncatedError,
    excite_record_json,
    read_field,
    read_field_file,
    read_pgm,
    write_field,
    write_field_file,
    write_moments_csv,
    write_spectrum_csv,
)
from mfcal.spectrum import moments_spectrum
from mfcal.cascade import binomial_levels


class TestFieldContainer:
    def test_header_layout(self):
        blob = write_field(np.zeros((2, 3)))
        assert blob[:4] == b"MFR1"
        assert blob[4] == 1          # version
        assert blob[5] == 1          # float64
        assert blob[6] == 2          # ndims
        assert int.from_bytes(blob[7:11], "little") == 2
        assert int.from_bytes(blob[11:15], "little") == 3
        assert len(blob) == 15 + 6 * 8

    @pytest.mark.parametrize("shape", [(3, 4), (3, 4, 2), (2, 3, 4, 2)])
    def test_round_trip_is_bit_exact(self, shape):
        rng = np.random.default_rng(sum(shape))
        field = rng.normal(size=shape)
        back = read_field(write_field(field))
        assert back.dtype == np.float64
        assert np.array_equal(back.view(np.uint64), field.view(np.uint64))

    @pytest.mark.parametrize("shape", [(3, 4), (3, 4, 2), (2, 3, 4, 2)])
    @pytest.mark.parametrize("layout", ["c", "fortran", "float32", "sliced"])
    def test_payload_is_the_little_endian_row_major_copy(self, shape, layout):
        base = np.random.default_rng(len(shape)).normal(size=tuple(2 * d for d in shape))
        arr = {
            "c": np.ascontiguousarray(base[tuple(slice(d) for d in shape)]),
            "fortran": np.asfortranarray(base[tuple(slice(d) for d in shape)]),
            "float32": base[tuple(slice(d) for d in shape)].astype(np.float32),
            "sliced": base[tuple(slice(None, None, 2) for _ in shape)],
        }[layout]
        header = b"MFR1" + bytes([1, 1, len(shape)])
        header += b"".join(d.to_bytes(4, "little") for d in shape)
        blob = write_field(arr)
        assert type(blob) is bytes
        assert blob == header + np.ascontiguousarray(arr, "<f8").tobytes()

    def test_read_returns_an_owned_writable_array(self):
        back = read_field(write_field(np.arange(6.0).reshape(2, 3)))
        assert back.flags.writeable and back.flags.owndata
        back[0, 0] = -1.0

    def test_float32_container_is_read_as_float32(self):
        header = b"MFR1" + bytes([1, 0, 2])  # version 1, dtype code 0 (float32), 2 dims
        header += (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
        back = read_field(header + np.array([1.5, -2.0], dtype="<f4").tobytes())
        assert back.dtype == np.float32
        assert np.array_equal(back, np.array([[1.5, -2.0]], dtype=np.float32))

    @pytest.mark.parametrize("layout", ["c", "fortran", "float32"])
    def test_file_writer_writes_the_bytes_of_write_field(self, layout, tmp_path):
        base = np.random.default_rng(5).normal(size=(3, 4, 2))
        arr = {"c": base, "fortran": np.asfortranarray(base),
               "float32": base.astype(np.float32)}[layout]
        path = tmp_path / "out.mfr"
        path.write_bytes(b"stale" * 100)  # longer than the container: cut to its length
        write_field_file(path, arr)
        assert path.read_bytes() == write_field(arr)
        with open(path, "rb") as file:
            back = read_field_file(file)
        assert back.tobytes() == np.ascontiguousarray(arr, "<f8").tobytes()

    def test_blocks_written_with_their_shape_are_the_bytes_of_write_field(self, tmp_path):
        field = np.random.default_rng(6).normal(size=(5, 3, 2))
        path = tmp_path / "out.mfr"
        path.write_bytes(b"stale" * 100)  # longer than the container: cut to its length
        write_field_file(path, (field[i:i + 2] for i in range(0, 5, 2)), shape=field.shape)
        assert path.read_bytes() == write_field(field)

    def test_a_block_that_raises_leaves_a_file_every_reader_rejects(self, tmp_path):
        path = tmp_path / "out.mfr"
        path.write_bytes(write_field(np.full((4, 3), 0.5)))  # the dims of the new field

        def blocks():
            yield np.ones((2, 3))
            raise RuntimeError("the second block failed")

        with pytest.raises(RuntimeError, match="second block"):
            write_field_file(path, blocks(), shape=(4, 3))
        with open(path, "rb") as file, pytest.raises(ContainerMagicError):
            read_field_file(file)
        with pytest.raises(ContainerMagicError):
            ContainerRows(str(path))

    def test_a_bad_shape_is_refused_before_the_file_opens(self, tmp_path):
        path = tmp_path / "out.mfr"
        with pytest.raises(ContainerDimsError):
            write_field_file(path, iter(()), shape=(4,))
        assert not path.exists()

    def test_file_reader_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.mfr"
        path.write_bytes(write_field(np.ones((2, 2))) + b"\x00")
        with open(path, "rb") as file, pytest.raises(ContainerDimsError, match="payload"):
            read_field_file(file)

    def test_cli_reads_a_float32_container_as_float64(self, tmp_path):
        header = b"MFR1" + bytes([1, 0, 2]) + (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
        path = tmp_path / "f32.mfr"
        path.write_bytes(header + np.array([1.5, -2.0], dtype="<f4").tobytes())
        back = _read_input_field(str(path))
        assert back.dtype == np.float64
        assert np.array_equal(back, [[1.5, -2.0]])

    @pytest.mark.parametrize("dtype", ["<f8", "<f4"], ids=["float64", "float32"])
    def test_rows_are_read_on_demand_into_float64_tile_rows(self, dtype, tmp_path):
        field = np.arange(60.0).reshape(5, 4, 3).astype(dtype)
        header = b"MFR1" + bytes([1, {"<f4": 0, "<f8": 1}[dtype], 3])
        path = tmp_path / "rows.mfr"
        path.write_bytes(header + b"".join(d.to_bytes(4, "little") for d in field.shape)
                         + field.tobytes())
        rows = ContainerRows(str(path))
        assert rows.shape == (5, 4, 3) and rows.dtype == np.dtype(dtype)
        tile = np.zeros((4, 6, 3))
        with rows.reader() as read:
            read(tile[1:4, 1:5], 2)  # rows 2..4 into a zero-bordered tile
            read(tile[0:1, 1:5], 0)
        expected = np.zeros((4, 6, 3))
        expected[1:4, 1:5] = field[2:5]
        expected[0, 1:5] = field[0]
        assert tile.tobytes() == expected.tobytes()

    def test_rows_of_a_cut_payload_raise(self, tmp_path):
        path = tmp_path / "cut.mfr"
        path.write_bytes(write_field(np.ones((3, 2))))
        rows = ContainerRows(str(path))
        path.write_bytes(path.read_bytes()[:-1])
        with rows.reader() as read, pytest.raises(ContainerDimsError, match="ended early"):
            read(np.empty((1, 2, 1)), 2)

    def test_one_dimensional_arrays_are_rejected(self):
        with pytest.raises(ContainerDimsError):
            write_field(np.ones(5))

    def test_empty_dims_rejected(self):
        with pytest.raises(ContainerDimsError):
            write_field(np.ones((0, 3)))

    def test_bad_magic(self):
        with pytest.raises(ContainerMagicError):
            read_field(b"XXXX" + bytes(32))

    def test_bad_version(self):
        blob = bytearray(write_field(np.ones((2, 2))))
        blob[4] = 9
        with pytest.raises(ContainerVersionError):
            read_field(bytes(blob))

    def test_bad_dtype_code(self):
        blob = bytearray(write_field(np.ones((2, 2))))
        blob[5] = 7
        with pytest.raises(ContainerDtypeError):
            read_field(bytes(blob))

    def test_payload_length_mismatch(self):
        blob = write_field(np.ones((2, 2)))
        with pytest.raises(ContainerDimsError):
            read_field(blob[:-8])

    def test_zero_dimension_rejected_on_read(self):
        blob = bytearray(write_field(np.ones((2, 2))))
        blob[7:11] = (0).to_bytes(4, "little")
        with pytest.raises(ContainerDimsError):
            read_field(bytes(blob))

    def test_huge_dims_rejected_without_allocation(self):
        header = b"MFR1" + bytes([1, 1, 2])
        header += (0xFFFFFFFF).to_bytes(4, "little") * 2
        with pytest.raises(ContainerDimsError):
            read_field(header + b"\x00" * 64)


class TestPgm:
    def test_full_scale_single_pixel(self):
        field = read_pgm(b"P5 1 1 255 \xff")
        assert field.shape == (1, 1)
        assert field[0, 0] == 1.0

    def test_scaling_by_maxval(self):
        field = read_pgm(b"P5 2 1 255 \x00\x7f")
        np.testing.assert_allclose(field, [[0.0, 127 / 255]], rtol=0, atol=0)

    def test_comments_between_tokens(self):
        plain = read_pgm(b"P5 2 2 255 \x01\x02\x03\x04")
        spiced = read_pgm(b"P5\n# a comment\n2 # width done\n2\n255\n\x01\x02\x03\x04")
        assert np.array_equal(plain, spiced)

    def test_sixteen_bit_samples_are_big_endian(self):
        field = read_pgm(b"P5 1 1 65535 \x01\x00")
        assert field[0, 0] == 256 / 65535

    def test_wrong_magic(self):
        with pytest.raises(PgmMagicError):
            read_pgm(b"P6 1 1 255 \x00")

    def test_truncated_payload(self):
        with pytest.raises(PgmTruncatedError):
            read_pgm(b"P5 2 2 255 \x00\x00")

    def test_zero_maxval(self):
        with pytest.raises(PgmMaxvalError):
            read_pgm(b"P5 1 1 0 \x00")

    def test_oversized_maxval(self):
        with pytest.raises(PgmMaxvalError):
            read_pgm(b"P5 1 1 70000 \x00\x00")


def mutations(valid: bytes, rng: random.Random, count: int):
    """Seeded variants of a valid blob: truncated, header bytes overwritten, junk inserted."""
    for _ in range(count):
        blob = bytearray(valid)
        kind = rng.randrange(3)
        if kind == 0:
            del blob[rng.randrange(len(blob)):]
        elif kind == 1:
            for _ in range(rng.randint(1, 4)):
                blob[rng.randrange(min(len(blob), 24))] = rng.randrange(256)
        else:
            at = rng.randrange(len(blob))
            blob[at:at] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
        yield bytes(blob)


def huge_headers(rng: random.Random, count: int):
    """Well-formed headers that declare far more data than the few bytes that follow."""
    for _ in range(count):
        ndims = rng.randint(2, 4)
        dims = [rng.randint(1 << 20, 0xFFFFFFFF) for _ in range(ndims)]
        header = b"MFR1" + bytes([1, rng.randint(0, 1), ndims])
        header += b"".join(d.to_bytes(4, "little") for d in dims)
        yield header + bytes(rng.randrange(64))
        width, height = rng.randint(1 << 20, 1 << 40), rng.randint(1, 1 << 40)
        yield f"P5 {width} {height} {rng.choice([255, 65535])}\n".encode() + bytes(rng.randrange(64))


def decode(blob: bytes):
    """Decode with the bytes readers; return the typed error raised, or None."""
    try:
        if blob[:2] == b"P5":
            read_pgm(blob)
        else:
            read_field(blob)
    except (ContainerError, PgmError) as exc:
        return exc
    return None


def decode_file(path):
    """Decode a container file with the CLI's file reader; the typed error, or None."""
    try:
        with open(path, "rb") as file:
            read_field_file(file)
    except ContainerError as exc:
        return exc
    return None


class TestFuzz:
    """Malformed inputs reach only the typed errors, and the CLI exits 3 on them."""

    def _cli_exit(self, tmp_path, blob):
        src = tmp_path / "fuzz.bin"
        src.write_bytes(blob)
        return main(["holder", "--input", str(src), "--out", str(tmp_path / "o.mfr")])

    def _check(self, tmp_path, blobs, cli_runs=12):
        failures = [blob for blob in blobs if decode(blob) is not None]
        assert failures
        for blob in failures[:cli_runs]:
            assert self._cli_exit(tmp_path, blob) == 3

    def test_mutated_containers(self, tmp_path):
        rng = random.Random(41)
        valid = write_field(np.arange(24.0).reshape(2, 3, 4))
        blobs = list(mutations(valid, rng, 300))
        self._check(tmp_path, blobs)
        # the file reader raises what the bytes reader raises, and reads
        # what it reads
        path = tmp_path / "mutated.mfr"
        for blob in blobs:
            path.write_bytes(blob)
            error = decode(blob)
            assert type(decode_file(path)) is type(error)
            if error is None:
                with open(path, "rb") as file:
                    assert read_field_file(file).tobytes() == read_field(blob).tobytes()

    def test_mutated_pgm_streams(self, tmp_path):
        rng = random.Random(42)
        valid = b"P5\n# fixture\n3 2\n65535\n" + bytes(range(12))
        self._check(tmp_path, list(mutations(valid, rng, 300)))

    def test_bad_maxval(self, tmp_path):
        rng = random.Random(43)
        for _ in range(20):
            maxval = rng.choice([0, rng.randint(65536, 1 << 40), -rng.randint(1, 99)])
            blob = f"P5 1 1 {maxval} ".encode() + b"\x00\x00"
            assert isinstance(decode(blob), PgmError)
        assert self._cli_exit(tmp_path, b"P5 1 1 0 \x00") == 3
        assert self._cli_exit(tmp_path, b"P5 1 1 -7 \x05") == 3  # not a field of -5/7

    def test_huge_declared_sizes_are_rejected_before_allocation(self, tmp_path):
        blobs = list(huge_headers(random.Random(44), 20))
        paths = []
        for i, blob in enumerate(blobs):
            if blob[:2] != b"P5":
                paths.append(tmp_path / f"huge{i}.mfr")
                paths[-1].write_bytes(blob)
        tracemalloc.start()
        try:
            errors = [decode(blob) for blob in blobs]
            file_errors = [decode_file(path) for path in paths]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(isinstance(e, (ContainerDimsError, PgmTruncatedError)) for e in errors)
        assert paths and all(isinstance(e, ContainerDimsError) for e in file_errors)
        assert peak < 1 << 20
        self._check(tmp_path, blobs[:4])


class TestCsv:
    def test_empty_header_only(self):
        curve = SpectrumCurve(np.array([1.0]), np.array([1.0]))
        text = write_spectrum_csv(curve)
        assert text == "alpha,f\n1,1\n"

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(3)
        alpha = np.sort(rng.uniform(0.5, 2.5, 16))
        f = rng.uniform(0.0, 1.0, 16)
        curve = SpectrumCurve(alpha, f)
        lines = write_spectrum_csv(curve).split("\n")
        assert lines[0] == "alpha,f" and lines[-1] == ""
        pairs = [line.split(",") for line in lines[1:-1]]
        back_alpha = np.array([float(a) for a, _ in pairs])
        back_f = np.array([float(b) for _, b in pairs])
        assert np.array_equal(back_alpha.view(np.uint64), alpha.view(np.uint64))
        assert np.array_equal(back_f.view(np.uint64), f.view(np.uint64))

    def test_lf_line_endings(self):
        curve = SpectrumCurve(np.array([1.0, 2.0]), np.array([0.5, 0.25]))
        text = write_spectrum_csv(curve)
        assert "\r" not in text
        assert text.endswith("\n")

    def test_moments_csv_round_trips_its_four_columns(self):
        partition, _ = moments_spectrum(binomial_levels(0.7, 6, 8), [-1.0, -0.5, 0.0, 0.5, 1.0])
        text = write_moments_csv(partition)
        lines = text.strip().split("\n")
        assert lines[0] == "q,tau,alpha,f"
        assert len(lines) == 6
        back = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        expected = [partition.q_values, partition.tau, partition.alpha, partition.f]
        assert back.T.tobytes() == np.stack(expected).tobytes()


class TestExciteRecord:
    def test_fixed_key_order(self):
        text = excite_record_json(
            {"singular_values": [1.0], "k": 1, "delta": 0.9}
        )
        assert text == '{"delta": 0.9, "k": 1, "singular_values": [1.0]}\n'
