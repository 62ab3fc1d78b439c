"""Container, PGM, CSV, and JSON serialization round trips."""

import numpy as np
import pytest

from mfcal.cascade import SpectrumCurve
from mfcal.io import (
    ContainerDimsError,
    ContainerDtypeError,
    ContainerMagicError,
    ContainerVersionError,
    PgmMagicError,
    PgmMaxvalError,
    PgmTruncatedError,
    excite_record_json,
    read_field,
    read_pgm,
    write_field,
    write_moments_csv,
    write_spectrum_csv,
)
from mfcal.spectrum import moments_spectrum
from mfcal.cascade import CascadeSpec, generate_binomial


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

    def test_float32_container_is_read_as_float32(self):
        header = b"MFR1" + bytes([1, 0, 2])  # version 1, dtype code 0 (float32), 2 dims
        header += (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
        back = read_field(header + np.array([1.5, -2.0], dtype="<f4").tobytes())
        assert back.dtype == np.float32
        assert np.array_equal(back, np.array([[1.5, -2.0]], dtype=np.float32))

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

    def test_moments_csv_carries_flags(self):
        fields = [generate_binomial(CascadeSpec.binomial(0.7, k)) for k in (6, 7, 8)]
        partition, _ = moments_spectrum(fields, [-1.0, -0.5, 0.0, 0.5, 1.0])
        text = write_moments_csv(partition)
        lines = text.strip().split("\n")
        assert lines[0] == "q,tau,alpha,f,one_sided"
        assert len(lines) == 6
        flags = [line.split(",")[-1] for line in lines[1:]]
        assert flags == ["1", "0", "0", "0", "1"]


class TestExciteRecord:
    def test_fixed_key_order(self):
        text = excite_record_json(
            {"singular_values": [1.0], "k": 1, "delta": 0.9}
        )
        assert text == '{"delta": 0.9, "k": 1, "singular_values": [1.0]}\n'
