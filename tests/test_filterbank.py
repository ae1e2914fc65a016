import dataclasses
import itertools
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fblab import (
    ErbParams,
    Filterbank,
    FilterbankKind,
    build_mpgtf,
    build_parampgtf,
    build_stft_bank,
    center_frequency_grid,
    frequency_response,
    load_filterbank,
    save_filterbank,
    StftMode,
    StftSpec,
    StftWindow,
    analysis_matrix,
    numerical_rank,
)
from fblab.filterbank import condition_number

FS = 8000

#: The header of the default mpgtf bank as files carried it while FBANK2 stored the centre list.
_HEADER_WITH_CENTERS = (
    "FBANK2 kind=mpgtf n=512 len=16 fs=8000 c1=24.699999999999999 c2=9.2650000000000006 centers=100,"
    "137.47957310698982,179.23081300060801,225.7405752030318,277.55120371700446,335.26685522538799,"
    "399.56054407995998,471.18199023010988,550.9663616050625,639.84401289335688,738.85133428216079,"
    "849.14283666209565,972.00461422149488,1108.8693414155773,1261.3329791881497,1431.1733852548134,"
    "1620.371045459656,1831.1321679509488,2065.9144094738949,2327.45553377122,2618.8053362733135,"
    "2943.3612073473782,3304.9077488038056,3707.6609056224488"
)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    """One directory that the hypothesis tests below rewrite their files in."""
    return tmp_path_factory.mktemp("fbank")


def fbank2_text(fields: str, rows: str) -> str:
    """The text of an FBANK2 file: the header `FBANK2 <fields>`, then one tap row per line of `rows`.

    `rows` holds space-separated decimal taps. Each tap that `float()`
    reads is written as the 16 hex digits of its little-endian float64
    bytes; any other token is written as it is, to make a malformed row.
    """
    def hex_tap(token):
        try:
            return struct.pack("<d", float(token)).hex()
        except ValueError:
            return token

    return "\n".join([f"FBANK2 {fields}", *("".join(map(hex_tap, line.split())) for line in rows.splitlines())]) + "\n"


class TestFilterbankType:
    def test_rejects_non_finite_taps(self):
        taps = np.ones((2, 4))
        taps[1, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            Filterbank(taps, FS)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Filterbank(np.zeros((0, 4)), FS)

    @pytest.mark.parametrize("kind,erb_params,message", [
        (FilterbankKind.MPGTF, None, "kind mpgtf needs ERB parameters (c1, c2)"),
        (FilterbankKind.PARAMPGTF, None, "kind parampgtf needs ERB parameters (c1, c2)"),
        (FilterbankKind.STFT, ErbParams(), "kind stft takes no ERB parameters (c1, c2)"),
        (FilterbankKind.CUSTOM, ErbParams(), "kind custom takes no ERB parameters (c1, c2)"),
    ], ids=["mpgtf", "parampgtf", "stft", "custom"])
    def test_kind_and_erb_params_agree(self, kind, erb_params, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Filterbank(np.ones((2, 4)), FS, kind=kind, erb_params=erb_params)

    def test_gammatone_centers_must_stay_in_band(self):
        # A bank holds no centres: they are the grid of its ERB pair at its
        # rate, inside the band [100 Hz, fs/2). At (24.7, 2.834...) the grid's
        # last step rounds to fs/2 at 8 kHz and is left out.
        for p, rate in itertools.product([ErbParams(), ErbParams(24.7, 2.8341247219974894)], (FS, 11025, 16000)):
            bank = build_mpgtf(p, 512, 16, rate)
            grid = center_frequency_grid(bank.erb_params, bank.sample_rate)
            assert grid[0] == 100.0 and grid[-1] < rate / 2

    def test_taps_immutable(self):
        bank = Filterbank(np.ones((2, 4)), FS)
        with pytest.raises(ValueError):
            bank.taps[0, 0] = 3.0


class TestFbank1Format:
    def test_roundtrip_preserves_everything(self, tmp_path):
        bank = build_mpgtf(ErbParams(), 64, 16, FS)
        path = tmp_path / "bank.fbank"
        save_filterbank(path, bank)
        back = load_filterbank(path)
        assert back.kind is FilterbankKind.MPGTF
        assert back.sample_rate == FS
        assert back.erb_params == ErbParams()
        np.testing.assert_array_equal(back.taps, bank.taps)  # the float64 bytes themselves round-trip

        # A Filterbank is exactly its FBANK2 record: every field survives,
        # for each kind, with and without ERB parameters.
        names = [f.name for f in dataclasses.fields(Filterbank)]
        assert names == ["taps", "sample_rate", "kind", "erb_params"]
        banks = [
            bank,
            build_parampgtf(ErbParams(30.0, 8.5), 128, 16, FS),
            build_stft_bank(StftSpec(), FS),  # sign-split, 128 frequencies
            build_stft_bank(StftSpec(16, 8, StftMode.LINEAR), FS),
            Filterbank(np.arange(6.0).reshape(2, 3) / 7.0, FS),
            Filterbank(np.ones((2, 3)), FS, kind=FilterbankKind.MPGTF, erb_params=ErbParams()),
        ]
        for i, bank in enumerate(banks):
            path = tmp_path / f"bank{i}.fbank"
            save_filterbank(path, bank)
            back = load_filterbank(path)
            for name in names:
                a, b = getattr(bank, name), getattr(back, name)
                if isinstance(a, np.ndarray):
                    assert isinstance(b, np.ndarray) and a.shape == b.shape and a.tobytes() == b.tobytes(), name
                else:
                    assert a == b, name

    def test_header_line(self, tmp_path):
        bank = build_mpgtf(ErbParams(), 64, 16, FS)
        path = tmp_path / "bank.fbank"
        save_filterbank(path, bank)
        header = path.read_text().splitlines()[0]
        assert header == "FBANK2 kind=mpgtf n=64 len=16 fs=8000 c1=24.699999999999999 c2=9.2650000000000006"

    def test_tap_rows_are_the_little_endian_float64_bytes_in_hex(self, tmp_path):
        bank = Filterbank([[1.0, -2.0], [0.0, -0.0], [5e-324, 1.7976931348623157e308]], FS)
        path = tmp_path / "bank.fbank"
        save_filterbank(path, bank)
        assert path.read_text().splitlines()[1:] == [
            "000000000000f03f00000000000000c0",
            "00000000000000000000000000000080",
            "0100000000000000ffffffffffffef7f",
        ]

    @pytest.mark.parametrize("builder", [build_mpgtf, build_parampgtf])
    def test_roundtrip_preserves_center_freqs(self, tmp_path, builder):
        # The centres are the grid of the ERB pair and rate, which round-trip exactly.
        p = ErbParams(30.0, 8.5)
        path = tmp_path / "bank.fbank"
        save_filterbank(path, builder(p, 128, 16, FS))
        back = load_filterbank(path)
        assert center_frequency_grid(back.erb_params, back.sample_rate).tobytes() == \
            center_frequency_grid(p, FS).tobytes()

    def test_header_without_centers_still_loads(self, tmp_path):
        path = tmp_path / "old.fbank"
        path.write_text(fbank2_text("kind=mpgtf n=2 len=2 fs=8000 c1=24.7 c2=9.265", "1 2\n3 4"))
        bank = load_filterbank(path)
        assert (bank.kind, bank.sample_rate, bank.erb_params) == (FilterbankKind.MPGTF, FS, ErbParams(24.7, 9.265))
        np.testing.assert_array_equal(bank.taps, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_with_a_centers_list_loads_the_same_bank(self, tmp_path):
        # Files written before the centre list left the header carry it as
        # `centers=`; the loader ignores it like any field it does not know.
        bank = build_mpgtf(ErbParams())
        path = tmp_path / "bank.fbank"
        save_filterbank(path, bank)
        rows = path.read_text().splitlines()[1:]
        path.write_text("\n".join([_HEADER_WITH_CENTERS, *rows]) + "\n")
        back = load_filterbank(path)
        assert back.taps.tobytes() == bank.taps.tobytes()
        assert (back.kind, back.sample_rate, back.erb_params) == (FilterbankKind.MPGTF, FS, ErbParams())

    @pytest.mark.parametrize("centers", ["", "100,abc", "100,nan", "100,inf"])
    def test_ignores_any_centers_field(self, tmp_path, centers):
        path = tmp_path / "old.fbank"
        path.write_text(fbank2_text(f"kind=custom n=1 len=1 fs=8000 c1=- c2=- centers={centers}", "1"))
        assert load_filterbank(path).taps.tolist() == [[1.0]]

    @pytest.mark.parametrize("c1", ["abc", "-3"])
    def test_rejects_bad_erb_params_as_header_error(self, tmp_path, c1):
        path = tmp_path / "bad.fbank"
        path.write_text(fbank2_text(f"kind=mpgtf n=1 len=1 fs=8000 c1={c1} c2=9.265", "1"))
        with pytest.raises(ValueError, match="bad FBANK2 header"):
            load_filterbank(path)

    @pytest.mark.parametrize("fields,message", [
        ("kind=stft fs=8000 c1=abc c2=-", "c1 and c2 must both be given or both be '-', got c1=abc c2=-"),
        ("kind=mpgtf fs=8000 c1=- c2=9.265", "c1 and c2 must both be given or both be '-', got c1=- c2=9.265"),
        ("kind=mpgtf fs=8000 c1=24.7", "c1 and c2 must both be given or both be '-', got c1=24.7 c2=-"),
        ("kind=custom fs=8000 fs=16000 c1=- c2=-", "field 'fs' given twice"),
    ], ids=["c1-only", "c2-only", "c2-missing", "fs-twice"])
    def test_rejects_a_half_erb_pair_or_a_repeated_field(self, tmp_path, fields, message):
        path = tmp_path / "bad.fbank"
        path.write_text(fbank2_text(f"n=1 len=1 {fields}", "1"))
        with pytest.raises(ValueError, match=f"^{re.escape('bad FBANK2 header: ' + message)}$"):
            load_filterbank(path)

    @pytest.mark.parametrize("fields,message", [
        ("kind=mpgtf c1=- c2=-", "kind mpgtf needs ERB parameters (c1, c2)"),
        ("kind=parampgtf", "kind parampgtf needs ERB parameters (c1, c2)"),
        ("kind=stft c1=24.7 c2=9.265", "kind stft takes no ERB parameters (c1, c2)"),
        ("kind=custom c1=24.7 c2=9.265", "kind custom takes no ERB parameters (c1, c2)"),
    ], ids=["mpgtf-without", "parampgtf-without", "stft-with", "custom-with"])
    def test_rejects_a_kind_and_erb_pair_that_disagree(self, tmp_path, fields, message):
        path = tmp_path / "bad.fbank"
        path.write_text(fbank2_text(f"n=1 len=1 fs=8000 {fields}", "1"))
        with pytest.raises(ValueError, match=f"^{re.escape('bad FBANK2 header: ' + message)}$"):
            load_filterbank(path)

    def test_stft_header_has_no_erb_params(self, tmp_path):
        bank = build_stft_bank(StftSpec(16, 8, StftMode.LINEAR), FS)
        path = tmp_path / "stft.fbank"
        save_filterbank(path, bank)
        assert "c1=- c2=-" in path.read_text().splitlines()[0]
        assert load_filterbank(path).erb_params is None

    def test_rejects_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.fbank"
        path.write_text(fbank2_text("kind=custom n=3 len=2 fs=8000 c1=- c2=-", "1 2\n3 4"))
        with pytest.raises(ValueError, match="dimension mismatch"):
            load_filterbank(path)

    def test_rejects_column_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.fbank"
        path.write_text(fbank2_text("kind=custom n=2 len=2 fs=8000 c1=- c2=-", "1 2\n3 4 5"))
        with pytest.raises(ValueError, match="dimension mismatch"):
            load_filterbank(path)

    @pytest.mark.parametrize(
        "dims,message",
        [
            ("n=1 len=10000000000000", "FBANK2 dimension mismatch on row 0"),  # would allocate 72.8 TiB
            ("n=1 len=-3", "bad FBANK2 header"),
            ("n=0 len=3", "bad FBANK2 header"),
            ("n=1 len=3 junk", "bad FBANK2 header token 'junk'"),
        ],
    )
    def test_rejects_bad_dimensions_before_allocating(self, tmp_path, dims, message):
        path = tmp_path / "bad.fbank"
        path.write_text(fbank2_text(f"kind=custom {dims} fs=8000 c1=- c2=-", "1 2 3"))
        with pytest.raises(ValueError, match=message):
            load_filterbank(path)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fbank"
        path.write_text(fbank2_text("kind=custom n=1 len=1 fs=8000 c1=- c2=-", "1").replace("FBANK2", "FBANKX"))
        with pytest.raises(ValueError, match="bad magic"):
            load_filterbank(path)

    @pytest.mark.parametrize("kind", ["wavelet", "gammatone", "learned"])
    def test_rejects_unknown_kind(self, tmp_path, kind):
        path = tmp_path / "bad.fbank"
        path.write_text(fbank2_text(f"kind={kind} n=1 len=1 fs=8000 c1=- c2=-", "1"))
        with pytest.raises(ValueError, match="header"):
            load_filterbank(path)

    def test_rejects_non_finite_taps(self, tmp_path):
        path = tmp_path / "bad.fbank"
        path.write_text(fbank2_text("kind=custom n=1 len=2 fs=8000 c1=- c2=-", "nan 1"))
        with pytest.raises(ValueError, match="non-finite"):
            load_filterbank(path)

    @pytest.mark.parametrize("bits", [0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
                                      0xFFF8000000000000, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF],
                             ids=["inf", "-inf", "quiet-nan", "negative-nan", "signalling-nan", "nan-all-ones"])
    def test_rejects_every_non_finite_bit_pattern(self, tmp_path, bits):
        path = tmp_path / "bad.fbank"
        tap = struct.pack("<Q", bits).hex()
        path.write_text(fbank2_text("kind=custom n=2 len=2 fs=8000 c1=- c2=-", f"1 2\n3 {tap}"))
        with pytest.raises(ValueError, match="^taps contain non-finite values$"):
            load_filterbank(path)

    @pytest.mark.parametrize("index,edit,message", [
        (1, lambda row: row[:-1], "dimension mismatch on row 1: expected 2 taps (32 hex digits), got 31 characters"),
        (1, lambda row: row + "00", "dimension mismatch on row 1: expected 2 taps (32 hex digits), got 34 characters"),
        (1, lambda row: row[:16], "dimension mismatch on row 1: expected 2 taps (32 hex digits), got 16 characters"),
        (1, lambda row: row[:20] + "g" + row[21:], "bad tap on row 1: '0000g00000000040'"),
        (1, lambda row: row[:20] + "  " + row[22:], "bad tap on row 1: '0000  0000000040'"),
        (1, lambda row: row[:20] + "é" + row[21:], "bad tap on row 1: '0000é00000000040'"),
        (2, lambda row: row[:-1] + "x", "bad tap on row 2: '000000000000184x'"),
    ], ids=["odd-width", "two-digits-more", "one-tap-short", "non-hex-digit", "inner-whitespace", "non-ascii",
            "last-tap-of-last-row"])
    def test_bad_row_is_named(self, tmp_path, index, edit, message):
        # The inner whitespace keeps the row's width and sits between digit
        # pairs, where `bytes.fromhex` skips it: the row decodes to 15 bytes.
        text = fbank2_text("kind=custom n=3 len=2 fs=8000 c1=- c2=-", "1 2\n3 2\n5 6")
        head, *rows = text.splitlines()
        rows[index] = edit(rows[index])
        path = tmp_path / "bad.fbank"
        path.write_text("\n".join([head, *rows]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape('FBANK2 ' + message)}$"):
            load_filterbank(path)

    def test_uppercase_hex_rows_load_the_same_taps(self, tmp_path):
        # The writer uses a-f; `bytes.fromhex` reads A-F as the same digits.
        bank = build_mpgtf(ErbParams(), 64, 16, FS)
        path = tmp_path / "bank.fbank"
        save_filterbank(path, bank)
        head, *rows = path.read_text().splitlines()
        upper = [row.upper() for row in rows]
        assert upper != rows
        path.write_text("\n".join([head, *upper]) + "\n")
        assert load_filterbank(path).taps.tobytes() == bank.taps.tobytes()

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.fbank"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_filterbank(path)

    def test_rejects_non_text_file(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF\x84\x00\x00\x00WAVEfmt \xcd\xff")
        with pytest.raises(ValueError, match="^not an FBANK2 file: not UTF-8 text$"):
            load_filterbank(path)


def decode_every_row(path):
    """The taps of an FBANK2 file, every row decoded on its own: the loader's model."""
    rows = [line for line in path.read_text().splitlines()[1:] if line.strip()]
    return np.array([np.frombuffer(bytes.fromhex(line), "<f8") for line in rows])


def edit_row(path, index, edit):
    """Rewrite tap row `index` of an FBANK2 file with `edit(row_text)`."""
    lines = path.read_text().splitlines()
    lines[1 + index] = edit(lines[1 + index])
    path.write_text("\n".join(lines) + "\n")


#: P of a [P; -P] bank with both zeros and subnormals of both signs.
SIGNED_ZEROS_AND_SUBNORMALS = np.array([[0.0, -0.0, 5e-324, -5e-324], [2.2250738585072014e-308, -1e-310, 1.0, -3.5]])


class TestSignSplitLoad:
    """A [P; -P] file loads to the taps of decoding every row on its own."""

    @pytest.mark.parametrize("bank", [
        build_mpgtf(ErbParams(), 512, 16, FS),
        build_parampgtf(ErbParams(), 512, 16, FS),
        build_stft_bank(StftSpec(), FS),
        Filterbank(np.vstack([SIGNED_ZEROS_AND_SUBNORMALS, -SIGNED_ZEROS_AND_SUBNORMALS]), FS),
    ], ids=["mpgtf", "parampgtf", "stft", "zeros-and-subnormals"])
    def test_taps_equal_the_full_parse(self, tmp_path, bank):
        path = tmp_path / "bank.fbank"
        save_filterbank(path, bank)
        taps = load_filterbank(path).taps
        assert taps.tobytes() == decode_every_row(path).tobytes() == bank.taps.tobytes()

    @pytest.mark.parametrize("edit", [lambda row: row[:-16], lambda row: row + struct.pack("<d", 0.5).hex()],
                             ids=["missing-value", "extra-value"])
    def test_bad_row_in_the_second_half_is_named(self, tmp_path, edit):
        path = tmp_path / "bank.fbank"
        save_filterbank(path, build_mpgtf(ErbParams(), 64, 16, FS))
        edit_row(path, 32 + 3, edit)
        with pytest.raises(ValueError, match="^FBANK2 dimension mismatch on row 35: expected 16 taps "
                                             r"\(256 hex digits\), got (240|272) characters$"):
            load_filterbank(path)


#: Float64 values a decimal format could lose: signed zeros, the smallest
#: subnormals, the smallest normal and the largest finite magnitudes.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def fbank_records(draw):
    """Banks of arbitrary finite taps up to 9 x 9, of every kind.

    Gammatone kinds carry an ERB pair, and the other kinds none.
    """
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    taps = draw(hnp.arrays(np.float64, shape, elements=st.one_of(st.sampled_from(_EDGE_FLOATS), _FINITE)))
    kind = draw(st.sampled_from(list(FilterbankKind)))
    gammatone = kind in (FilterbankKind.MPGTF, FilterbankKind.PARAMPGTF)
    sample_rate = draw(st.integers(200 if gammatone else 1, 2**53))  # a gammatone band needs fs/2 >= 100 Hz
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    erb_params = draw(st.tuples(positive, positive).filter(lambda c: c[0] * c[1] > 0.0).map(
        lambda c: ErbParams(*c))) if gammatone else None
    return Filterbank(taps, sample_rate, kind=kind, erb_params=erb_params)


@given(bank=fbank_records())
@example(bank=Filterbank([_EDGE_FLOATS, _EDGE_FLOATS[::-1]], FS))
@settings(max_examples=100, deadline=None)
def test_fbank1_round_trip_is_lossless(scratch_dir, bank):
    path, again = scratch_dir / "bank.fbank", scratch_dir / "again.fbank"
    save_filterbank(path, bank)
    back = load_filterbank(path)
    for field in dataclasses.fields(Filterbank):
        a, b = getattr(bank, field.name), getattr(back, field.name)
        if isinstance(a, np.ndarray):
            assert isinstance(b, np.ndarray) and a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name
    save_filterbank(again, back)
    assert again.read_bytes() == path.read_bytes()


class TestConditionNumber:
    @pytest.mark.parametrize("bank,rank,cond", [
        (build_mpgtf(ErbParams(), 512, 16, FS), 16, 6.857),
        (build_mpgtf(ErbParams(), 64, 16, FS), 16, 289.3),
        (build_mpgtf(ErbParams(), 512, 16, FS, order=3), 16, 161.6),
        (build_stft_bank(StftSpec(), FS), 16, 1.0),
        (build_stft_bank(StftSpec(window=StftWindow.HANN), FS), 15, 26.27),
        (build_mpgtf(ErbParams(), 512, 16, 11025), 16, 7.578),  # centres up to fs/2 at every rate
        (build_mpgtf(ErbParams(), 512, 16, 16000), 16, 9.812),
    ], ids=["mpgtf", "mpgtf-64", "mpgtf-order-3", "stft", "stft-hann", "mpgtf-11025hz", "mpgtf-16khz"])
    def test_rank_and_cond_of_built_banks(self, bank, rank, cond):
        a = analysis_matrix(bank)
        assert numerical_rank(a) == rank
        assert condition_number(a) == pytest.approx(cond, abs=1e-3 * cond)

    def test_cond_is_over_the_kept_singular_values(self):
        # sigma = 4, 2, 1e-12: the last is below PINV_RCOND * 4, so cond is 4 / 2.
        assert condition_number(np.diag([4.0, 2.0, 1e-12])) == 2.0
        assert condition_number(np.zeros((3, 2))) == math.inf


class TestFrequencyResponse:
    def test_impulse_filter_is_flat(self):
        taps = np.zeros((1, 16))
        taps[0, 0] = 1.0
        _, mags = frequency_response(Filterbank(taps, FS), 512)
        np.testing.assert_allclose(mags, 1.0, atol=1e-9)

    def test_shapes_and_bins(self):
        bank = build_mpgtf(ErbParams(), 64, 16, FS)
        bin_hz, mags = frequency_response(bank, 512)
        assert mags.shape == (64, 512)
        assert bin_hz[0] == 0.0
        assert bin_hz[1] == pytest.approx(FS / 512)

    def test_resolved_gammatone_peaks_within_one_bin_of_fc(self):
        # a 2 ms gammatone is envelope-dominated, so the sharp per-filter
        # peak claim needs a window long enough to resolve the passband
        from fblab import bandwidth_b, erb
        from gammatone_model import GammatoneSpec, gammatone_ir

        for fc in (500.0, 1000.0, 2000.0, 3000.0):
            b = bandwidth_b(erb(fc, ErbParams()), 2)
            ir = gammatone_ir(GammatoneSpec(2, 0.0, fc, b, 256, FS))
            bin_hz, mags = frequency_response(Filterbank(ir[None, :], FS), 512)
            assert abs(bin_hz[np.argmax(mags[0, :257])] - fc) <= FS / 512 + 1e-9

    def test_short_gammatone_peaks_near_fc_at_mid_centers(self):
        # at the production 16-tap length the peak still lands within a
        # couple of bins for centers with at least two cycles in the window
        bank = build_mpgtf(ErbParams(), 512, 16, FS)
        centers = center_frequency_grid(ErbParams(), FS)
        idx = int(np.searchsorted(centers, 2000.0))
        per = np.full(len(centers), 256 // len(centers))
        per[: 256 - per.sum()] += 1
        row = int(np.sum(per[:idx]))  # first phase variant of that center
        bin_hz, mags = frequency_response(bank, 512)
        assert abs(bin_hz[np.argmax(mags[row, :257])] - centers[idx]) <= 2 * FS / 512 + 1e-9

    def test_n_fft_too_small(self):
        bank = build_mpgtf(ErbParams(), 64, 16, FS)
        with pytest.raises(ValueError, match="n_fft"):
            frequency_response(bank, 8)
