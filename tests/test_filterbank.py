import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fblab import (
    ErbParams,
    Filterbank,
    FilterbankKind,
    build_mpgtf,
    build_parampgtf,
    build_stft_bank,
    frequency_response,
    load_filterbank,
    save_filterbank,
    StftMode,
    StftSpec,
)

FS = 8000


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    """One directory that the hypothesis tests below rewrite their files in."""
    return tmp_path_factory.mktemp("fbank1")


class TestFilterbankType:
    def test_rejects_non_finite_taps(self):
        taps = np.ones((2, 4))
        taps[1, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            Filterbank(taps, FS)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Filterbank(np.zeros((0, 4)), FS)

    def test_rejects_non_increasing_centers(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Filterbank(np.ones((2, 4)), FS, center_freqs=np.array([200.0, 150.0]))

    @pytest.mark.parametrize("kind", list(FilterbankKind))
    @pytest.mark.parametrize("centers", [[1.0, np.inf], [-np.inf, 5.0], [np.nan]], ids=["inf", "-inf", "nan"])
    def test_rejects_non_finite_centers(self, kind, centers):
        with pytest.raises(ValueError, match="finite"):
            Filterbank(np.ones((2, 4)), FS, kind=kind, center_freqs=np.array(centers))

    @pytest.mark.parametrize("kind", [FilterbankKind.MPGTF, FilterbankKind.STFT])
    def test_rejects_empty_centers(self, kind):
        with pytest.raises(ValueError, match="non-empty"):
            Filterbank(np.ones((2, 4)), FS, kind=kind, center_freqs=np.array([]))

    def test_gammatone_centers_must_stay_in_band(self):
        with pytest.raises(ValueError, match=r"\[100, 4000\]"):
            Filterbank(np.ones((2, 4)), FS, kind=FilterbankKind.MPGTF, center_freqs=np.array([50.0, 200.0]))

    def test_stft_centers_may_leave_band(self):
        bank = Filterbank(np.ones((2, 4)), FS, kind=FilterbankKind.STFT, center_freqs=np.array([15.0, 31.0]))
        assert bank.center_freqs[0] == 15.0

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
        np.testing.assert_array_equal(back.taps, bank.taps)  # 17 sig digits round-trip exactly

        # A Filterbank is exactly its FBANK1 record: every field survives,
        # for each kind, with and without centres and ERB parameters.
        names = [f.name for f in dataclasses.fields(Filterbank)]
        assert names == ["taps", "sample_rate", "kind", "center_freqs", "erb_params"]
        banks = [
            bank,
            build_parampgtf(ErbParams(30.0, 8.5), 128, 16, FS),
            build_stft_bank(StftSpec(), FS),  # overcomplete
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
        centers = ",".join(f"{v:.17g}" for v in bank.center_freqs)
        assert header == (
            "FBANK1 kind=mpgtf n=64 len=16 fs=8000 c1=24.699999999999999 c2=9.2650000000000006 "
            f"centers={centers}"
        )
        assert header.split("centers=")[1].startswith("100,137.47957310698982,")

    @pytest.mark.parametrize("builder", [build_mpgtf, build_parampgtf])
    def test_roundtrip_preserves_center_freqs(self, tmp_path, builder):
        bank = builder(ErbParams(30.0, 8.5), 128, 16, FS)
        path = tmp_path / "bank.fbank"
        save_filterbank(path, bank)
        back = load_filterbank(path)
        assert back.center_freqs.tobytes() == bank.center_freqs.tobytes()

    def test_header_without_centers_still_loads(self, tmp_path):
        path = tmp_path / "old.fbank"
        path.write_text("FBANK1 kind=mpgtf n=2 len=2 fs=8000 c1=24.7 c2=9.265\n1 2\n3 4\n")
        bank = load_filterbank(path)
        assert bank.center_freqs is None
        np.testing.assert_array_equal(bank.taps, [[1.0, 2.0], [3.0, 4.0]])

    def test_bank_without_centers_writes_dash(self, tmp_path):
        path = tmp_path / "custom.fbank"
        save_filterbank(path, Filterbank(np.ones((2, 4)), FS))
        assert path.read_text().splitlines()[0].endswith(" centers=-")
        assert load_filterbank(path).center_freqs is None

    @pytest.mark.parametrize("centers", ["", "100,abc", "100,nan", "100,inf"])
    def test_rejects_bad_centers(self, tmp_path, centers):
        path = tmp_path / "bad.fbank"
        path.write_text(f"FBANK1 kind=custom n=1 len=1 fs=8000 c1=- c2=- centers={centers}\n1\n")
        with pytest.raises(ValueError):
            load_filterbank(path)

    @pytest.mark.parametrize("c1", ["abc", "-3"])
    def test_rejects_bad_erb_params_as_header_error(self, tmp_path, c1):
        path = tmp_path / "bad.fbank"
        path.write_text(f"FBANK1 kind=mpgtf n=1 len=1 fs=8000 c1={c1} c2=9.265 centers=-\n1\n")
        with pytest.raises(ValueError, match="bad FBANK1 header"):
            load_filterbank(path)

    @pytest.mark.parametrize("fields,message", [
        ("kind=stft fs=8000 c1=abc c2=-", "c1 and c2 must both be given or both be '-', got c1=abc c2=-"),
        ("kind=mpgtf fs=8000 c1=- c2=9.265", "c1 and c2 must both be given or both be '-', got c1=- c2=9.265"),
        ("kind=mpgtf fs=8000 c1=24.7", "c1 and c2 must both be given or both be '-', got c1=24.7 c2=-"),
        ("kind=custom fs=8000 fs=16000 c1=- c2=-", "field 'fs' given twice"),
    ], ids=["c1-only", "c2-only", "c2-missing", "fs-twice"])
    def test_rejects_a_half_erb_pair_or_a_repeated_field(self, tmp_path, fields, message):
        path = tmp_path / "bad.fbank"
        path.write_text(f"FBANK1 n=1 len=1 {fields} centers=-\n1\n")
        with pytest.raises(ValueError, match=f"^{re.escape('bad FBANK1 header: ' + message)}$"):
            load_filterbank(path)

    def test_stft_header_has_no_erb_params(self, tmp_path):
        bank = build_stft_bank(StftSpec(16, 8, StftMode.LINEAR), FS)
        path = tmp_path / "stft.fbank"
        save_filterbank(path, bank)
        assert "c1=- c2=-" in path.read_text().splitlines()[0]
        assert load_filterbank(path).erb_params is None

    def test_rejects_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.fbank"
        path.write_text("FBANK1 kind=custom n=3 len=2 fs=8000 c1=- c2=-\n1 2\n3 4\n")
        with pytest.raises(ValueError, match="dimension mismatch"):
            load_filterbank(path)

    def test_rejects_column_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.fbank"
        path.write_text("FBANK1 kind=custom n=2 len=2 fs=8000 c1=- c2=-\n1 2\n3 4 5\n")
        with pytest.raises(ValueError, match="dimension mismatch"):
            load_filterbank(path)

    @pytest.mark.parametrize(
        "dims,message",
        [
            ("n=1 len=10000000000000", "FBANK1 dimension mismatch on row 0"),  # would allocate 72.8 TiB
            ("n=1 len=-3", "bad FBANK1 header"),
            ("n=0 len=3", "bad FBANK1 header"),
            ("n=1 len=3 junk", "bad FBANK1 header token 'junk'"),
        ],
    )
    def test_rejects_bad_dimensions_before_allocating(self, tmp_path, dims, message):
        path = tmp_path / "bad.fbank"
        path.write_text(f"FBANK1 kind=custom {dims} fs=8000 c1=- c2=- centers=-\n1 2 3\n")
        with pytest.raises(ValueError, match=message):
            load_filterbank(path)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fbank"
        path.write_text("FBANKX kind=custom n=1 len=1 fs=8000 c1=- c2=-\n1\n")
        with pytest.raises(ValueError, match="bad magic"):
            load_filterbank(path)

    @pytest.mark.parametrize("kind", ["wavelet", "gammatone", "learned"])
    def test_rejects_unknown_kind(self, tmp_path, kind):
        path = tmp_path / "bad.fbank"
        path.write_text(f"FBANK1 kind={kind} n=1 len=1 fs=8000 c1=- c2=-\n1\n")
        with pytest.raises(ValueError, match="header"):
            load_filterbank(path)

    def test_rejects_non_finite_taps(self, tmp_path):
        path = tmp_path / "bad.fbank"
        path.write_text("FBANK1 kind=custom n=1 len=2 fs=8000 c1=- c2=-\nnan 1\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_filterbank(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.fbank"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_filterbank(path)

    def test_rejects_non_text_file(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF\x84\x00\x00\x00WAVEfmt \xcd\xff")
        with pytest.raises(ValueError, match="^not an FBANK1 file: not UTF-8 text$"):
            load_filterbank(path)


def parse_every_row(path):
    """The taps of an FBANK1 file, every row parsed on its own: the loader's model."""
    rows = [line for line in path.read_text().splitlines()[1:] if line.strip()]
    return np.array([[float(v) for v in line.split()] for line in rows])


def edit_row(path, index, edit):
    """Rewrite tap row `index` of an FBANK1 file with `edit(row_text)`."""
    lines = path.read_text().splitlines()
    lines[1 + index] = edit(lines[1 + index])
    path.write_text("\n".join(lines) + "\n")


#: P of a [P; -P] bank with both zeros and subnormals of both signs.
SIGNED_ZEROS_AND_SUBNORMALS = np.array([[0.0, -0.0, 5e-324, -5e-324], [2.2250738585072014e-308, -1e-310, 1.0, -3.5]])


class TestSignSplitLoad:
    """A [P; -P] file loads to the taps of parsing every row, however its rows are spaced."""

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
        assert taps.tobytes() == parse_every_row(path).tobytes() == bank.taps.tobytes()

    def test_hand_spaced_second_half_loads_the_same_taps(self, tmp_path):
        bank = build_mpgtf(ErbParams(), 64, 16, FS)
        path = tmp_path / "bank.fbank"
        save_filterbank(path, bank)
        edit_row(path, 32 + 1, lambda row: "  " + row.replace(" ", "   ") + " ")
        taps = load_filterbank(path).taps
        assert taps.tobytes() == parse_every_row(path).tobytes() == bank.taps.tobytes()

    @pytest.mark.parametrize("edit", [lambda row: row.rsplit(" ", 1)[0], lambda row: row + " 0.5"],
                             ids=["missing-value", "extra-value"])
    def test_bad_row_in_the_second_half_is_named(self, tmp_path, edit):
        path = tmp_path / "bank.fbank"
        save_filterbank(path, build_mpgtf(ErbParams(), 64, 16, FS))
        edit_row(path, 32 + 3, edit)
        with pytest.raises(ValueError, match="^FBANK1 dimension mismatch on row 35: expected 16 taps, got 1[57]$"):
            load_filterbank(path)

    @pytest.mark.parametrize("rows,expected", [
        ("1\t2\n-1\t2", [[1.0, 2.0], [-1.0, 2.0]]),
        ("1  2\n-1 - -2", "FBANK1 dimension mismatch on row 1: expected 2 taps, got 3"),
        ("+1 2\n-+1 -2", "^FBANK1 bad tap on row 1: '-\\+1'$"),
        ("1 +2\n-1 -+2", "^FBANK1 bad tap on row 1: '-\\+2'$"),
        (" 1 2\n- -1 -2", "FBANK1 dimension mismatch on row 1: expected 2 taps, got 3"),
        ("1 2 \n-1 -2 -", "FBANK1 dimension mismatch on row 1: expected 2 taps, got 3"),
    ], ids=["tab", "double-space", "leading-plus-sign", "plus-sign", "leading-space", "trailing-space"])
    def test_second_half_that_is_only_the_text_negation_of_an_irregular_first_half(self, tmp_path, rows, expected):
        # Each second row puts a "-" before every value of an irregularly
        # spaced first row, so it reads as a negation on the text but not on
        # the values: it must load, or fail, as parsing every row does.
        path = tmp_path / "odd.fbank"
        path.write_text(f"FBANK1 kind=custom n=2 len=2 fs=8000 c1=- c2=- centers=-\n{rows}\n")
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                load_filterbank(path)
        else:
            assert load_filterbank(path).taps.tolist() == expected


#: Float64 values a text format can lose: signed zeros, the smallest
#: subnormals, the smallest normal and the largest finite magnitudes.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def fbank1_records(draw):
    """Banks of arbitrary finite taps up to 9 x 9, of every kind, with and without centres and ERB parameters."""
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    taps = draw(hnp.arrays(np.float64, shape, elements=st.one_of(st.sampled_from(_EDGE_FLOATS), _FINITE)))
    kind = draw(st.sampled_from(list(FilterbankKind)))
    in_band = st.floats(100.0, 4000.0) if kind in (FilterbankKind.MPGTF, FilterbankKind.PARAMPGTF) else _FINITE
    centers = draw(st.none() | st.lists(in_band, min_size=1, max_size=9, unique=True).map(sorted))
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    erb_params = draw(st.none() | st.tuples(positive, positive).filter(lambda c: c[0] * c[1] > 0.0).map(
        lambda c: ErbParams(*c)))
    sample_rate = draw(st.integers(1, 2**53))
    return Filterbank(taps, sample_rate, kind=kind, center_freqs=centers, erb_params=erb_params)


@given(bank=fbank1_records())
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
        centers = bank.center_freqs
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
