import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblab import Waveform, read_wav, write_wav
from fblab import wavio


def sine(fs=8000, seconds=1.0, freq=440.0, amp=0.9):
    t = np.arange(int(fs * seconds)) / fs
    return Waveform(amp * np.sin(2 * np.pi * freq * t), fs)


def whole_signal_wav_bytes(w, encoding):
    """A WAV file converted in one piece: the model of the chunked float32 writer's
    bytes, and the writer of the PCM16 files the reader is tested on."""
    if encoding == "pcm16":
        audio_format, bits = 1, 16
        q = w.samples * 32767.0
        np.round(q, out=q)
        np.clip(q, -32768, 32767, out=q)
        payload = q.astype("<i2")
    else:
        audio_format, bits = 3, 32
        payload = w.samples.astype("<f4")
    header = b"RIFF" + struct.pack("<I", 36 + payload.nbytes) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, 1, w.sample_rate,
                                    w.sample_rate * bits // 8, bits // 8, bits)
    return header + b"data" + struct.pack("<I", payload.nbytes) + payload.tobytes()


def loud_noise(n, seed):
    """Noise of which about a third lies beyond +-1, with exact PCM16 half-LSB ties at the start."""
    samples = 1.2 * np.random.default_rng(seed).standard_normal(n)
    ties = np.array([0.5, -0.5, 1.5, -2.5, 32767.5, -32768.5]) / 32767.0
    samples[:min(n, len(ties))] = ties[:n]
    return Waveform(samples, 8000)


#: Signal lengths at and around the writer's chunk boundaries.
CHUNK_BOUNDARY_LENGTHS = sorted({0, 1, *(k * wavio.CHUNK_SAMPLES + d for k in (1, 2) for d in (-1, 0, 1))})


@pytest.mark.parametrize("n", CHUNK_BOUNDARY_LENGTHS, ids=lambda n: f"{n}-float32")
def test_chunked_bytes_equal_a_whole_signal_write(tmp_path, n):
    w = loud_noise(n, seed=n)
    path = tmp_path / "x.wav"
    write_wav(path, w)
    assert path.read_bytes() == whole_signal_wav_bytes(w, "float32")


@pytest.mark.parametrize("n", CHUNK_BOUNDARY_LENGTHS, ids=lambda n: f"{n}-pcm16")
def test_pcm16_file_reads_as_its_quantized_samples(tmp_path, n):
    # Clipped samples and half-LSB ties included: each int16 code reads as code / 32767, exactly.
    w = loud_noise(n, seed=n)
    path = tmp_path / "x.wav"
    data = whole_signal_wav_bytes(w, "pcm16")
    path.write_bytes(data)
    codes = np.frombuffer(data, dtype="<i2", offset=44).astype(np.float64)
    back = read_wav(path)
    assert back.sample_rate == 8000
    np.testing.assert_array_equal(back.samples, codes / 32767.0)
    assert np.all(np.abs(back.samples) <= 32768.0 / 32767.0)


@given(st.integers(1, 9), st.integers(0, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_small_chunks_write_the_whole_signal_bytes(tmp_path_factory, chunk, n, seed):
    w = loud_noise(n, seed)
    path = tmp_path_factory.mktemp("wav") / "x.wav"
    with mock.patch.object(wavio, "CHUNK_SAMPLES", chunk):
        write_wav(path, w)
    assert path.read_bytes() == whole_signal_wav_bytes(w, "float32")


def in_order_sum(signals):
    """The whole-signal model of the summing writer's input: the samples added in order, in float64."""
    total = signals[0].samples.copy()
    for w in signals[1:]:
        total += w.samples
    return Waveform(total, signals[0].sample_rate)


@given(st.integers(1, 4), st.integers(1, 9), st.integers(0, 2), st.integers(-1, 1), st.integers(0, 2**32 - 1),
       st.lists(st.floats(-40.0, 37.0), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_a_sum_writes_the_bytes_of_its_whole_signal_sum(tmp_path_factory, count, chunk, chunks, offset, seed,
                                                        log_scales):
    # Lengths at and around chunk multiples, and sources of unlike scales, so
    # the float64 sum rounds before its cast to float32 does. Scales stop at
    # 1e37, an order below the float32 range, so no draw is refused.
    n = max(chunks * chunk + offset, 0)
    rng = np.random.default_rng(seed)
    signals = [Waveform(rng.standard_normal(n) * 10.0**log_scales[c] / count, 8000) for c in range(count)]
    path = tmp_path_factory.mktemp("wav") / "sum.wav"
    with mock.patch.object(wavio, "CHUNK_SAMPLES", chunk):
        write_wav(path, *signals)
    assert path.read_bytes() == whole_signal_wav_bytes(in_order_sum(signals), "float32")


@pytest.mark.parametrize("count", [2, 3])
def test_a_sum_of_in_range_samples_is_written_though_its_bound_is_not(tmp_path, count):
    # The square roots of the sums of squares add to more than the float32
    # range, so the writer sums the samples exactly, and they cancel.
    signals = [Waveform(np.full(16, 1e38), 8000), Waveform(np.full(16, -0.75e38), 8000),
               Waveform(np.full(16, 0.5e38), 8000)][:count]
    path = tmp_path / "loud.wav"
    with mock.patch.object(wavio, "CHUNK_SAMPLES", 5):
        write_wav(path, *signals)
    assert path.read_bytes() == whole_signal_wav_bytes(in_order_sum(signals), "float32")


#: A sum beyond the float32 range in the second chunk of five samples, and
#: one past the float64 range in the third: the exact pass reads every
#: chunk, so the non-finite sum is named whichever chunk holds it.
OUT_OF_RANGE_SUMS = {
    "float32": ([[0.5] * 5 + [2e38] * 5, [0.5] * 5 + [2e38] * 5], r"sample magnitude 4e\+38 is beyond"),
    "float32-each-in-range": ([[2e38], [2e38]], r"sample magnitude 4e\+38 is beyond"),
    "float32-of-three": ([[1.0] * 6, [-3e38] * 6, [-1e38] * 6], r"sample magnitude 4e\+38 is beyond"),
    "float64": ([[0.0] * 10 + [1e308] * 3, [0.0] * 10 + [1e308] * 3], "waveform contains non-finite samples"),
    "float64-after-float32": ([[3e38] * 5 + [0.0] * 5 + [1.5e308], [3e38] * 5 + [0.0] * 5 + [1.5e308]],
                              "waveform contains non-finite samples"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_SUMS))
def test_a_sum_out_of_range_is_refused_before_the_file_opens(tmp_path, case):
    rows, message = OUT_OF_RANGE_SUMS[case]
    signals = [Waveform(np.array(row), 8000) for row in rows]
    path = tmp_path / "loud.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(wavio, "CHUNK_SAMPLES", 5):
            with pytest.raises(ValueError, match=f"^{message}"):
                write_wav(path, *signals)
    assert not path.exists()


def test_a_sum_beyond_float32_names_its_whole_signal_peak(tmp_path):
    # The text of a whole-signal write of the float64 sum, whose peak lies in a later chunk.
    rng = np.random.default_rng(5)
    signals = [Waveform(3e38 * rng.standard_normal(40), 8000) for _ in range(3)]
    total = in_order_sum(signals).samples
    peak = max(float(total.max()), -float(total.min()))
    assert peak >= FLOAT32_OVERFLOW and np.argmax(np.abs(total)) >= 5
    with mock.patch.object(wavio, "CHUNK_SAMPLES", 5):
        with pytest.raises(ValueError) as caught:
            write_wav(tmp_path / "loud.wav", *signals)
    assert str(caught.value) == (f"sample magnitude {peak!r} is beyond the float32 range "
                                 f"({float(np.finfo(np.float32).max)!r})")
    assert not (tmp_path / "loud.wav").exists()


@pytest.mark.parametrize(
    "signals, message",
    [
        ([], "^need at least 1 waveform, got 0$"),
        ([Waveform(np.zeros(4), 8000), Waveform(np.zeros(5), 8000)],
         r"^waveforms must have equal lengths, got \[4, 5\]$"),
        ([Waveform(np.zeros(4), 8000), Waveform(np.zeros(4), 8000), Waveform(np.zeros(4), 16000)],
         r"^waveforms must share one sample rate, got \[8000, 8000, 16000\]$"),
    ],
    ids=["none", "lengths", "rates"],
)
def test_unlike_signals_are_refused_before_the_file_opens(tmp_path, signals, message):
    path = tmp_path / "x.wav"
    with pytest.raises(ValueError, match=message):
        write_wav(path, *signals)
    assert not path.exists()


@pytest.mark.parametrize("count", [1, 2, 3])
def test_a_sum_is_written_in_chunk_buffers(tmp_path, count):
    # One float32 chunk, plus a float64 chunk for three or more signals, and
    # numpy's 8192-sample float64 cast buffer: no signal-long array.
    signals = [loud_noise(4 * wavio.CHUNK_SAMPLES + 5, seed) for seed in range(count)]
    path = tmp_path / "sum.wav"
    write_wav(path, *signals)  # numpy sets up its ufunc state on a first call
    tracemalloc.start()
    try:
        write_wav(path, *signals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * wavio.CHUNK_SAMPLES + (8 * wavio.CHUNK_SAMPLES if count >= 3 else 0) + 96 * 1024


def test_pcm16_roundtrip_within_one_lsb(tmp_path):
    w = sine()
    path = tmp_path / "tone.wav"
    path.write_bytes(whole_signal_wav_bytes(w, "pcm16"))
    back = read_wav(path)
    assert back.sample_rate == 8000
    assert len(back) == len(w)
    assert np.max(np.abs(back.samples - w.samples)) <= 2.0 ** -15


def test_float32_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(1000).astype(np.float32).astype(np.float64)
    w = Waveform(samples, 8000)
    path = tmp_path / "f32.wav"
    write_wav(path, w)
    back = read_wav(path)
    np.testing.assert_array_equal(back.samples, samples)


def test_pcm16_clipping_is_bounded(tmp_path):
    w = Waveform(np.array([1.0, -1.0, 0.0]), 8000)
    path = tmp_path / "edge.wav"
    path.write_bytes(whole_signal_wav_bytes(w, "pcm16"))
    back = read_wav(path)
    assert np.max(np.abs(back.samples - w.samples)) <= 2.0 ** -15


def test_empty_file_is_malformed(tmp_path):
    path = tmp_path / "empty.wav"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="^malformed header: not a RIFF/WAVE file$"):
        read_wav(path)


def test_bad_magic_is_malformed(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFX" + b"\x00" * 40)
    with pytest.raises(ValueError, match="^malformed header: not a RIFF/WAVE file$"):
        read_wav(path)


def test_missing_data_chunk_is_malformed(tmp_path):
    path = tmp_path / "nodata.wav"
    body = b"fmt " + struct.pack("<I", 16) + struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with pytest.raises(ValueError, match="^malformed header: missing fmt or data chunk$"):
        read_wav(path)


@pytest.mark.parametrize("end,chunk", [(30, "fmt"), (-2, "data")])
def test_truncated_chunk_is_malformed(tmp_path, end, chunk):
    # byte 30 ends the file 10 bytes into the 16-byte fmt body; -2 cuts the data body short
    path = tmp_path / "short.wav"
    path.write_bytes(whole_signal_wav_bytes(sine(seconds=0.01), "float32")[:end])
    with pytest.raises(ValueError, match=f"^malformed header: truncated {chunk} chunk$"):
        read_wav(path)


def test_multichannel_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    payload = struct.pack("<4h", 0, 0, 0, 0)
    body = b"fmt " + struct.pack("<I", 16) + struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4, 16)
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with pytest.raises(ValueError, match="^multichannel unsupported: 2 channels$"):
        read_wav(path)


def test_unsupported_codec_rejected(tmp_path):
    path = tmp_path / "alaw.wav"
    payload = b"\x00\x00"
    body = b"fmt " + struct.pack("<I", 16) + struct.pack("<HHIIHH", 6, 1, 8000, 8000, 1, 8)
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with pytest.raises(ValueError, match="^unsupported codec: format tag 6, 8-bit$"):
        read_wav(path)


def test_signalling_nan_is_a_typed_error_without_warning(tmp_path):
    path = tmp_path / "snan.wav"
    payload = struct.pack("<3I", 0, 0x7F800001, 0)  # float32 0, signalling NaN, 0
    body = b"fmt " + struct.pack("<I", 16) + struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 32)
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="waveform contains non-finite samples"):
            read_wav(path)


def test_unknown_chunks_are_skipped(tmp_path):
    path = tmp_path / "listed.wav"
    payload = struct.pack("<2h", 1000, -1000)
    body = b"LIST" + struct.pack("<I", 4) + b"INFO"
    body += b"fmt " + struct.pack("<I", 16) + struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    w = read_wav(path)
    assert len(w) == 2


#: The smallest float64 magnitude that the cast to float32 rounds to inf.
FLOAT32_OVERFLOW = 2.0**128 - 2.0**103


def test_float32_extremes_roundtrip_exactly(tmp_path):
    top = float(np.finfo(np.float32).max)
    below = np.nextafter(FLOAT32_OVERFLOW, 0.0)  # rounds to the float32 maximum
    path = tmp_path / "edge.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_wav(path, Waveform(np.array([top, -top, 0.0, below, -below]), 8000))
    np.testing.assert_array_equal(read_wav(path).samples, [top, -top, 0.0, top, -top])


@pytest.mark.parametrize("peak", [3.5e38, -1e300, FLOAT32_OVERFLOW, -FLOAT32_OVERFLOW])
def test_float32_overflow_is_refused_before_the_file_opens(tmp_path, peak):
    path = tmp_path / "loud.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"beyond the float32 range"):
            write_wav(path, Waveform(np.array([0.5, peak, -0.5]), 8000))
    assert not path.exists()


def test_float32_samples_whose_sum_of_squares_overflows_are_written(tmp_path):
    # 16 * (1e38)^2 exceeds the square of the overflow boundary, so the
    # writer checks the samples one by one, and none is out of range.
    path = tmp_path / "loud.wav"
    write_wav(path, Waveform(np.full(16, 1e38), 8000))
    np.testing.assert_array_equal(read_wav(path).samples, np.full(16, np.float32(1e38), dtype=np.float64))


@pytest.mark.parametrize("rate", [2**30, 4_000_000_000], ids=lambda rate: f"float32-{rate}")
def test_byte_rate_beyond_32_bits_is_refused_before_the_file_opens(tmp_path, rate):
    path = tmp_path / "fast.wav"
    with pytest.raises(ValueError, match=r"byte rate \d+ does not fit 32 bits"):
        write_wav(path, Waveform(np.zeros(4), rate))
    assert not path.exists()


@pytest.mark.parametrize("rate", [2**30 - 1], ids=lambda rate: f"float32-{rate}")
def test_highest_byte_rate_that_fits_is_written(tmp_path, rate):
    path = tmp_path / "fast.wav"
    write_wav(path, Waveform(np.zeros(4), rate))
    assert read_wav(path).sample_rate == rate
    assert struct.unpack_from("<I", path.read_bytes(), 28) == (rate * 4,)


def test_highest_pcm16_byte_rate_is_read(tmp_path):
    # A PCM16 header's 32-bit byte rate holds 2 * (2**31 - 1); the rate field is read whole.
    rate = 2**31 - 1
    path = tmp_path / "fast.wav"
    path.write_bytes(whole_signal_wav_bytes(Waveform(np.array([0.5, -0.5]), rate), "pcm16"))
    back = read_wav(path)
    assert back.sample_rate == rate
    np.testing.assert_array_equal(back.samples, [16384 / 32767.0, -16384 / 32767.0])


@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
def test_read_samples_are_read_only(tmp_path, encoding):
    path = tmp_path / "tone.wav"
    path.write_bytes(whole_signal_wav_bytes(sine(seconds=0.1), encoding))
    samples = read_wav(path).samples
    assert not samples.flags.writeable
    assert samples.base is None or not samples.base.flags.writeable
    with pytest.raises(ValueError):
        samples[0] = 0.0


@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
def test_read_peak_memory_is_file_plus_one_signal_length(tmp_path, encoding):
    # The file's bytes plus the float64 samples; no copy of the data chunk.
    w = sine(seconds=10.0)
    path = tmp_path / "long.wav"
    path.write_bytes(whole_signal_wav_bytes(w, encoding))
    tracemalloc.start()
    try:
        read_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size + 1.2 * len(w) * 8
