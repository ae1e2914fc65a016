"""Minimal RIFF/WAVE reader and writer: reads mono PCM16 and IEEE float32, writes float32.

Hand-rolled on `struct`: a malformed header, an unsupported codec or a
multichannel file raises a ValueError that names the fault.

The writer takes one waveform or several of one length and rate, and
writes their sum: `write_wav(path, *item.sources)` writes a mixture
without building it. It sums, converts and writes one chunk of
`CHUNK_SAMPLES` samples at a time, so it holds one float32 chunk (and
one float64 chunk for three or more signals) however long they are.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .dsp import Waveform


_PCM = 1
_IEEE_FLOAT = 3

_INT16_FULL_SCALE = 32767.0
_FLOAT32_MAX = float(np.finfo(np.float32).max)
#: The smallest float64 magnitude the cast to float32 rounds to inf.
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103
_U32_MAX = 2**32 - 1

#: Samples `write_wav` sums, converts and writes per chunk: its buffers
#: are one float32 chunk (256 kB) and, for a sum of three or more
#: signals, one float64 chunk. Smaller chunks pay for more `write` calls
#: (8192 samples wrote 60 s about 1.4x slower); larger ones lift a 60 s
#: `fblab roundtrip` above its engine's peak.
CHUNK_SAMPLES = 65536


def read_wav(path) -> Waveform:
    """Read a mono PCM16 or float32 WAV file.

    PCM16 samples are scaled to [-1, 1] by 1/32767; float32 samples are
    taken as-is (widened to float64). Raises ValueError for a malformed
    header, another codec or more than one channel, and (from `Waveform`)
    for a non-finite sample.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    view = memoryview(data)  # slices of a memoryview share the file's bytes
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("malformed header: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if chunk_size < 16 or len(body) < 16:
                raise ValueError("malformed header: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise ValueError("malformed header: truncated data chunk")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise ValueError("malformed header: missing fmt or data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels != 1:
        raise ValueError(f"multichannel unsupported: {channels} channels")
    if audio_format == _PCM and bits == 16:
        raw = np.frombuffer(payload[:len(payload) - len(payload) % 2], dtype="<i2")
        samples = raw.astype(np.float64)
        samples /= _INT16_FULL_SCALE
    elif audio_format == _IEEE_FLOAT and bits == 32:
        raw = np.frombuffer(payload[:len(payload) - len(payload) % 4], dtype="<f4")
        with np.errstate(invalid="ignore"):  # a signalling NaN; `Waveform` rejects it below
            samples = raw.astype(np.float64)
    else:
        raise ValueError(f"unsupported codec: format tag {audio_format}, {bits}-bit")
    return Waveform._adopt(samples, int(sample_rate))


def _sum_into(parts, out: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Add the equal-length float64 arrays `parts` in order, write the sum to `out` and return it.

    Only the last add rounds to `out`'s dtype: two parts go straight into
    `out`, and three or more add all but the last in the float64 `acc`
    first, which may be `out` itself.
    """
    if len(parts) == 1:
        np.copyto(out, parts[0], casting="same_kind")
    elif len(parts) == 2:
        np.add(parts[0], parts[1], out=out, casting="same_kind")
    else:
        np.add(parts[0], parts[1], out=acc)
        for part in parts[2:-1]:
            acc += part
        np.add(acc, parts[-1], out=out, casting="same_kind")
    return out


def _check_float32_range(signals) -> None:
    """Raise ValueError unless every sample of the sum of `signals` casts to a finite float32.

    One signal passes when its sum of squares is below the square of the
    overflow boundary, which bounds every |x|; a sum passes when the
    square roots of its signals' sums of squares, added in order, stay
    below the boundary itself, which bounds every |sum| (triangle
    inequality, and rounding is monotone). Otherwise one exact pass sums
    the signals a chunk at a time in float64, as their whole-signal sum
    would be rounded.
    """
    if len(signals) == 1:
        if signals[0].energy() < _FLOAT32_OVERFLOW**2:
            return
    elif sum(math.sqrt(w.energy()) for w in signals) < _FLOAT32_OVERFLOW:
        return
    n = len(signals[0])
    buf = np.empty(min(n, CHUNK_SAMPLES))
    peak = 0.0
    with np.errstate(over="ignore"):  # a sum of finite samples overflows only to +-inf, and reads so
        for lo in range(0, n, CHUNK_SAMPLES):
            chunk = buf[:min(CHUNK_SAMPLES, n - lo)]
            _sum_into([w.samples[lo:lo + len(chunk)] for w in signals], chunk, chunk)
            peak = max(peak, float(chunk.max()), -float(chunk.min()))  # no chunk-long temporary
    if peak == math.inf:
        raise ValueError("waveform contains non-finite samples")
    if peak >= _FLOAT32_OVERFLOW:
        raise ValueError(f"sample magnitude {peak!r} is beyond the float32 range ({_FLOAT32_MAX!r})")


def write_wav(path, *signals: Waveform) -> None:
    """Write a mono IEEE float32 WAV file of the sum of `signals`, cast to single precision.

    The signals must share one length and one sample rate; they are added
    in order in float64, like `w1.samples + w2.samples + ...`, and only
    the sum is rounded to float32. One signal is written as it is. The
    payload is summed, converted and written in chunks of `CHUNK_SAMPLES`
    samples, so no signal-long array is made: the bytes are those of
    `Waveform(sum).samples.astype("<f4")`, and the writer holds one
    float32 chunk, plus one float64 chunk for three or more signals.

    Raises ValueError, before the file is opened, for no signals, for
    unequal lengths or rates, for a sum that overflows float64 (the
    `Waveform` refusal of non-finite samples), for samples beyond the
    float32 range (they would be stored as inf, which `read_wav` rejects)
    and for a sample rate whose byte rate does not fit the header's 32-bit
    field.
    """
    if not signals:
        raise ValueError("write_wav needs at least one waveform")
    if any(len(w) != len(signals[0]) for w in signals):
        raise ValueError(f"waveforms to sum must have equal lengths, got {[len(w) for w in signals]}")
    sample_rate = signals[0].sample_rate
    if any(w.sample_rate != sample_rate for w in signals):
        raise ValueError(f"waveforms to sum must share one sample rate, got {[w.sample_rate for w in signals]}")
    _check_float32_range(signals)

    byte_rate = sample_rate * 4
    if byte_rate > _U32_MAX:
        raise ValueError(f"sample rate {sample_rate} Hz is too high for a 32-bit WAV: "
                         f"its byte rate {byte_rate} does not fit 32 bits")
    n = len(signals[0])
    nbytes = n * 4
    header = b"RIFF" + struct.pack("<I", 36 + nbytes) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, _IEEE_FLOAT, 1, sample_rate, byte_rate, 4, 32)
    header += b"data" + struct.pack("<I", nbytes)
    f32 = np.empty(min(n, CHUNK_SAMPLES), dtype="<f4")
    acc = np.empty(len(f32) if len(signals) >= 3 else 0)  # two signals add straight into `f32`
    with open(path, "wb") as fh:
        fh.write(header)
        for lo in range(0, n, CHUNK_SAMPLES):
            m = min(CHUNK_SAMPLES, n - lo)
            fh.write(_sum_into([w.samples[lo:lo + m] for w in signals], f32[:m], acc[:m]))
