"""Minimal RIFF/WAVE reader and writer: reads mono PCM16 and IEEE float32, writes float32.

Hand-rolled on `struct`: a malformed header, an unsupported codec or a
multichannel file raises a ValueError that names the fault.
"""

from __future__ import annotations

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

#: Samples `write_wav` converts and writes per chunk. Smaller chunks pay
#: for more `write` calls (8192 samples wrote 60 s about 1.4x slower);
#: larger ones lift a 60 s `fblab roundtrip` above its engine's peak.
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


def write_wav(path, w: Waveform) -> None:
    """Write a mono IEEE float32 WAV file: the samples cast to single precision.

    The payload is converted and written in chunks of `CHUNK_SAMPLES`
    samples, so no signal-long copy is made; the bytes are those of a
    whole-signal conversion.

    Raises ValueError, before the file is opened, for samples beyond the
    float32 range (they would be stored as inf, which `read_wav` rejects)
    and for a sample rate whose byte rate does not fit the header's 32-bit
    field.
    """
    samples = w.samples
    if not w.energy() < _FLOAT32_OVERFLOW**2:  # a smaller sum of squares bounds every |x|; else check exactly
        peak = max(float(samples.max()), -float(samples.min()))  # no n-long temporary
        if peak >= _FLOAT32_OVERFLOW:
            raise ValueError(f"sample magnitude {peak!r} is beyond the float32 range ({_FLOAT32_MAX!r})")

    byte_rate = w.sample_rate * 4
    if byte_rate > _U32_MAX:
        raise ValueError(f"sample rate {w.sample_rate} Hz is too high for a 32-bit WAV: "
                         f"its byte rate {byte_rate} does not fit 32 bits")
    nbytes = len(samples) * 4
    header = b"RIFF" + struct.pack("<I", 36 + nbytes) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, _IEEE_FLOAT, 1, w.sample_rate, byte_rate, 4, 32)
    header += b"data" + struct.pack("<I", nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        for lo in range(0, len(samples), CHUNK_SAMPLES):
            fh.write(samples[lo:lo + CHUNK_SAMPLES].astype("<f4"))
