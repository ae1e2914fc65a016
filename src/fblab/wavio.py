"""Minimal RIFF/WAVE reader and writer for mono PCM16 and IEEE float32 files.

Hand-rolled on `struct` so malformed headers, unsupported codecs, and
multichannel files raise distinct, stable error types.
"""

from __future__ import annotations

import struct

import numpy as np

from .dsp import Waveform


class WavError(Exception):
    """Base class for WAV I/O failures."""


class MalformedWavError(WavError):
    """File is not a well-formed RIFF/WAVE stream."""


class UnsupportedCodecError(WavError):
    """Format tag / bit depth combination we do not decode."""


class MultichannelError(WavError):
    """More than one channel; only mono is supported."""


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
    taken as-is (widened to float64).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    view = memoryview(data)  # slices of a memoryview share the file's bytes
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedWavError("malformed header: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if chunk_size < 16 or len(body) < 16:
                raise MalformedWavError("malformed header: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise MalformedWavError("malformed header: truncated data chunk")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise MalformedWavError("malformed header: missing fmt or data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels != 1:
        raise MultichannelError(f"multichannel unsupported: {channels} channels")
    if audio_format == _PCM and bits == 16:
        raw = np.frombuffer(payload[:len(payload) - len(payload) % 2], dtype="<i2")
        samples = raw.astype(np.float64)
        samples /= _INT16_FULL_SCALE
    elif audio_format == _IEEE_FLOAT and bits == 32:
        raw = np.frombuffer(payload[:len(payload) - len(payload) % 4], dtype="<f4")
        with np.errstate(invalid="ignore"):  # a signalling NaN; `Waveform` rejects it below
            samples = raw.astype(np.float64)
    else:
        raise UnsupportedCodecError(f"unsupported codec: format tag {audio_format}, {bits}-bit")
    return Waveform._adopt(samples, int(sample_rate))


def write_wav(path, w: Waveform, encoding: str = "pcm16") -> None:
    """Write a mono WAV file.

    encoding: "pcm16" quantizes by round(x * 32767) with clipping to the
    int16 range; "float32" stores samples cast to single precision.

    The payload is converted and written in chunks of `CHUNK_SAMPLES`
    samples, so no signal-long copy is made; the bytes are those of a
    whole-signal conversion.

    Raises ValueError, before the file is opened, for an unknown encoding,
    for float32 samples beyond the float32 range (they would be stored as
    inf, which `read_wav` rejects) and for a sample rate whose byte rate
    does not fit the header's 32-bit field.
    """
    samples = w.samples
    if encoding == "pcm16":
        audio_format, bits = _PCM, 16
    elif encoding == "float32":
        audio_format, bits = _IEEE_FLOAT, 32
        if not w.energy() < _FLOAT32_OVERFLOW**2:  # a smaller sum of squares bounds every |x|; else check exactly
            peak = max(float(samples.max()), -float(samples.min()))  # no n-long temporary
            if peak >= _FLOAT32_OVERFLOW:
                raise ValueError(f"sample magnitude {peak!r} is beyond the float32 range ({_FLOAT32_MAX!r})")
    else:
        raise ValueError(f"unknown encoding {encoding!r} (expected 'pcm16' or 'float32')")

    block_align = bits // 8
    byte_rate = w.sample_rate * block_align
    if byte_rate > _U32_MAX:
        raise ValueError(f"sample rate {w.sample_rate} Hz is too high for a {bits}-bit WAV: "
                         f"its byte rate {byte_rate} does not fit 32 bits")
    nbytes = len(samples) * block_align
    header = b"RIFF" + struct.pack("<I", 36 + nbytes) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, audio_format, 1, w.sample_rate, byte_rate, block_align, bits
    )
    header += b"data" + struct.pack("<I", nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        for lo in range(0, len(samples), CHUNK_SAMPLES):
            chunk = samples[lo:lo + CHUNK_SAMPLES]
            if encoding == "pcm16":
                q = chunk * _INT16_FULL_SCALE
                np.round(q, out=q)
                np.clip(q, -32768, 32767, out=q)
                fh.write(q.astype("<i2"))
            else:
                fh.write(chunk.astype("<f4"))
