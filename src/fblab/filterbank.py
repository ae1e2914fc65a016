"""The Filterbank value type, its on-disk FBANK2 format, and FFT responses.

FBANK2 is a text exchange format: one header line

    FBANK2 kind=<kind> n=<N> len=<L> fs=<Hz> c1=<value|-> c2=<value|->

followed by N tap rows, LF newlines. Each row is 16*L lowercase hex
digits: the row's L taps as little-endian float64 bytes
(`row.astype("<f8").tobytes().hex()`), so taps round-trip bit for bit,
signed zeros and subnormals included. c1 and c2 are written with 17
significant digits, so they round-trip float64 exactly. Gammatone kinds
give both; `stft` and `custom` give neither. A gammatone bank's centre
frequencies are not stored: they are `erb.center_frequency_grid(
ErbParams(c1, c2), fs)`. The loader ignores header fields it does not
know, such as the centre list (`centers`) that earlier FBANK2 files carry.

The loader checks every row's width, then decodes all rows with one
`bytes.fromhex` and one `np.frombuffer`; only when that fails does it
look for the row at fault and name it. A file of the older decimal format
FBANK1 is refused with a note to rebuild it. The loader does not look for
a sign-split [P; -P] bank; `Filterbank.sign_split_half` alone decides the
fold, on the decoded taps.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dsp import _check_array_size, _check_sample_rate, _frozen
from .erb import ErbParams

#: Relative singular-value cutoff for numerical rank and pseudo-inverse
#: decoders. Multi-phase banks contain exact +/- row pairs and are
#: rank-deficient by design.
PINV_RCOND = 1e-10


class FilterbankKind(enum.Enum):
    MPGTF = "mpgtf"
    PARAMPGTF = "parampgtf"
    STFT = "stft"
    CUSTOM = "custom"


_GAMMATONE_KINDS = {FilterbankKind.MPGTF, FilterbankKind.PARAMPGTF}


def _check_erb_params(kind: FilterbankKind, erb_params: ErbParams | None) -> None:
    """Gammatone kinds carry the ERB pair they were built from; `stft` and `custom` banks carry none."""
    if kind in _GAMMATONE_KINDS and erb_params is None:
        raise ValueError(f"kind {kind.value} needs ERB parameters (c1, c2)")
    if kind not in _GAMMATONE_KINDS and erb_params is not None:
        raise ValueError(f"kind {kind.value} takes no ERB parameters (c1, c2)")


@dataclass(frozen=True, eq=False)
class Filterbank:
    """An N x L matrix of FIR taps plus provenance metadata.

    `taps[n, k]` is the coefficient of filter n at time index k (sample
    k+1 for the gammatone family, sample k for STFT rows). A gammatone
    bank's centre grid is `erb.center_frequency_grid(erb_params,
    sample_rate)`, so the bank does not hold a copy of it.
    """

    taps: np.ndarray
    sample_rate: int
    kind: FilterbankKind = FilterbankKind.CUSTOM
    erb_params: ErbParams | None = None

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.ndim != 2 or taps.shape[0] < 1 or taps.shape[1] < 1:
            raise ValueError(f"taps must be a non-empty 2-D matrix, got shape {taps.shape}")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps contain non-finite values")
        _check_sample_rate(self.sample_rate)
        object.__setattr__(self, "taps", _frozen(taps))
        object.__setattr__(self, "sample_rate", int(self.sample_rate))
        _check_erb_params(self.kind, self.erb_params)

    @property
    def n_filters(self) -> int:
        return self.taps.shape[0]

    @property
    def filter_len(self) -> int:
        return self.taps.shape[1]

    @cached_property
    def sign_split_half(self) -> int:
        """h if the taps are [P; -P] bit for bit with P of h rows, else 0; decided once, as taps are read-only."""
        h = self.n_filters // 2  # an odd row count fails the shape check of `np.array_equal`
        return h if h and np.array_equal(self.taps[h:], -self.taps[:h]) else 0

    @cached_property
    def pinv_rows(self) -> np.ndarray:
        """The rows of the bank's pseudo-inverse decoder that the engine runs; computed once, read-only, C-ordered.

        For A = taps[:, ::-1], the analysis matrix, they are pinv(A)^T, one
        row per filter. For a sign-split bank [P; -P] they are Q =
        1/2 pinv(A_P)^T, h rows from P alone, and the whole decoder is
        [Q; -Q] (see `codec.pseudo_inverse`). C order matters: BLAS rounds a
        product with an F-ordered operand differently.

        Raises ValueError for taps whose pseudo-inverse float64 cannot hold:
        rows that are not finite (taps near the smallest float), or all zero
        while the taps are not (the largest singular value overflows).
        """
        a, h = self.taps[:, ::-1], self.sign_split_half
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rows = 0.5 * np.linalg.pinv(a[:h], rcond=PINV_RCOND).T if h else np.linalg.pinv(a, rcond=PINV_RCOND).T
        if not np.all(np.isfinite(rows)) or (not np.any(rows) and np.any(self.taps)):
            raise ValueError("the bank's taps are too small or too large for a float64 pseudo-inverse decoder")
        return _frozen(rows)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def save_filterbank(path, bank: Filterbank) -> None:
    """Write a bank in FBANK2 format."""
    c1 = _fmt(bank.erb_params.c1) if bank.erb_params else "-"
    c2 = _fmt(bank.erb_params.c2) if bank.erb_params else "-"
    header = (
        f"FBANK2 kind={bank.kind.value} n={bank.n_filters} len={bank.filter_len} "
        f"fs={bank.sample_rate} c1={c1} c2={c2}"
    )
    digits, width = bank.taps.astype("<f8").tobytes().hex(), 16 * bank.filter_len
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(digits[i:i + width] + "\n" for i in range(0, len(digits), width))


def load_filterbank(path) -> Filterbank:
    """Read an FBANK2 file.

    Refuses dimension or header mismatches, a repeated field, a lone c1 or
    c2, a kind and ERB pair that disagree, and a row that is not hex.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError("not an FBANK2 file: not UTF-8 text") from exc
    if not lines:
        raise ValueError("not an FBANK2 file: empty")
    head = lines[0].split()
    if head and head[0] == "FBANK1":
        raise ValueError("an FBANK1 file: decimal taps are no longer read; rebuild the bank with `fblab build-bank`")
    if not head or head[0] != "FBANK2":
        raise ValueError("not an FBANK2 file: bad magic")
    fields = {}
    for token in head[1:]:
        if "=" not in token:
            raise ValueError(f"bad FBANK2 header token {token!r}")
        key, value = token.split("=", 1)
        if key in fields:
            raise ValueError(f"bad FBANK2 header: field {key!r} given twice")
        fields[key] = value
    try:
        kind = FilterbankKind(fields["kind"])
        n = int(fields["n"])
        length = int(fields["len"])
        if n < 1 or length < 1:
            raise ValueError(f"n and len must be >= 1, got n={n} len={length}")
        fs = int(fields["fs"])
        c1, c2 = fields.get("c1", "-"), fields.get("c2", "-")
        if (c1 == "-") != (c2 == "-"):
            raise ValueError(f"c1 and c2 must both be given or both be '-', got c1={c1} c2={c2}")
        erb_params = None if c1 == "-" else ErbParams(float(c1), float(c2))
        _check_erb_params(kind, erb_params)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad FBANK2 header: {exc}") from exc

    rows = [line for line in lines[1:] if line.strip()]
    if len(rows) != n:
        raise ValueError(f"FBANK2 dimension mismatch: header says {n} filters, file has {len(rows)}")
    taps = _decode_rows(rows, length)

    return Filterbank(taps, fs, kind=kind, erb_params=erb_params)


def _decode_rows(rows: list[str], length: int) -> np.ndarray:
    """The taps of FBANK2 tap rows, each of which must be `length` taps of 16 hex digits."""
    width = 16 * length
    for i, row in enumerate(rows):  # before any decode, so no allocation is sized by the header's `len`
        if len(row) != width:
            raise ValueError(f"FBANK2 dimension mismatch on row {i}: expected {length} taps "
                             f"({width} hex digits), got {len(row)} characters")
    joined = "".join(rows)
    try:
        data = bytes.fromhex(joined)
    except ValueError:
        data = b""
    if len(data) != 8 * length * len(rows):  # a non-hex digit, or whitespace that `fromhex` skips
        i, k = divmod(re.search("[^0-9a-fA-F]", joined).start() // 16, length)  # the first bad tap's row and index
        raise ValueError(f"FBANK2 bad tap on row {i}: {rows[i][16 * k:16 * k + 16]!r}")
    return np.frombuffer(data, "<f8").reshape(len(rows), length)


def frequency_response(bank: Filterbank, n_fft: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """FFT magnitude of every filter, zero-padded to `n_fft` points.

    Returns:
        (bin_hz, magnitudes) with bin_hz of shape (n_fft,) covering the
        full 0 .. fs grid and magnitudes of shape (n_filters, n_fft).

    Raises ValueError when a filter's spectrum or its magnitude overflows
    a float (finite taps near the float maximum can sum past it).
    """
    if n_fft < bank.filter_len:
        raise ValueError(f"n_fft must be >= filter length, got {n_fft} < {bank.filter_len}")
    _check_array_size(f"n_fft={n_fft}", bank.n_filters, n_fft, np.complex128)  # the spectrum, before its magnitude
    try:
        with np.errstate(over="raise", invalid="raise"):
            mags = np.abs(np.fft.fft(bank.taps, n=n_fft, axis=1))
    except FloatingPointError as exc:
        raise ValueError(f"the bank's spectrum overflows a float ({exc})") from None
    bin_hz = np.arange(n_fft) * (bank.sample_rate / n_fft)
    return bin_hz, mags


def _kept_singular_values(matrix: np.ndarray) -> np.ndarray:
    """The singular values above PINV_RCOND * sigma_max, largest first: those a pseudo-inverse inverts."""
    s = np.linalg.svd(np.asarray(matrix, dtype=np.float64), compute_uv=False)
    return s[s > PINV_RCOND * s[0]] if s.size and s[0] > 0.0 else s[:0]


def numerical_rank(matrix: np.ndarray) -> int:
    """Rank by counting singular values above PINV_RCOND * sigma_max."""
    return len(_kept_singular_values(matrix))


def condition_number(matrix: np.ndarray) -> float:
    """sigma_max / sigma_rank: how much a pseudo-inverse decoder stretches what `matrix` encodes; inf if it is zero."""
    s = _kept_singular_values(matrix)
    return float(s[0] / s[-1]) if s.size else math.inf
