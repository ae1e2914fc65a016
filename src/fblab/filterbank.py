"""The Filterbank value type, its on-disk FBANK1 format, and FFT responses.

FBANK1 is a plain-text exchange format: one header line

    FBANK1 kind=<kind> n=<N> len=<L> fs=<Hz> c1=<value|-> c2=<value|-> centers=<f1,f2,...|->

followed by N lines of L space-separated floats, LF newlines. Every float
is written with 17 significant digits, so taps and centers round-trip
float64 exactly. The `centers` field is optional on read: files without
it load with no center frequencies.

The taps are written by one `np.savetxt` call at 17 significant digits
and read row by row by `_parse_rows`, which accepts what `float()` reads
and names the bad row. The loader does not look for a sign-split [P; -P]
bank; `Filterbank.sign_split_half` alone decides the fold, on the parsed
taps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dsp import _check_array_size, _check_sample_rate, _frozen
from .erb import FC_MAX_HZ, FC_MIN_HZ, ErbParams

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


@dataclass(frozen=True, eq=False)
class Filterbank:
    """An N x L matrix of FIR taps plus provenance metadata.

    `taps[n, k]` is the coefficient of filter n at time index k (sample
    k+1 for the gammatone family, sample k for STFT rows). `center_freqs`
    holds the distinct center-frequency grid, not one entry per row.
    """

    taps: np.ndarray
    sample_rate: int
    kind: FilterbankKind = FilterbankKind.CUSTOM
    center_freqs: np.ndarray | None = None
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
        if self.center_freqs is not None:
            cf = np.asarray(self.center_freqs, dtype=np.float64)
            if cf.ndim != 1 or cf.size == 0 or not np.all(np.isfinite(cf)) or not np.all(np.diff(cf) > 0):
                raise ValueError("center_freqs must be 1-D, non-empty, finite and strictly increasing")
            if self.kind in _GAMMATONE_KINDS and (cf[0] < FC_MIN_HZ or cf[-1] > FC_MAX_HZ):
                raise ValueError(
                    f"gammatone center frequencies must lie in [{FC_MIN_HZ:g}, {FC_MAX_HZ:g}] Hz"
                )
            object.__setattr__(self, "center_freqs", _frozen(cf))

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
    """Write a bank in FBANK1 format."""
    c1 = _fmt(bank.erb_params.c1) if bank.erb_params else "-"
    c2 = _fmt(bank.erb_params.c2) if bank.erb_params else "-"
    centers = "-" if bank.center_freqs is None else ",".join(_fmt(v) for v in bank.center_freqs)
    header = (
        f"FBANK1 kind={bank.kind.value} n={bank.n_filters} len={bank.filter_len} "
        f"fs={bank.sample_rate} c1={c1} c2={c2} centers={centers}"
    )
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, bank.taps, fmt="%.17g")


def load_filterbank(path) -> Filterbank:
    """Read an FBANK1 file, rejecting dimension or header mismatches, a repeated field and a lone c1 or c2."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError("not an FBANK1 file: not UTF-8 text") from exc
    if not lines:
        raise ValueError("not an FBANK1 file: empty")
    head = lines[0].split()
    if not head or head[0] != "FBANK1":
        raise ValueError("not an FBANK1 file: bad magic")
    fields = {}
    for token in head[1:]:
        if "=" not in token:
            raise ValueError(f"bad FBANK1 header token {token!r}")
        key, value = token.split("=", 1)
        if key in fields:
            raise ValueError(f"bad FBANK1 header: field {key!r} given twice")
        fields[key] = value
    try:
        kind = FilterbankKind(fields["kind"])
        n = int(fields["n"])
        length = int(fields["len"])
        if n < 1 or length < 1:
            raise ValueError(f"n and len must be >= 1, got n={n} len={length}")
        fs = int(fields["fs"])
        centers = fields.get("centers", "-")
        center_freqs = None if centers == "-" else np.array([float(v) for v in centers.split(",")])
        c1, c2 = fields.get("c1", "-"), fields.get("c2", "-")
        if (c1 == "-") != (c2 == "-"):
            raise ValueError(f"c1 and c2 must both be given or both be '-', got c1={c1} c2={c2}")
        erb_params = None if c1 == "-" else ErbParams(float(c1), float(c2))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad FBANK1 header: {exc}") from exc

    rows = [line for line in lines[1:] if line.strip()]
    if len(rows) != n:
        raise ValueError(f"FBANK1 dimension mismatch: header says {n} filters, file has {len(rows)}")
    taps = _parse_rows(rows, length)

    return Filterbank(taps, fs, kind=kind, center_freqs=center_freqs, erb_params=erb_params)


def _parse_rows(rows: list[str], length: int) -> np.ndarray:
    """The taps of FBANK1 tap rows, each of which must hold `length` values."""
    taps = []  # grown row by row, so no allocation is sized by the header's `len`
    for i, line in enumerate(rows):
        values = line.split()
        if len(values) != length:
            raise ValueError(f"FBANK1 dimension mismatch on row {i}: expected {length} taps, got {len(values)}")
        try:
            taps.append([float(tap := v) for v in values])  # `tap` names the value float() refuses
        except ValueError:
            raise ValueError(f"FBANK1 bad tap on row {i}: {tap!r}") from None
    return np.array(taps)


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


def numerical_rank(matrix: np.ndarray) -> int:
    """Rank by counting singular values above PINV_RCOND * sigma_max."""
    s = np.linalg.svd(np.asarray(matrix, dtype=np.float64), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > PINV_RCOND * s[0]))
