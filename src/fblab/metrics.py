"""Scale-invariant source-to-noise ratio (SI-SNR).

The estimate is projected onto the reference; the ratio of projection
energy to residual energy, in dB, is invariant under positive scaling of
the estimate. Means are not removed before the projection.
"""

from __future__ import annotations

import math

import numpy as np

from .dsp import BLOCK_SAMPLES, Waveform, _dot

#: Reporting/loss clip for (near-)perfect reconstructions, in dB.
SI_SNR_CLIP_DB = 60.0


def si_snr(estimate: Waveform, reference: Waveform) -> float:
    """SI-SNR of `estimate` against `reference`, in dB (may be +/-inf).

    With s_t = (<est, ref> / ||ref||^2) * ref and e = est - s_t, the value
    is 10*log10(||s_t||^2 / ||e||^2). A perfect reconstruction yields
    +inf; a zero or orthogonal estimate yields -inf. Raises on a
    zero-energy reference, and on either argument whose stored energy
    overflows a float (|x| >~ 1e154).

    The projection gain reads ||ref||^2 from `Waveform.energy` and takes
    <est, ref> from `dsp._dot`. s_t and e are formed, and their energies
    summed, one block of `dsp.BLOCK_SAMPLES` samples at a time, so no
    signal-long temporary is allocated (a 64 kB work array). Every sum
    runs in a fixed block order, so the result does not depend on the
    BLAS thread count; blocked sums round differently from one
    whole-signal dot product, by about 1e-15 relative.
    """
    if estimate.sample_rate != reference.sample_rate:
        raise ValueError(
            f"sample rate mismatch: estimate {estimate.sample_rate} Hz, reference {reference.sample_rate} Hz"
        )
    if len(estimate) != len(reference):
        raise ValueError(f"length mismatch: estimate {len(estimate)}, reference {len(reference)}")
    est, ref = estimate.samples, reference.samples
    ref_energy = reference.energy()
    if ref_energy == 0.0:
        raise ValueError("zero-energy reference")
    if math.inf in (estimate.energy(), ref_energy):  # the dot below would overflow, or the gain read 0
        raise ValueError(f"energy overflows a float: estimate {estimate.energy()!r}, reference {ref_energy!r}")
    beta = _dot(est, ref) / ref_energy
    target_energy = noise_energy = 0.0
    for lo in range(0, len(ref), BLOCK_SAMPLES):
        work = ref[lo:lo + BLOCK_SAMPLES] * beta  # the block's target, then its residual est - target
        target_energy += float(np.dot(work, work))
        np.subtract(est[lo:lo + BLOCK_SAMPLES], work, out=work)
        noise_energy += float(np.dot(work, work))
    if noise_energy == 0.0:
        return math.inf if target_energy > 0.0 else -math.inf
    if target_energy == 0.0:
        return -math.inf
    return 10.0 * math.log10(target_energy / noise_energy)


def clip_si_snr(value_db: float) -> float:
    """Clip SI-SNR at SI_SNR_CLIP_DB so perfect reconstructions do not poison means."""
    return min(value_db, SI_SNR_CLIP_DB)
