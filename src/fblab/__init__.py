"""fblab: analysis/synthesis filterbanks for time-domain source separation.

Builds multi-phase gammatone banks (fixed or with trainable ERB
parameters) and rectification-proof STFT banks, encodes and decodes
waveforms through them with pseudo-inverse decoders, and evaluates
oracle-mask separation with SI-SNR.
"""

from .codec import (
    analysis_matrix,
    decode,
    encode,
    pseudo_inverse,
)
from .dsp import FrameParams, Waveform, num_frames
from .erb import (
    DEFAULT_C1,
    DEFAULT_C2,
    FC_MIN_HZ,
    ErbParams,
    bandwidth_b,
    center_frequency_grid,
    erb,
    erb_scale,
    erb_scale_inv,
)
from .filterbank import (
    Filterbank,
    FilterbankKind,
    frequency_response,
    load_filterbank,
    numerical_rank,
    save_filterbank,
)
from .gammatone import build_mpgtf, build_parampgtf
from .metrics import SI_SNR_CLIP_DB, clip_si_snr, si_snr
from .separation import (
    SNR_RANGE_DB,
    MixtureItem,
    SilentSourceError,
    make_multi_mixture_item,
    make_sinusoid_mixture_items,
    run_separation,
    score_separation,
    separate,
)
from .stft import StftMode, StftSpec, StftWindow, build_stft_bank, istft_decoder
from .training import (
    TraceRow,
    TrainerConfig,
    TrainingDivergedError,
    fd_gradient,
    separation_loss,
    train_parampgtf,
)
from .wavio import read_wav, write_wav

__version__ = "0.1.0"
