"""specinv: a phase-estimation-free vocoder.

Waveforms go to real-valued spectrograms (real-part FFT, short-time DCT,
or a packed real FFT that loses nothing) and come straight back via
per-frame inverse transforms plus overlap-add -- no phase retrieval,
no training.  Includes clipping variants, SNR/MCD quality metrics, WAV
and MVS1 file I/O, a benchmark harness and a CLI (``specinv``).
"""

from . import bench, errors, io, metrics, signal, transforms, vocoder
from .bench import *
from .errors import *
from .io import *
from .metrics import *
from .signal import *
from .transforms import *
from .vocoder import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *signal.__all__,
    *transforms.__all__,
    *vocoder.__all__,
    *metrics.__all__,
    *bench.__all__,
    *io.__all__,
    *errors.__all__,
]
