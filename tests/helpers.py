"""Shared test utilities: brute-force oracles, fixture builders and a
synthetic speech clip.

The oracles deliberately avoid every fast-transform code path in the
package: DFT/DCT sums are evaluated as explicit O(N^2) matrix products,
framing as a Python loop, and the mel-cepstral pipeline is re-derived
from scratch.  Tests compare the package against these.
"""
import os
import struct
import tempfile

import numpy as np

from specinv.io import write_spec
from specinv.signal import OLA_EPS, FrameConfig, Waveform, WindowKind, make_window
from specinv.vocoder import ClipMode, analyze

# ---------------------------------------------------------------------------
# O(N^2) transform oracles
# ---------------------------------------------------------------------------


def oracle_dft(x):
    """Full complex DFT by explicit summation."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    k = np.arange(n)[:, None]
    t = np.arange(n)[None, :]
    angle = -2.0 * np.pi * k * t / n
    return (np.cos(angle) @ x) + 1j * (np.sin(angle) @ x)


def oracle_dft_real_part(x):
    return oracle_dft(x).real


def oracle_idft_from_real(c):
    """Real part of the inverse DFT of a real coefficient vector."""
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    k = np.arange(n)[None, :]
    t = np.arange(n)[:, None]
    return (np.cos(2.0 * np.pi * k * t / n) @ c) / n


def oracle_dct2(x):
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    k = np.arange(n)[:, None]
    t = np.arange(n)[None, :]
    basis = np.cos(np.pi * (t + 0.5) * k / n)
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    return scale * (basis @ x)


def oracle_dct3(c):
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    k = np.arange(n)[None, :]
    t = np.arange(n)[:, None]
    basis = np.cos(np.pi * (t + 0.5) * k / n)
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    return basis @ (scale * c)


def oracle_rfft_packed(x):
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    assert n % 2 == 0
    y = oracle_dft(x)
    out = np.empty(n)
    out[0] = y[0].real
    out[1:-1:2] = y[1 : n // 2].real
    out[2::2] = y[1 : n // 2].imag
    out[-1] = y[n // 2].real
    return out


def oracle_irfft_packed(p):
    p = np.asarray(p, dtype=np.float64)
    n = p.shape[0]
    assert n % 2 == 0
    full = np.empty(n, dtype=np.complex128)
    full[0] = p[0]
    half = p[1:-1:2] + 1j * p[2::2]
    full[1 : n // 2] = half
    full[n // 2] = p[-1]
    full[n // 2 + 1 :] = np.conj(half[::-1])
    k = np.arange(n)[None, :]
    t = np.arange(n)[:, None]
    angle = 2.0 * np.pi * k * t / n
    return ((np.cos(angle) + 1j * np.sin(angle)) @ full).real / n


def circular_even_part(x):
    """(x[n] + x[(-n) mod N]) / 2 -- what survives a real-part-only inversion."""
    x = np.asarray(x, dtype=np.float64)
    reflected = np.concatenate([x[:1], x[:0:-1]])
    return 0.5 * (x + reflected)


# ---------------------------------------------------------------------------
# Framing oracle
# ---------------------------------------------------------------------------


def oracle_frame_starts(n_samples, config: FrameConfig):
    """Enumerate frame start offsets over the (possibly padded) signal."""
    win, hop = config.win_length, config.hop_length
    n = n_samples + 2 * (win // 2) if config.centered else n_samples
    starts = []
    pos = 0
    while pos + win <= n:
        starts.append(pos)
        pos += hop
    if config.centered and starts and starts[-1] + win < n:
        starts.append(starts[-1] + hop)
    return starts, n


def oracle_frame_signal(x: Waveform, config: FrameConfig):
    win = config.win_length
    pad = win // 2 if config.centered else 0
    padded = np.concatenate([np.zeros(pad), x.samples, np.zeros(pad)])
    starts, n = oracle_frame_starts(len(x), config)
    w = make_window(config.window, win)
    frames = []
    for s in starts:
        chunk = padded[s : s + win]
        if chunk.shape[0] < win:
            chunk = np.concatenate([chunk, np.zeros(win - chunk.shape[0])])
        frames.append(chunk * w)
    return np.array(frames)


def oracle_overlap_add(frames, config: FrameConfig, original_length):
    """Normalized overlap-add as an ascending per-frame loop over all frames,
    trimmed and zero-extended to ``original_length``."""
    win, hop = config.win_length, config.hop_length
    frames = np.asarray(frames, dtype=np.float64)
    out_len = (frames.shape[0] - 1) * hop + win
    acc = np.zeros(out_len)
    wsum = np.zeros(out_len)
    w = make_window(config.window, win)
    for f in range(frames.shape[0]):
        acc[f * hop : f * hop + win] += frames[f]
        wsum[f * hop : f * hop + win] += w
    y = acc / np.maximum(wsum, OLA_EPS)
    if config.centered:
        y = y[win // 2 :]
    y = y[:original_length]
    return np.concatenate([y, np.zeros(original_length - y.shape[0])])


# ---------------------------------------------------------------------------
# Mel-cepstral oracle (full pipeline, independent of the package)
# ---------------------------------------------------------------------------


def _oracle_mel(hz):
    hz = np.asarray(hz, dtype=np.float64)
    out = np.where(hz < 1000.0, hz * 0.015, 15.0 + 27.0 * np.log(np.maximum(hz, 1000.0) / 1000.0) / np.log(6.4))
    return out


def _oracle_mel_inv(m):
    m = np.asarray(m, dtype=np.float64)
    return np.where(m < 15.0, m / 0.015, 1000.0 * 6.4 ** ((m - 15.0) / 27.0))


def oracle_mcd(ref: Waveform, est: Waveform, n_bands=23, n_cep=13, win=1024, hop=256):
    sr = ref.sample_rate
    edges = _oracle_mel_inv(np.linspace(_oracle_mel(0.0), _oracle_mel(sr / 2.0), n_bands + 2))
    freqs = np.arange(win // 2 + 1) * sr / win
    fbank = np.zeros((n_bands, freqs.shape[0]))
    for b in range(n_bands):
        lo, mid, hi = edges[b], edges[b + 1], edges[b + 2]
        tri = np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid))
        fbank[b] = np.clip(tri, 0.0, None) * 2.0 / (hi - lo)

    def cepstra(x):
        config = FrameConfig(win, hop, centered=True)
        frames = oracle_frame_signal(x, config)
        rows = []
        for frame in frames:
            spectrum = oracle_dft(frame)[: win // 2 + 1]
            mel = np.log(np.maximum(fbank @ np.abs(spectrum), 1e-10))
            rows.append(oracle_dct2(mel)[1 : n_cep + 1])
        return np.array(rows)

    c_ref = cepstra(ref)
    c_est = cepstra(est)
    dist = np.sqrt(2.0 * np.sum((c_ref - c_est) ** 2, axis=1))
    return float(10.0 / np.log(10.0) * dist.mean())


# ---------------------------------------------------------------------------
# File-format fixture builders
# ---------------------------------------------------------------------------


def make_wav_bytes(payload, fmt_code, bits, channels=1, rate=22050, fmt_size=16, data_size=None):
    """Assemble raw RIFF/WAVE bytes for crafted (possibly invalid) fixtures."""
    if data_size is None:
        data_size = len(payload)
    fmt_body = struct.pack(
        "<HHIIHH", fmt_code, channels, rate, rate * channels * bits // 8, channels * bits // 8, bits
    )[:fmt_size]
    chunks = b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
    chunks += b"data" + struct.pack("<I", data_size) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def lying_spec_bytes(original_length=2**40):
    """A 62-byte MVS1 file: one 4-bin dct frame whose header claims
    ``original_length`` samples at win 4, hop 2, centered."""
    header = struct.pack(
        "<4sHBBBffIIBIQII", b"MVS1", 1, 1, 0, 0, 0.0, 0.0, 4, 2, 1, 22050, original_length, 1, 4
    )
    return header + np.zeros(4, "<f4").tobytes()


# (name, struct code) of each MVS1 header field, in file order (see io.py)
MVS1_FIELDS = (
    ("magic", "4s"), ("version", "H"), ("kind", "B"), ("window", "B"), ("clip", "B"),
    ("clip_tau", "f"), ("kaiser_beta", "f"), ("win_length", "I"), ("hop_length", "I"),
    ("centered", "B"), ("sample_rate", "I"), ("original_length", "Q"), ("n_frames", "I"),
    ("n_bins", "I"),
)
MVS1_HEADER_SIZE = struct.calcsize("<" + "".join(code for _, code in MVS1_FIELDS))
# The same for a 44-byte WAV header with a 16-byte fmt chunk, as write_wav writes
WAV_FIELDS = (
    ("riff", "4s"), ("riff_size", "I"), ("wave", "4s"), ("fmt_id", "4s"), ("fmt_size", "I"),
    ("format", "H"), ("channels", "H"), ("sample_rate", "I"), ("byte_rate", "I"),
    ("block_align", "H"), ("bits", "H"), ("data_id", "4s"), ("data_size", "I"),
)


def field_slots(fields):
    """``{name: (offset, struct code)}`` of consecutive little-endian fields."""
    slots, offset = {}, 0
    for name, code in fields:
        slots[name] = (offset, code)
        offset += struct.calcsize("<" + code)
    return slots


def patch_spec(raw, **fields):
    """``raw`` MVS1 bytes with the named header fields overwritten."""
    out = bytearray(raw)
    slots = field_slots(MVS1_FIELDS)
    for name, value in fields.items():
        offset, code = slots[name]
        struct.pack_into("<" + code, out, offset, value)
    return bytes(out)


def patch_payload(raw, start, values):
    """``raw`` MVS1 bytes with the float32 payload values from index ``start``
    on overwritten by ``values``."""
    offset = MVS1_HEADER_SIZE + 4 * start
    blob = np.asarray(values, "<f4").tobytes()
    assert offset + len(blob) <= len(raw)
    return raw[:offset] + blob + raw[offset + len(blob) :]


def spec_bytes(spec):
    """The MVS1 file ``write_spec`` writes for ``spec``."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "a.mvs")
        write_spec(path, spec)
        with open(path, "rb") as fh:
            return fh.read()


def invalid_spec_files():
    """MVS1 files that each break one rule of the format, as
    ``{name: (bytes, fragment of the FormatError message)}``."""
    x = Waveform(np.random.default_rng(7).normal(size=300) * 0.4, 22050)
    odd = spec_bytes(analyze(x, FrameConfig(33, 8), "dct"))
    mag = spec_bytes(analyze(x, FrameConfig(32, 8, WindowKind.kaiser(8.0)), "magnitude"))
    unsigned = "magnitude spectrograms are already nonnegative; use clip none"
    return {
        "odd_window_packed": (
            patch_spec(odd, kind=2), "packed_rfft requires an even win_length, got 33"
        ),
        "magnitude_zero": (patch_spec(mag, clip=1), unsigned),
        "magnitude_threshold": (patch_spec(mag, clip=2, clip_tau=0.05), unsigned),
        "lying_frame_count": (lying_spec_bytes(), "1 frames do not match"),
        "nan_kaiser_beta": (patch_spec(mag, kaiser_beta=float("nan")), "kaiser beta must be >= 0"),
        "zero_sample_rate": (patch_spec(odd, sample_rate=0), "sample_rate must be a positive integer"),
        "truncated_payload": (odd[:-4], "payload size mismatch"),
    }


def random_spectrogram(rng):
    """A valid random spectrogram covering all kinds/windows/clips."""
    kind = rng.choice(["real_fft", "dct", "packed_rfft", "magnitude"])
    win = int(rng.choice([8, 16, 32]))
    hop = int(rng.integers(1, win + 1))
    window = rng.choice([WindowKind.hann(), WindowKind.boxcar(), WindowKind.kaiser(7.5)])
    centered = bool(rng.integers(0, 2))
    if kind == "magnitude":
        clip = ClipMode.none()
    else:
        clip = rng.choice([ClipMode.none(), ClipMode.zero(), ClipMode.threshold(0.05)])
    n = int(rng.integers(win + hop, 400))
    x = Waveform(rng.normal(size=n) * 0.4, int(rng.choice([8000, 22050, 48000])))
    return analyze(x, FrameConfig(win, hop, window, centered=centered), kind, clip)


def wav_fuzz_corpus(good: bytes, rng):
    """Systematically corrupted WAV header variants; every one is invalid."""
    corpus = [good[:n] for n in range(0, 44)]
    for pos in (0, 1, 2, 3, 8, 9, 10, 11):
        mutated = bytearray(good)
        mutated[pos] ^= 0xFF
        corpus.append(bytes(mutated))
    for fmt_code in (0, 2, 7, 80, 0xFFFE):
        corpus.append(make_wav_bytes(b"\x00\x00", fmt_code, 16))
    for bits in (1, 4, 8, 12, 20, 64):
        corpus.append(make_wav_bytes(b"\x00\x00", 1, bits))
    corpus.append(make_wav_bytes(b"\x00\x00", 1, 16, channels=0))
    corpus.append(make_wav_bytes(b"\x00\x00", 1, 16, rate=0))
    corpus.append(make_wav_bytes(b"\x00\x00", 1, 16, fmt_size=8))
    for _ in range(20):
        n = int(rng.integers(1, len(good) - 1))
        corpus.append(good[:n])
    return corpus


# ---------------------------------------------------------------------------
# Deterministic speech-like test material
# ---------------------------------------------------------------------------


def glottal_vowel(rng, sr, dur, f0_start, f0_end, formants, amp=0.35):
    """Source-filter vowel: glottal impulse train through formant resonators.

    The pulse-aligned phase structure (not just the magnitude envelope) is
    what makes zero-clipped pipelines behave as they do on real speech.
    """
    n = int(round(dur * sr))
    f0 = np.linspace(f0_start, f0_end, n)
    phase = np.cumsum(f0) / sr
    source = np.zeros(n)
    source[np.diff(np.floor(phase), prepend=0.0) > 0] = 1.0
    ir_len = int(0.03 * sr)
    t = np.arange(ir_len) / sr
    ir = np.zeros(ir_len)
    for fc, bw, a in formants:
        ir += a * np.exp(-np.pi * bw * t) * np.cos(2.0 * np.pi * fc * t)
    out = np.convolve(source, ir)[:n]
    out *= amp / np.max(np.abs(out))
    edge = max(8, int(0.015 * sr))
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
    out[:edge] *= ramp
    out[-edge:] *= ramp[::-1]
    return out


def fricative_burst(rng, sr, dur, lo_hz=2000.0, hi_hz=8000.0, amp=0.06):
    """Band-limited noise burst (consonant stand-in)."""
    n = int(round(dur * sr))
    noise = rng.normal(size=n)
    spectrum = np.fft.rfft(noise)
    freqs = np.arange(spectrum.shape[0]) * sr / n
    mask = (freqs >= lo_hz) & (freqs <= min(hi_hz, 0.45 * sr))
    shaped = np.fft.irfft(spectrum * mask, n=n)
    shaped *= amp / np.max(np.abs(shaped))
    edge = max(4, int(0.005 * sr))
    ramp = np.linspace(0.0, 1.0, edge)
    shaped[:edge] *= ramp
    shaped[-edge:] *= ramp[::-1]
    return shaped


# (F_center_hz, bandwidth_hz, gain) pairs per vowel
_VOWELS = [
    ((730.0, 90.0, 1.0), (1090.0, 110.0, 0.6)),   # "ah"
    ((270.0, 60.0, 1.0), (2290.0, 150.0, 0.35)),  # "ee"
    ((300.0, 70.0, 1.0), (870.0, 100.0, 0.7)),    # "oo"
    ((530.0, 80.0, 1.0), (1840.0, 140.0, 0.45)),  # "eh"
]


def synthetic_speech(
    duration=3.2,
    sr=22050,
    seed=42,
    room_tone_db=-55.0,
    include_fricatives=True,
    return_active_mask=False,
):
    """Deterministic speech-like clip: glottal vowels, fricatives, pauses.

    ``room_tone_db`` adds a low recording-noise floor over the whole clip
    (None = digitally silent gaps).  ``return_active_mask`` also returns a
    boolean mask of samples carrying vowel/fricative content.
    """
    rng = np.random.default_rng(seed)
    total = int(round(duration * sr))
    out = np.zeros(total)
    active = np.zeros(total, dtype=bool)
    pos = int(0.1 * sr)
    i = 0
    while pos < total - int(0.3 * sr):
        vowel = _VOWELS[i % len(_VOWELS)]
        f0a = rng.uniform(95.0, 150.0)
        f0b = f0a * rng.uniform(0.85, 1.2)
        burst = glottal_vowel(rng, sr, rng.uniform(0.3, 0.5), f0a, f0b, vowel)
        end = min(pos + burst.shape[0], total)
        out[pos:end] += burst[: end - pos]
        active[pos:end] = True
        pos = end
        if include_fricatives and rng.uniform() < 0.5 and pos < total - int(0.2 * sr):
            fric = fricative_burst(rng, sr, rng.uniform(0.06, 0.12))
            end = min(pos + fric.shape[0], total)
            out[pos:end] += fric[: end - pos]
            active[pos:end] = True
            pos = end
        pos += int(rng.uniform(0.12, 0.22) * sr)
        i += 1
    if room_tone_db is not None:
        out = out + rng.normal(size=total) * 10.0 ** (room_tone_db / 20.0)
    wave = Waveform(out, sr)
    if return_active_mask:
        return wave, active
    return wave
