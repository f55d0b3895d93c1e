"""Deterministic speech-like benchmark input.

The clip alternates voiced segments (a glottal pulse train shaped by two
formant resonances, with a gliding pitch), unvoiced fricative bursts
(band-limited noise) and short pauses, over a low room-tone floor.  Only
numpy is used, so the program under test sees nothing but the samples or
the WAV bytes built here.
"""
from __future__ import annotations

import struct

import numpy as np

SAMPLE_RATE = 22050
DURATION_S = 30.0

# (first formant Hz, bandwidth Hz), (second formant Hz, bandwidth Hz, gain)
_FORMANTS = (
    ((730.0, 90.0), (1090.0, 110.0, 0.6)),
    ((270.0, 60.0), (2290.0, 150.0, 0.35)),
    ((300.0, 70.0), (870.0, 100.0, 0.7)),
    ((530.0, 80.0), (1840.0, 140.0, 0.45)),
)
_ROOM_TONE_DB = -55.0


def _fade(n: int, sr: float, seconds: float) -> np.ndarray:
    edge = min(n // 2, max(4, int(seconds * sr)))
    env = np.ones(n)
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
    env[:edge] = ramp
    env[n - edge :] = ramp[::-1]
    return env


def _vowel(rng, sr: int, n: int, formants) -> np.ndarray:
    start = rng.uniform(95.0, 150.0)
    f0 = np.linspace(start, start * rng.uniform(0.85, 1.2), n)
    pulses = np.diff(np.floor(np.cumsum(f0) / sr), prepend=0.0) > 0
    t = np.arange(int(0.03 * sr)) / sr
    (f1, b1), (f2, b2, g2) = formants
    ir = np.exp(-np.pi * b1 * t) * np.cos(2 * np.pi * f1 * t)
    ir += g2 * np.exp(-np.pi * b2 * t) * np.cos(2 * np.pi * f2 * t)
    out = np.convolve(pulses.astype(np.float64), ir)[:n]
    return out * (0.35 / np.max(np.abs(out))) * _fade(n, sr, 0.015)


def _fricative(rng, sr: int, n: int) -> np.ndarray:
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / sr)
    spectrum[(freqs < 2000.0) | (freqs > min(8000.0, 0.45 * sr))] = 0.0
    out = np.fft.irfft(spectrum, n)
    return out * (0.06 / np.max(np.abs(out))) * _fade(n, sr, 0.005)


def speech_clip(seed: int, duration: float = DURATION_S, sr: int = SAMPLE_RATE) -> np.ndarray:
    """Samples of a speech-like clip; the same seed gives the same samples."""
    rng = np.random.default_rng(seed)
    total = int(round(duration * sr))
    out = np.zeros(total)
    pos = int(0.1 * sr)
    i = 0
    while pos < total - int(0.3 * sr):
        n = min(int(rng.uniform(0.3, 0.5) * sr), total - pos)
        out[pos : pos + n] += _vowel(rng, sr, n, _FORMANTS[i % len(_FORMANTS)])
        pos += n
        if rng.uniform() < 0.5 and pos < total - int(0.2 * sr):
            n = min(int(rng.uniform(0.06, 0.12) * sr), total - pos)
            out[pos : pos + n] += _fricative(rng, sr, n)
            pos += n
        pos += int(rng.uniform(0.12, 0.22) * sr)
        i += 1
    out += rng.standard_normal(total) * 10.0 ** (_ROOM_TONE_DB / 20.0)
    return out


def pcm16_wav_bytes(samples: np.ndarray, sr: int) -> bytes:
    """A mono PCM16 RIFF/WAVE file holding ``samples`` (clamped to [-1, 1])."""
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, sr, 2 * sr, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(pcm)) + pcm
    return b"RIFF" + struct.pack("<I", len(body)) + body
