import warnings

import numpy as np
import pytest
import scipy.fft
import scipy.fftpack
from numpy.testing import assert_allclose

from helpers import (
    PUBLIC_FORWARD,
    circular_even_part,
    oracle_dct2,
    oracle_dct3,
    oracle_dft_real_part,
    oracle_idft_from_real,
    oracle_irfft_packed,
    oracle_rfft_packed,
)

from specinv.errors import InvalidConfigError, InvalidInputError
from specinv.transforms import _real_dft, dct2, dct3, dft_real_part, idft_from_real, irfft_packed, rfft_packed
from specinv.vocoder import KINDS

FORWARD_ORACLES = [
    (dft_real_part, oracle_dft_real_part, False),
    (idft_from_real, oracle_idft_from_real, False),
    (dct2, oracle_dct2, False),
    (dct3, oracle_dct3, False),
    (rfft_packed, oracle_rfft_packed, True),
]


def _rel_err(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


# ---------------------------------------------------------------------------
# Frozen examples
# ---------------------------------------------------------------------------


def test_dft_real_part_impulse_is_flat():
    assert_allclose(dft_real_part([1.0, 0.0, 0.0, 0.0]), [1, 1, 1, 1], atol=1e-15)


def test_dft_real_part_constant_is_dc_only():
    assert_allclose(dft_real_part([1.0, 1.0, 1.0, 1.0]), [4, 0, 0, 0], atol=1e-14)


def test_dft_real_part_shifted_impulse():
    # Re(e^{-i 2 pi k / 4}) = cos(pi k / 2); frozen from the O(N^2) oracle.
    assert_allclose(dft_real_part([0.0, 1.0, 0.0, 0.0]), [1.0, 0.0, -1.0, 0.0], atol=1e-15)


def test_idft_flat_spectrum_is_impulse():
    assert_allclose(idft_from_real([1.0, 1.0, 1.0, 1.0]), [1, 0, 0, 0], atol=1e-15)


def test_idft_of_real_part_gives_circular_even_part():
    # (x[n] + x[(-n) mod N]) / 2 of [0,1,0,0] is [0, 0.5, 0, 0.5].
    got = idft_from_real(dft_real_part([0.0, 1.0, 0.0, 0.0]))
    assert_allclose(got, [0.0, 0.5, 0.0, 0.5], atol=1e-15)


def test_idft_dc_only_is_constant():
    assert_allclose(idft_from_real([4.0, 0.0, 0.0, 0.0]), [1, 1, 1, 1], atol=1e-15)


def test_dct2_constant():
    assert_allclose(dct2([1.0, 1.0, 1.0, 1.0]), [2, 0, 0, 0], atol=1e-15)


def test_dct2_impulse_closed_form():
    # Frozen from the O(N^2) cosine-sum oracle.
    want = [0.5, 0.6532814824381883, 0.5, 0.27059805007309856]
    assert_allclose(dct2([1.0, 0.0, 0.0, 0.0]), want, atol=1e-15)


def test_dct3_inverts_dct2(rng):
    x = rng.normal(size=16)
    assert_allclose(dct3(dct2(x)), x, atol=1e-12)


def test_dct3_constant_example():
    assert_allclose(dct3([2.0, 0.0, 0.0, 0.0]), [1, 1, 1, 1], atol=1e-15)


def test_rfft_packed_constant():
    assert_allclose(rfft_packed([1.0, 1.0, 1.0, 1.0]), [4, 0, 0, 0], atol=1e-14)


def test_rfft_packed_impulse():
    assert_allclose(rfft_packed([1.0, 0.0, 0.0, 0.0]), [1, 1, 0, 1], atol=1e-15)


def test_rfft_packed_shifted_impulse():
    # Y1 = -i, Y2 = -1; frozen from the brute-force DFT oracle.
    assert_allclose(rfft_packed([0.0, 1.0, 0.0, 0.0]), [1.0, 0.0, -1.0, -1.0], atol=1e-15)


def test_irfft_packed_constant():
    assert_allclose(irfft_packed([4.0, 0.0, 0.0, 0.0]), [1, 1, 1, 1], atol=1e-15)


def test_irfft_packed_shifted_impulse():
    assert_allclose(irfft_packed([1.0, 0.0, -1.0, -1.0]), [0, 1, 0, 0], atol=1e-15)


@pytest.mark.parametrize("shape", [(2,), (1024,), (1, 64), (7, 30), (333, 512)])
def test_packed_layout_is_fftpack_half_complex_bit_for_bit(rng, shape):
    x = rng.normal(size=shape)
    assert np.array_equal(rfft_packed(x), scipy.fftpack.rfft(x, axis=-1))
    assert np.array_equal(irfft_packed(x), scipy.fftpack.irfft(x, axis=-1))
    assert np.array_equal(rfft_packed(x, workers=2), rfft_packed(x, workers=1))
    assert np.array_equal(irfft_packed(x, workers=2), irfft_packed(x, workers=1))


def test_packed_roundtrip_length_1024(rng):
    x = rng.normal(size=1024)
    assert _rel_err(irfft_packed(rfft_packed(x)), x) <= 1e-12


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", [rfft_packed, irfft_packed])
def test_packed_rejects_odd_lengths(op):
    with pytest.raises(InvalidConfigError):
        op(np.zeros(5))


def test_a_3d_input_is_an_input_error():
    with pytest.raises(InvalidInputError) as exc:
        dct2(np.zeros((2, 3, 4)))
    assert str(exc.value) == "dct2 expects a frame or a batch of frames, got ndim=3"


@pytest.mark.parametrize("op", [dft_real_part, idft_from_real, dct2, dct3, rfft_packed, irfft_packed],
                         ids=lambda op: op.__name__)
@pytest.mark.parametrize("frames,dtype", [("ab", "<U2"), (np.ones((2, 4)) * 1j, "complex128")], ids=["str", "complex"])
def test_non_real_frames_are_an_input_error_not_a_cast(op, frames, dtype):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning would mean the imaginary part was dropped
        with pytest.raises(InvalidInputError) as exc:
            op(frames)
    assert str(exc.value) == f"{op.__name__} input must hold real numbers, got dtype {dtype}"


@pytest.mark.parametrize("op", [dft_real_part, idft_from_real, dct2, dct3, rfft_packed, irfft_packed],
                         ids=lambda op: op.__name__)
@pytest.mark.parametrize(
    "workers,message",
    [
        (0, "workers must be >= 1"),
        (-5, "workers must be >= 1"),
        (2.5, "workers must be a whole number, got 2.5"),
        ("2", "workers must be a whole number, got '2'"),
        (None, "workers must be a whole number, got None"),
    ],
    ids=["zero", "negative", "fraction", "str", "none"],
)
def test_bad_workers_are_a_config_error(op, workers, message):
    with pytest.raises(InvalidConfigError) as exc:
        op(np.ones((2, 8)), workers=workers)
    assert str(exc.value) == message


@pytest.mark.parametrize("op,_oracle,_even", FORWARD_ORACLES)
def test_short_frames_rejected(op, _oracle, _even):
    with pytest.raises(InvalidInputError):
        op(np.zeros(1))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 16, 64, 1024])
def test_exact_invertibility_over_random_frames(rng, n):
    # 250 frames per length -> 1000 random frames over the whole suite.
    frames = rng.normal(size=(250, n))
    assert _rel_err(dct3(dct2(frames)), frames) <= 1e-12
    assert _rel_err(irfft_packed(rfft_packed(frames)), frames) <= 1e-12


@pytest.mark.parametrize("n", [4, 7, 16, 33, 64])
def test_even_part_identity(rng, n):
    x = rng.normal(size=n)
    got = idft_from_real(dft_real_part(x))
    assert_allclose(got, circular_even_part(x), atol=1e-12)


@pytest.mark.parametrize("op,_oracle,even_only", FORWARD_ORACLES)
def test_linearity(rng, op, _oracle, even_only):
    n = 64
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    a, b = -1.7, 0.4
    assert _rel_err(op(a * x + b * y), a * op(x) + b * op(y)) <= 1e-12


def test_dct2_parseval(rng):
    x = rng.normal(size=(100, 64))
    assert_allclose(
        np.linalg.norm(dct2(x), axis=1), np.linalg.norm(x, axis=1), rtol=1e-12
    )


@pytest.mark.parametrize("op,oracle,even_only", FORWARD_ORACLES)
@pytest.mark.parametrize("n", [4, 8, 16, 64])
def test_matches_brute_force_oracle(rng, op, oracle, even_only, n):
    if even_only and n % 2:
        pytest.skip("packed transform is even-length only")
    x = rng.normal(size=n)
    assert _rel_err(op(x), oracle(x)) <= 1e-12


def test_irfft_packed_matches_oracle(rng):
    p = rng.normal(size=16)
    assert _rel_err(irfft_packed(p), oracle_irfft_packed(p)) <= 1e-12


def test_batch_rows_match_single_frame_calls(rng):
    frames = rng.normal(size=(5, 32))
    for op in (dft_real_part, idft_from_real, dct2, dct3, rfft_packed, irfft_packed):
        batch = op(frames)
        rows = np.array([op(f) for f in frames])
        assert_allclose(batch, rows, atol=1e-13)


# ---------------------------------------------------------------------------
# In-place kernels
# ---------------------------------------------------------------------------

KERNEL_SHAPES = [(rows, n) for rows in (1, 7, 256, 333) for n in (2, 3, 4, 5, 33, 64, 69, 128, 1024)]


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize(
    "kind,rows,n", [(k, r, n) for k in KINDS for r, n in KERNEL_SHAPES if not (KINDS[k].even_window and n % 2)]
)
def test_kernels_in_place_and_out_of_place_equal_the_public_transform(rng, kind, rows, n):
    frames = rng.normal(size=(rows, n))
    want = PUBLIC_FORWARD[kind](frames, workers=1)
    kernel = KINDS[kind].forward
    assert np.array_equal(_bits(kernel(frames, np.empty_like(want), 1)), _bits(want))
    if not KINDS[kind].half_spectrum:
        a = frames.copy()
        assert kernel(a, a, 1) is a
        assert np.array_equal(_bits(a), _bits(want))


@pytest.mark.parametrize("rows,n", KERNEL_SHAPES)
def test_public_transforms_keep_the_bits_of_scipys_out_of_place_calls(rng, rows, n):
    a = rng.normal(size=(rows, n))
    assert np.array_equal(_bits(dft_real_part(a)), _bits(scipy.fft.fft(a).real))
    assert np.array_equal(_bits(idft_from_real(a)), _bits(scipy.fft.ifft(a).real))
    assert np.array_equal(_bits(idft_from_real(a[0])), _bits(scipy.fft.ifft(a[0]).real))
    assert np.array_equal(_bits(dct2(a)), _bits(scipy.fft.dct(a, type=2, norm="ortho")))
    want = scipy.fft.ifft(a, workers=2).real
    assert np.array_equal(_bits(_real_dft(a, a, 2, norm="forward")), _bits(want))
