import numpy as np
import pytest

# every transform of numpy.fft, full-size complex, real and Hermitian
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")


@pytest.fixture
def fft_calls(monkeypatch):
    """Count every numpy.fft transform called while installed."""
    calls = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in FFT_NAMES:
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    return calls


@pytest.fixture
def fft_length(monkeypatch):
    """Sum the lengths of the numpy.fft transforms called while installed.

    The length of a transform is that of its full signal: the ``n`` it is
    given, else the input's length, or 2 (m - 1) for an hfft or irfft of
    m one-sided coefficients.  A half-size hfft or ihfft on n points
    counts n, as does an fft on n points, so the sum weighs a transform by
    its size and not by its layout.
    """
    total = [0]

    def measured(name, fn):
        def wrapper(a, n=None, *args, **kwargs):
            m = np.shape(a)[-1]
            total[0] += n if n is not None else (2 * (m - 1) if name in ("hfft", "irfft") else m)
            return fn(a, n, *args, **kwargs)
        return wrapper

    for name in FFT_NAMES:
        monkeypatch.setattr(np.fft, name, measured(name, getattr(np.fft, name)))
    return total
