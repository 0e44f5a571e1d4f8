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
