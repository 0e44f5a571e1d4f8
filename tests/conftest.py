import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """Count every np.fft.fft and np.fft.ifft call made while installed."""
    calls = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
    return calls
