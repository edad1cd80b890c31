"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from dopwave import codes, doppler


@pytest.fixture
def frank_train():
    """Cyclic train of 8 pulses over a length-64 Frank code and its reverse.

    x[8a+b] = exp(2j*pi*a*b/8) has a flat spectrum at its own 64 DFT points,
    so 64 samples of C_0(z) are constant although c_0 has sidelobes; the
    second code, conj(reversed x), has the same autocorrelation.
    """
    x = np.outer(np.arange(8), np.arange(8)).ravel() % 8
    phases = np.column_stack([x, -x[::-1] % 8])
    return doppler.build_cyclic_train(codes.Ccm.from_phases(phases, 8), 8)
