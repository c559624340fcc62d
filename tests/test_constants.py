"""The package's SI constants against scipy's CODATA table."""

import scipy.constants

from casimir import constants


def test_constants_equal_scipy_bit_for_bit():
    for ours, reference in ((constants.c, scipy.constants.c),
                            (constants.e, scipy.constants.e),
                            (constants.k_B, scipy.constants.k),
                            (constants.hbar, scipy.constants.hbar)):
        assert ours.hex() == reference.hex()
