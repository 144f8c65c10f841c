import pytest

from leancast.simplex import nelder_mead


def test_the_only_minimizer_is_sarima_fit():
    with pytest.raises(NotImplementedError, match=r"sarima\.fit"):
        nelder_mead(lambda x: 0.0, [1.0, 2.0])
