import pytest

from imnomarc import analysis


@pytest.fixture
def pair_spectra(monkeypatch) -> list:
    """The noise variance of each ``analysis._pair_spectrum`` pass the test makes."""
    calls = []
    spectrum = analysis._pair_spectrum

    def counted(x, sigma2):
        calls.append(sigma2)
        return spectrum(x, sigma2)

    monkeypatch.setattr(analysis, "_pair_spectrum", counted)
    return calls
