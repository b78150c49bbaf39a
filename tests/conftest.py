import pytest

from biphoton import SpectralParams, build_jsa, preset


@pytest.fixture(scope="session")
def default_params():
    return SpectralParams()


@pytest.fixture(scope="session")
def default_jsa(default_params):
    return build_jsa(default_params)


@pytest.fixture(scope="session")
def fig3a_dip():
    return preset("fig3a_dip")
