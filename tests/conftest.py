import pytest

from biphoton import SpectralParams, build_jsa, preset

# Amplitudes on which the pair-sum overlaps are held against the dense
# reference: asymmetry ratio and pump coherence time (fs).
REFERENCE_AMPLITUDES = {
    "default": (1.0, 120.0),
    "rho=0.5": (0.5, 120.0),
    "rho=2": (2.0, 120.0),
    "tau_p=60": (1.0, 60.0),
    "tau_p=6300": (1.0, 6300.0),
    "rho=2,tau_p=60": (2.0, 60.0),
    "rho=2,tau_p=6300": (2.0, 6300.0),
}


@pytest.fixture(params=list(REFERENCE_AMPLITUDES.values()), ids=list(REFERENCE_AMPLITUDES))
def reference_jsa(request):
    rho, tau_p = request.param
    return build_jsa(SpectralParams(asymmetry_ratio=rho, pump_coherence_time=tau_p))


@pytest.fixture(scope="session")
def default_params():
    return SpectralParams()


@pytest.fixture(scope="session")
def default_jsa(default_params):
    return build_jsa(default_params)


@pytest.fixture(scope="session")
def fig3a_dip():
    return preset("fig3a_dip")
