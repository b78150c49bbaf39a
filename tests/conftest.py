import numpy as np
import pytest

from biphoton import JointSpectralAmplitude, SpectralParams, build_jsa, preset

# Amplitudes on which the pair-sum overlaps are held against the dense
# reference: asymmetry ratio, pump coherence time (fs) and a chirp (fs^2)
# on the arm-1 photon that makes its filter factor complex.
REFERENCE_AMPLITUDES = {
    "default": (1.0, 120.0, 0.0),
    "rho=0.5": (0.5, 120.0, 0.0),
    "rho=2": (2.0, 120.0, 0.0),
    "tau_p=60": (1.0, 60.0, 0.0),
    "tau_p=6300": (1.0, 6300.0, 0.0),
    "rho=2,tau_p=60": (2.0, 60.0, 0.0),
    "rho=2,tau_p=6300": (2.0, 6300.0, 0.0),
    "chirped": (1.0, 120.0, 3000.0),
}


@pytest.fixture(params=list(REFERENCE_AMPLITUDES.values()), ids=list(REFERENCE_AMPLITUDES))
def reference_jsa(request):
    rho, tau_p, chirp = request.param
    jsa = build_jsa(SpectralParams(asymmetry_ratio=rho, pump_coherence_time=tau_p))
    if not chirp:
        return jsa
    g1, g2, pump = jsa.factors
    return JointSpectralAmplitude(jsa.grid, (g1 * np.exp(1j * chirp * jsa.grid.points**2), g2, pump))


@pytest.fixture(scope="session")
def default_params():
    return SpectralParams()


@pytest.fixture(scope="session")
def default_jsa(default_params):
    return build_jsa(default_params)


@pytest.fixture(scope="session")
def fig3a_dip():
    return preset("fig3a_dip")
