"""Shared fixtures: frozen profiles and the expensive solves reused across files.

Everything here is session-scoped because a Newton solve on the default
grid takes a noticeable fraction of a second and the suite reuses the
same handful of waves many times.
"""

import numpy as np
import pytest

from forcedwaves.environment import (
    Algebraic,
    EnvironmentProfile,
    ExpTail,
    IteratedLog,
    Power,
)
from forcedwaves import wavesolver as ws


# ---------------------------------------------------------------------------
# profiles


@pytest.fixture(scope="session")
def exp2():
    # plateau 1, exponential tail e^{-2z}; transition around z=4
    return EnvironmentProfile(1.0, ExpTail(kappa=2.0), 4.0, 4.0)


@pytest.fixture(scope="session")
def alg3():
    # integrable algebraic tail z^{-3}; tilde-a integrable, a^2 integrable
    return EnvironmentProfile(1.0, Algebraic(gamma=3.0), 8.0, 4.0)


@pytest.fixture(scope="session")
def alg05():
    # slowly decaying algebraic tail z^{-1/2}; tilde-a NOT integrable
    return EnvironmentProfile(1.0, Algebraic(gamma=0.5), 8.0, 4.0)


@pytest.fixture(scope="session")
def pow2():
    # power tail Power(gamma=2, p=0.5): a = 2 z^{-1/2}
    return EnvironmentProfile(1.0, Power(gamma=2.0, p=0.5), 15.0, 10.0)


@pytest.fixture(scope="session")
def itlog():
    # iterated-log tail with r=2 > c=1 used in most tests
    return EnvironmentProfile(1.0, IteratedLog(k=1, r=2.0, lead=1.0), 15.0, 10.0)


@pytest.fixture(scope="session")
def itlog2():
    # two-fold iterated-log tail (k = 2, r = 2.8 > c = 1): the only fixture
    # whose a'' sums more than one correction term
    return EnvironmentProfile(1.0, IteratedLog(k=2, r=2.8, lead=1.0), 30.0, 4.0)


def _blend_formula(profile, z):
    """alpha (1 - s) + tail(max(z, z_star)) s at every point, s the clipped
    7th-order smoothstep, scalars on 0-d numpy arithmetic: the reference for
    EnvironmentProfile.a, which skips the blend where s is exactly 0 or 1."""
    z_arr = np.asarray(z, dtype=float)
    x = np.clip((z_arr - profile.z_star) / (2.0 * profile.transition_width), 0.0, 1.0)
    s = x ** 4 * (35.0 + x * (-84.0 + x * (70.0 - 20.0 * x)))
    t = profile.tail.value(np.maximum(z_arr, profile.z_star))
    out = profile.alpha * (1.0 - s) + t * s
    return out if np.ndim(z) else float(out)


@pytest.fixture(scope="session")
def blend_formula():
    return _blend_formula


# ---------------------------------------------------------------------------
# shared solves


@pytest.fixture(scope="session")
def exp_wave_c1(exp2):
    return ws.solve_wave(exp2, 1.0, "sigma1")


@pytest.fixture(scope="session")
def alg3_minimal(alg3):
    return ws.solve_wave(alg3, 1.0, "sigma1")


@pytest.fixture(scope="session")
def alg3_maximal(alg3):
    return ws.solve_wave(alg3, 1.0, "slow_maximal")


@pytest.fixture(scope="session")
def alg3_family(alg3):
    # three nonexponential members ordered by amplitude constant
    return ws.wave_family(alg3, 1.0, (0.5, 1.0, 2.0))


@pytest.fixture(scope="session")
def pow2_maximal(pow2):
    return ws.solve_wave(pow2, 1.0, "profile_itself")


@pytest.fixture(scope="session")
def exp_continuation(exp2):
    # sweep through the existence threshold c = 2 sqrt(alpha) = 2
    return ws.continuation_in_c(exp2, 0.2, 2.4, 45, "sigma1")
