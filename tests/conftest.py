"""Shared fixtures: the expensive solves are session-scoped and reused
by both the unit tests and the acceptance suite."""

import numpy as np
import pytest

import blowuplab.branching as br
import blowuplab.bvp as bvp
import blowuplab.oscillation as osc
import blowuplab.patterns as pat
import blowuplab.spectral as spectral
from blowuplab.model import ProblemParams

N02 = ProblemParams(0.2, 1.2, 1e-2)


def _trace_f0_up(start):
    """Criterion 07's F0-up continuation from p = n+1 to p = 6."""
    return br.trace_p_branch(start, np.round(np.arange(1.25, 6.001, 0.05), 10),
                             "F0-up", bvp.NewtonOptions(max_iters=500))


@pytest.fixture(scope="session")
def half_mesh():
    return bvp.Mesh.uniform(0.0, 50.0, 2000)


@pytest.fixture(scope="session")
def full_mesh():
    return bvp.Mesh.uniform(-50.0, 50.0, 4000)


@pytest.fixture(scope="session")
def kernel_table():
    return spectral.compute_kernel(15.0, 4000)


@pytest.fixture(scope="session")
def kernel_table_wide():
    # the duality pairing integrates polynomial weights up to degree 6
    # against the kernel tail; the domain must hold y^6 exp(-d y^(4/3))
    # below tolerance at the cutoff, and the table must stay dense enough
    # for the derivative ladder
    return spectral.compute_kernel(44.0, 20000)


@pytest.fixture(scope="session")
def orbit_n02():
    return bvp.shoot_periodic_full(0.2, 1, 0.45)


@pytest.fixture(scope="session")
def basic_family(half_mesh):
    """Converged F_0..F_3 at n=0.2, p=n+1."""
    out = {}
    f0 = bvp.solve_profile(N02, pat.guess_factory(
        pat.FamilySpec("basic", 0, n=0.2), half_mesh, N02))
    assert f0.converged
    out[0] = f0
    for l in (1, 2, 3):
        guess = pat.guess_factory(pat.FamilySpec("basic", l, n=0.2),
                                  half_mesh, N02, template=f0)
        sol = bvp.solve_profile(N02, guess)
        assert sol.converged, f"basic({l}) failed to converge"
        out[l] = sol
    return out


@pytest.fixture(scope="session")
def f0_profile(basic_family):
    return basic_family[0]


@pytest.fixture(scope="session")
def f0_branch_up(f0_profile):
    """The F0-up branch on [0, 50], m = 2000."""
    return _trace_f0_up(f0_profile)


@pytest.fixture(scope="session")
def f0_branch_down(f0_profile):
    """Criterion 07's F0-down continuation from p = n+1 to p = 1.05."""
    return br.trace_p_branch(f0_profile,
                             np.round(np.arange(1.19, 1.049, -0.01), 10),
                             "F0-down")


@pytest.fixture(scope="session")
def f0_branch_up_wide(f0_profile):
    """The same branch at the same h on [0, 100], m = 4000, started from
    F0 padded with zeros."""
    mesh = bvp.Mesh.uniform(0.0, 100.0, 2 * f0_profile.mesh.m)
    padded = np.concatenate([f0_profile.values,
                             np.zeros(mesh.m - f0_profile.mesh.m)])
    return _trace_f0_up(bvp.solve_profile(
        N02, bvp.Profile(mesh, padded, N02, f0_profile.bc)))


@pytest.fixture(scope="session")
def periodic_components():
    """Stable oscillatory components at the two amplitudes the figures pin."""
    out = {}
    for n in (0.75, 5.0):
        mu = (2.0 * n + 3.0) / n
        scale = osc.equilibrium_value(n, mu)
        init = osc.OscState(0.0, 0.5 * scale, 0.0, 0.0)
        out[n] = osc.find_periodic_osc(n, mu, init)
    return out


@pytest.fixture(scope="session")
def f4_profile(half_mesh, orbit_n02):
    guess = pat.guess_factory(pat.FamilySpec("osc_plus", 4, n=0.2),
                              half_mesh, N02, orbit=orbit_n02)
    sol = bvp.solve_profile(N02, guess)
    assert sol.converged
    return sol
