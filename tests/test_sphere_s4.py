"""Codimension two in a curved ambient: surfaces of S^3 lifted into S^4.

Along the family (cos t Phi, sin t e_Q), the retraction of Phi + tan t e_Q
into S^4, the lifted surface is minimal in a 3-sphere of radius cos t,
and with c = cos^2 t
    Clifford torus  A_sigma = 2 pi^2 [c + sigma^2 (4 - c)^2 / c],
    equator         A_sigma = 4 pi [c + sigma^2 (2 - c)^2 / c].
The second t-derivative at t = 0 over the L2 norm of e_Q gives the
eigenvalue of the e_Q constant mode: -2 + 30 sigma^2 on the Clifford torus
and -2 + 6 sigma^2 on the equator.  At sigma = 0 the totally geodesic
S^2 in S^4 has index 2 and nullity 6 (J. Simons, "Minimal varieties in
Riemannian manifolds", Ann. of Math. 88, 1968).
"""

import numpy as np
import pytest

from viscmin import morse

TOL = 1e-10


@pytest.mark.parametrize("sigma", [0.0, 0.17, 0.3])
def test_equator_in_s4_matches_simons_and_the_closed_form(equator_s4, sigma):
    rep = morse.jacobi_spectrum(equator_s4, sigma, cutoff=2)
    assert (rep.index, rep.nullity) == (2, 6)
    # the constant modes along e_4 and e_Q
    low = np.sort(rep.eigenvalues)[:2]
    assert np.max(np.abs(low - (-2.0 + 6.0 * sigma ** 2))) <= TOL


@pytest.mark.parametrize("sigma, index", [(0.0, 6), (0.17, 5), (0.25, 1),
                                          (0.3, 0)])
def test_clifford_in_s4_matches_the_closed_form(clifford_s4, sigma, index):
    rep = morse.jacobi_spectrum(clifford_s4, sigma, cutoff=2)
    assert (rep.index, rep.nullity) == (index, 8)
    # the e_Q constant mode, which crosses zero at sigma = 1/sqrt(15)
    assert np.min(np.abs(rep.eigenvalues - (-2.0 + 30.0 * sigma ** 2))) \
        <= TOL
