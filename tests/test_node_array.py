"""The spectrum and Newton paths read the family's node array in place.

A variation basis holds its samples as one node array of values and chart
derivatives (VariationBasis.jet), in the slot order of
energy.node_coordinates.  Re-concatenating separate sample triples into
node coordinates is a copy of that array, made for every kernel chunk or
Newton step; energy.node_coordinates stays for callers that hold separate
triples, but the pencil, the gradient, the diagonal and the Newton solver
never call it.
"""

import os
import re

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "viscmin")


def test_no_node_coordinates_on_the_spectrum_and_newton_paths():
    found = []
    for name in ("morse.py", "continuation.py"):
        with open(os.path.join(SRC, name)) as fh:
            found += [(name, line.strip()) for line in fh
                      if re.search(r"node_coordinates\s*\(", line)]
    assert found == []
