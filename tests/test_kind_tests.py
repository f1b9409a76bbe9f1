"""No module but the ambient's own tests which ambient it holds.

The ambient owns its constraint, curvature, retraction and frame seeds,
so a `.kind ==` or `.kind !=` test elsewhere in the library is knowledge
of the sphere or of flat space written in a second place.  The one
exception is the CLI's variation-check row, which reports the constrained
second variation only in the sphere ambient.
"""

import glob
import os
import re

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "viscmin")

ALLOWED = {("cli.py", 'if im.ambient.kind == "sphere":')}


def test_only_the_ambient_tests_an_ambient_kind():
    found = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        if name == "ambient.py":
            continue
        with open(path) as fh:
            found |= {(name, line.strip()) for line in fh
                      if re.search(r"\.kind (==|!=)", line)}
    assert found <= ALLOWED
