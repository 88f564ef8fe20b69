"""fcomp: a multi-pass compiler for a PCF-like language with differential
verification of type and semantics preservation at every stage."""

import sys as _sys

# The passes and interpreters recurse over term structure, and CPS conversion
# makes terms whose depth grows with program size.  The default limit of 1000
# is too tight for generated programs of a few dozen nodes.
_sys.setrecursionlimit(max(_sys.getrecursionlimit(), 20_000))

__version__ = "0.1.0"

# The harness imports every module but the command-line tool, so that each
# is an attribute of the package after ``import fcomp``.
from . import harness  # noqa: E402,F401
