"""``python -m fcomp``: the command-line tool of ``fcomp.cli``."""

from .cli import main

main()
