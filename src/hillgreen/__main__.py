"""``python -m hillgreen``: the command line of ``hillgreen.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
