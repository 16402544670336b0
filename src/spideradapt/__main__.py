"""``python -m spideradapt``: the same command line as the ``spideradapt`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
