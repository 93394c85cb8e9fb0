"""``python -m meanlab``: the same command line as the ``meanlab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
