"""``python -m mfcal``: the command-line interface of :mod:`mfcal.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
