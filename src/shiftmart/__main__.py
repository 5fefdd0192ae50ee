"""``python -m shiftmart``: the same command line as the ``shiftmart`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
