"""``python -m sidesched``: the same command line as the ``sidesched`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
