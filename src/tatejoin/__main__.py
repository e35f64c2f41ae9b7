"""``python -m tatejoin``: the same command line as the ``tatejoin`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
