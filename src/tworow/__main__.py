"""``python -m tworow``: the same command line as the ``tworow`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
