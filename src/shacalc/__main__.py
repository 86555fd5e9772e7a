"""``python -m shacalc``: the same command line as the ``shacalc`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
