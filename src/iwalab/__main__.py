"""`python -m iwalab`: the command-line interface of `iwalab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
