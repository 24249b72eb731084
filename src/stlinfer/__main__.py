"""`python -m stlinfer`: the command-line interface of `stlinfer.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
