"""`python -m dwlab`: the `dwlab` command, for a checkout run with PYTHONPATH=src."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
