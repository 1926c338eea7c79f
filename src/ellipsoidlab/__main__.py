"""Command line entry point: `python -m ellipsoidlab`."""
import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
