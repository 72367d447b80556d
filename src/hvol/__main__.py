"""Entry point for ``python -m hvol``."""

import sys

from .cli import main

sys.exit(main())
