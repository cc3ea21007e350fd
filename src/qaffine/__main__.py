"""Entry point for ``python -m qaffine``."""

import sys

from .cli import main

sys.exit(main())
