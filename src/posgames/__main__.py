"""``python -m posgames``: the same command line as the ``posgames`` script."""

import sys

from .cli import main

sys.exit(main())
