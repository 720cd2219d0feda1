"""``python -m cuberec``: the command-line interface of ``cuberec.cli``."""

import sys

from .cli import main

sys.exit(main())
