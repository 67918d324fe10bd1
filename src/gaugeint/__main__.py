"""Module entry point: python -m gaugeint ..."""

import sys

from .cli import main

sys.exit(main())
