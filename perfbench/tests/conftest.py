"""Put the package sources and the benchmark modules on sys.path."""

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1]
for path in (_BENCH.parent / "src", _BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
