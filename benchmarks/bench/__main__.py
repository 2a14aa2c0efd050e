"""Entry point, both for ``python -m benchmarks.bench`` and for
``python benchmarks/bench/__main__.py`` (what ``BENCHMARK.json`` names, and
how worker processes are started). A real file with a ``__main__`` guard:
forkserver workers re-import the main module and crash on a ``-c`` main.
"""

import sys
from pathlib import Path

# Started by path, ``sys.path[0]`` is this directory: make the package importable.
_ROOT = str(Path(__file__).resolve().parents[2])
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from benchmarks.bench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
