"""Import the package from ``src``, so the suite runs from a bare checkout.

The path goes on ``sys.path`` for this process and at the front of
``PYTHONPATH`` for the subprocesses the tests start, which inherit the
environment.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
