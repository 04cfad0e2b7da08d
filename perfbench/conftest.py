"""Make the package under ``src/`` importable for the benchmark's tests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
