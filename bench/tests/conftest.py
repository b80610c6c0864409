"""Make the program importable for in-process benchmark tests."""

from __future__ import annotations

import sys

from bench.spec import ROOT

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
