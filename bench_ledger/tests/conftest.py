"""Self-tests of the bench ledger's own tools (``pytest bench_ledger/tests``).

Outside tier-1's ``testpaths``: they test the ruler, not the system.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
