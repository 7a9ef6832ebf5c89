"""The ledger's modules import each other as siblings (``run.py`` is run
as a script); put their directory on the path for the tests too."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
