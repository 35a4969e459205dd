import sys
from pathlib import Path

# this checkout's sources before any installed leafalg, and the test helpers
HERE = Path(__file__).parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
