import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.setdefault("QPKAM_THREADS", "1")
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
