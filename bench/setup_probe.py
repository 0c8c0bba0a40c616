"""Set-up a CLI user pays on every call: import eqdeform, parse the inputs.

Run as ``python3 bench/setup_probe.py FILE.prob...`` in a fresh
interpreter; ``bench/run.py`` times the whole process as ``setup_s``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import eqdeform.cli  # noqa: E402  (imports every layer, as the CLI does)
from eqdeform.problem import parse_problem  # noqa: E402

for path in sys.argv[1:]:
    parse_problem((ROOT / path).read_text(encoding="utf-8"))
