"""Offline commands start without the HTTP stack: only an online redirect
fetch needs ``urllib.request`` and what it pulls in."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

#: Run as ``python -c PROBE SRC``: does what every CLI command does before it
#: reads input, and prints the modules that added, as a JSON list. It is
#: measured against the interpreter's own starting set because ``site``
#: imports differ between Pythons.
PROBE = """
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import serpsim.cli
serpsim.cli.build_parser()
serpsim.textsim.default_stopwords()
print(json.dumps(sorted(set(sys.modules) - before)))
"""

HTTP_STACK = ("urllib.request", "urllib.error", "http", "email", "ssl", "socket")


def test_cli_cold_path_skips_http_stack():
    probe = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    added = json.loads(probe.stdout)
    assert "serpsim.urlnorm" in added
    loaded = [name for name in added
              if any(name == top or name.startswith(top + ".") for top in HTTP_STACK)]
    assert loaded == []
