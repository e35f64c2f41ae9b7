"""The benchmark's span recorder still finds every entry point it wraps.

``bench/spans.py`` patches named functions and methods of the package from
outside; a rename in ``src/`` would otherwise surface only when the traced
benchmark runs.  Installing and uninstalling the recorder in a fresh
interpreter fails here instead.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROGRAM = """
import sys
sys.path.insert(0, "bench")
import spans
recorder = spans.Recorder()
recorder.install()
recorder.uninstall()
print("installed", len(spans.SPANS))
"""


def test_span_recorder_installs_and_uninstalls():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", PROGRAM], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("installed ")
