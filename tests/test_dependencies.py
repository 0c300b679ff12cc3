"""bookvol runs on numpy and the standard library alone.

The import runs in a fresh interpreter and is compared with that
interpreter's own start-up modules, so site hooks that load third-party
modules before any user code do not count against the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
before = set(sys.modules)
import bookvol, bookvol.cli
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added - set(sys.stdlib_module_names))))
"""


def test_import_adds_only_numpy_and_bookvol():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["bookvol", "numpy"]
