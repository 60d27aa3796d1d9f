"""perfbench times the package's layers by wrapping module attributes, so a
removed or renamed wrap site breaks the traced benchmark; this catches it
without running the benchmark."""
import json
import os
import subprocess
import sys

from conftest import REPO_ROOT

INSTALL_AND_REMOVE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
from spans import Tracer

tracer = Tracer()
workloads.install_tracing(tracer)
patches = list(tracer._patches)
tracer.unwrap_all()
restored = all(getattr(module, attr) is original for module, attr, original in patches)
print(json.dumps({"sites": len(patches), "restored": restored}))
"""


def test_perfbench_tracing_installs_at_every_site_and_restores_it():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        # -B: leave no bytecode in perfbench/, which this test only reads
        [sys.executable, "-B", "-c", INSTALL_AND_REMOVE, str(REPO_ROOT / "perfbench")],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["restored"] and result["sites"] > 0
