import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(demos) == 4
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, f"{demo.name}:\n{proc.stderr[-2000:]}"
