"""tools/reach.py: the census recorder sees every thread of a process.

The census is a lower bound on what a run enters; a function that runs
only on a thread (the daemon's loop does) must still be counted.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach.py"

PROBE = textwrap.dedent("""\
    def on_main():
        return 1


    def on_thread():
        return 2
    """)

DRIVER = textwrap.dedent("""\
    import importlib.util
    import sys
    import threading

    tool, out, root = sys.argv[1:]
    spec = importlib.util.spec_from_file_location("census", tool)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    census.install(out, root)
    sys.path.insert(0, root + "/src/repro")
    import probe

    probe.on_main()
    worker = threading.Thread(target=probe.on_thread)
    worker.start()
    worker.join()
    """)


def test_a_thread_s_function_is_in_the_record(tmp_path):
    root, out = tmp_path / "tree", tmp_path / "records"
    (root / "src" / "repro").mkdir(parents=True)
    out.mkdir()
    (root / "src" / "repro" / "probe.py").write_text(PROBE)
    # a census of the suite itself must not record this probe instead
    env = {key: value for key, value in os.environ.items()
           if key != "REACH_OUT"}
    subprocess.run([sys.executable, "-c", DRIVER, str(TOOL), str(out),
                    str(root)], check=True, timeout=60, env=env)
    entered = {tuple(row) for record in out.glob("*.json")
               for row in json.loads(record.read_text())}
    assert ("src/repro/probe.py", 1, "on_main") in entered
    assert ("src/repro/probe.py", 5, "on_thread") in entered
