"""Re-record tests/artifact_digests.json in this environment.

    PYTHONPATH=src python3 tests/record_artifact_digests.py

Runs the commands of tests/test_artifact_digests.py in a temporary
directory and prints each artifact whose digest changed.
"""

import json
import sys
import tempfile
from pathlib import Path

# run as a script, its own directory is on sys.path
from test_artifact_digests import DIGESTS, artifact_digests, environment


def main() -> int:
    old = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as root:
        digests = artifact_digests(Path(root))
    was = old.get("digests", {})
    for command in sorted({**was, **digests}):
        before, after = was.get(command, {}), digests.get(command, {})
        for name in sorted({**before, **after}):
            if before.get(name) != after.get(name):
                print(f"changed: {command}/{name}")
    record = {"environment": environment(), "digests": digests}
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
