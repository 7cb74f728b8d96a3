"""The CLI's artifacts against checked-in sha256 digests.

Runs seven of CI's rerun commands in-process and compares the digest of
every artifact they write, caches and manifests left out, with
``artifact_digests.json``.  The bits depend on the numpy build and the CPU,
so the comparison runs only in the environment the digests were recorded
in; anywhere else the test is skipped, and the skip names both
environments.

After a change that moves bits on purpose, re-record with

    PYTHONPATH=src python3 tests/record_artifact_digests.py

and name every changed file in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from rfqmm.cli import _bundled_config, main

DIGESTS = Path(__file__).with_name("artifact_digests.json")
TWO = str(_bundled_config("paper-2asset"))
THIRTY = str(_bundled_config("paper-30asset"))

#: CI's rerun commands by name; each runs its argv lists into one out dir
COMMANDS = {
    "rerun": [["reproduce", "paper-2asset", "--stage", "all", "--grid", "21", "--paths", "50"]],
    "rerun30": [["reproduce", "paper-30asset", "--stage", "all", "--grid", "11", "--paths", "20"]],
    "rerunpp": [
        ["simulate", "--config", THIRTY, "--policy", "myopic", "--engine", "price_paths",
         "--paths", "300", "--event-logs"],
    ],
    "reruncol": [
        ["simulate", "--config", TWO, "--policy", "myopic", "--engine", "collapsed",
         "--paths", "300", "--event-logs"],
    ],
    "reruntl": [
        ["solve", "--config", TWO, "--grid", "21"],
        ["simulate", "--config", TWO, "--policy", "surface", "--engine", "thinning",
         "--grid", "21", "--paths", "300", "--event-logs"],
    ],
    "reruna": [
        ["solve", "--config", TWO, "--factors", "1", "--grid", "21"],
        ["adjust", "--config", TWO, "--factors", "1", "--grid", "21", "--paths", "300",
         "--rfq", "0:bid:12500", "--rfq", "1:ask:25000", "--rfq", "0:ask:5000"],
    ],
    # a 30-asset state with every component nonzero
    "solve_and_adjust_thirty": [
        ["solve", "--config", THIRTY, "--grid", "11"],
        ["adjust", "--config", THIRTY, "--grid", "11", "--paths", "100",
         "--inventory", "-2520,-2730,-420,2270,2880,840,-1970,-2970,-1240,1630,3000,1610,-1260,"
         "-2970,-1950,860,2880,2250,-450,-2740,-2510,30,2540,2720,400,-2290,-2870,-810,1990,2960",
         "--rfq", "0:bid:12500", "--rfq", "17:ask:25000", "--rfq", "29:ask:6250"],
    ],
}


def environment() -> dict:
    """What the artifacts' bits depend on besides the code."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    built = umath.__cpu_baseline__ + umath.__cpu_dispatch__
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        # the features numpy was built for that this CPU enables
        "numpy_cpu_features": [f for f in built if umath.__cpu_features__.get(f)],
    }


def artifact_digests(root: Path) -> dict:
    """Run every command into its own directory under ``root``; returns
    command -> artifact name -> sha256."""
    digests = {}
    for name, runs in COMMANDS.items():
        out = root / name
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--out-dir", str(out)])
            assert code == 0, (name, argv)
        digests[name] = {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.parent.name != "cache" and not p.name.startswith("manifest_")
        }
    return digests


def test_artifacts_match_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    here = environment()
    if here != recorded["environment"]:
        pytest.skip(
            f"artifact digests were recorded in {recorded['environment']}; "
            f"this environment is {here}"
        )
    want, got = recorded["digests"], artifact_digests(tmp_path)
    changed = [
        f"{command}/{name}"
        for command in sorted({**want, **got})
        for name in sorted({**want.get(command, {}), **got.get(command, {})})
        if want.get(command, {}).get(name) != got.get(command, {}).get(name)
    ]
    assert not changed, f"artifacts differ from {DIGESTS.name}: {', '.join(changed)}"
