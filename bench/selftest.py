"""Fast self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload untraced and traced on tiny grids and path counts, and
checks that the last line of output is the result object carrying every
metric ``BENCHMARK.json`` names, with its unit.  Then checks that broken
outputs become failures with a non-zero exit: once through a wrong solve
reference, once through a perturbed ``optimal_quote``.  Last, it checks that
the benchmark exits non-zero, printing no result, in a directory holding only
``BENCHMARK.json`` and the benchmark.  Takes well under a minute.
"""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from unittest import mock

import run

run.import_path()
run.cap_blas_threads()

import harness  # noqa: E402
import rfqmm  # noqa: E402

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Tiny variants of the workloads, with the origin values their solves give.
TINY = {
    "paper-2asset": dict(
        solve_horizon=0.05, horizon=0.2, adjust_horizon=0.1, nodes=21,
        origin_values=(313.24232354449975, 313.4128606070294),
    ),
    "paper-30asset": dict(
        solve_horizon=0.005, horizon=0.1, adjust_horizon=0.05, nodes=11,
        origin_values=(157.10112048683024,),
    ),
}


def tiny_workloads() -> dict:
    out = {}
    for name, spec in harness.WORKLOADS.items():
        out[name] = dataclasses.replace(
            spec,
            rfqs=40,
            adjust_paths=30,
            sims=tuple(dataclasses.replace(s, paths=min(s.paths, 120)) for s in spec.sims),
            backtest_paths=min(spec.backtest_paths, 20),
            backtest_s=0.0,
            **TINY[name],
        )
    return out


def run_main(workload: str, trace: int):
    out, err = io.StringIO(), io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = harness.main(argv)
    return code, json.loads(out.getvalue().splitlines()[-1]), err.getvalue()


failures = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def check_metrics(result: dict, section: str, where: str) -> None:
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    got = result["metrics"]
    expect(set(got) == set(wanted), f"{where}: metrics {sorted(set(got) ^ set(wanted))} differ")
    for name, unit in wanted.items():
        if name in got:
            value = got[name]["value"]
            expect(got[name]["unit"] == unit, f"{where}: {name} unit {got[name]['unit']}")
            expect(
                isinstance(value, (int, float)) and math.isfinite(value),
                f"{where}: {name} = {value!r}",
            )


def main() -> int:
    tiny = tiny_workloads()
    names = [w["name"] for w in SPEC["workloads"]]
    expect(sorted(names) == sorted(harness.WORKLOADS), f"workloads {names}")
    with mock.patch.dict(harness.WORKLOADS, tiny):
        for name in names:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                where = f"{name} trace {trace}"
                code, result, err = run_main(name, trace)
                expect(code == 0, f"{where}: exit code {code}\n{err}")
                expect(
                    set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{where}: result keys {sorted(result)}",
                )
                expect(result["correct"] and result["failed"] == 0, f"{where}: {result}")
                expect(result["attempted"] >= 1, f"{where}: attempted {result['attempted']}")
                check_metrics(result, section, where)
                print(f"ok   {where}: {len(result['metrics'])} metrics")

        name = names[0]
        wrong = tiny[name].origin_values[0] * (1.0 + 1e-6)
        broken = dataclasses.replace(tiny[name], origin_values=(wrong,) + tiny[name].origin_values[1:])
        with mock.patch.dict(harness.WORKLOADS, {name: broken}):
            code, result, _ = run_main(name, 0)
        expect(code != 0 and not result["correct"] and result["failed"] >= 1,
               f"a wrong solve reference passed: exit {code}, {result}")
        print(f"ok   wrong solve reference: exit {code}, failed {result['failed']}")

        real = rfqmm.optimal_quote

        def perturbed(*args, **kwargs):
            answer = real(*args, **kwargs)
            return dataclasses.replace(answer, delta=answer.delta + 1e-3)

        with mock.patch.object(rfqmm, "optimal_quote", perturbed):
            code, result, _ = run_main(name, 0)
        expect(code != 0 and not result["correct"] and result["failed"] >= 1,
               f"perturbed quotes passed: exit {code}, {result}")
        print(f"ok   perturbed optimal_quote: exit {code}, failed {result['failed']}")

    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, f"{bare}/{path}",
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = SPEC["command"] + ["--workload", names[0], "--seed", "1", "--seconds", "1",
                                 "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0, f"ran without the package: exit {proc.returncode}")
        expect('"correct"' not in proc.stdout, f"printed a result without the package: {proc.stdout}")
        print(f"ok   without the package: exit {proc.returncode}")

    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
