"""Self-test of the benchmark itself, at tiny scale (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

1. a TAMPER fault on one provider makes every workload report a failure
   (``correct: false`` or ``failed > 0``);
2. the count metrics of the single-client workloads (``analytics``,
   ``ingest``) repeat exactly across two runs with one seed;
3. every workload's traced run passes its own checks (wrapper coverage,
   wrapped bytes == NetworkStats == telemetry ``net.bytes``, untraced ==
   traced bytes), and its untraced phase moves exactly the bytes and
   messages the untraced run counts;
4. in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
   the benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analytics", "oltp", "ingest")


def bench(workload: str, seed: int, trace: int, *extra: str, cwd: Path = ROOT):
    """Run the benchmark; returns (exit code, result dict or None, detail dict)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = detail = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    return proc.returncode, result, detail


def main() -> int:
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        _, result, _ = bench(workload, 5, 0, "--inject-tamper")
        reported = result is not None and (not result["correct"] or result["failed"] > 0)
        expect(reported, f"{workload}: TAMPER fault is reported as a failure")

    for workload in ("analytics", "ingest"):
        runs = [bench(workload, 7, 0) for _ in range(2)]
        counts = [
            (detail["counted"], {k: result["metrics"][k]["value"]
                                 for k in ("wire_bytes_per_op", "modelled_ms_per_op")})
            for _, result, detail in runs
        ]
        expect(all(code == 0 for code, _, _ in runs), f"{workload}: untraced runs pass")
        expect(counts[0] == counts[1], f"{workload}: count metrics repeat exactly for one seed")

    for workload in WORKLOADS:
        code, result, detail = bench(workload, 7, 1)
        expect(code == 0 and result["correct"], f"{workload}: traced run passes its self-checks")
        if workload != "oltp" and detail is not None:
            _, _, untraced = bench(workload, 7, 0)
            phase_a = detail["phases"]["A"]
            expect(
                (phase_a["bytes"], phase_a["messages"])
                == (untraced["counted"]["bytes"], untraced["counted"]["messages"]),
                f"{workload}: traced run's untraced phase moves the untraced run's bytes",
            )

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result, _ = bench("analytics", 1, 0, cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, "without src/ the benchmark fails and prints no result")

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
