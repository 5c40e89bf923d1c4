#!/usr/bin/env python3
"""Kill-and-resume smoke test: SIGTERM a report mid-grid, resume it.

Exercises the whole crash-safe execution contract end to end:

1. run ``python -m repro report <dir> --fast`` in a subprocess;
2. SIGTERM it once the grid journal shows completed cells — the run
   must exit with code 75 (``EX_TEMPFAIL``, "interrupted but
   resumable");
3. relaunch with ``--resume`` — the run must exit 0, serving every
   journaled cell without recomputation;
4. run the identical report uninterrupted into a second directory and
   assert every final ``.txt``/``.json`` report is **byte-identical**
   to the resumed run's, and that every grid cell was either resumed
   from the journal or computed fresh (no cell lost, none doubled).

Run with::

    python examples/kill_resume_smoke.py [outdir]

CI runs this on every push (the "Kill-and-resume smoke" job).  On a
fast machine the first pass may finish before the signal lands; the
script then still verifies the resume pass replays from the journal.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

#: The report jobs the smoke drives (two cheap ones keep CI snappy).
ONLY = ("fig3", "table3")

EXIT_RESUMABLE = 75


def report_cmd(outdir: pathlib.Path) -> list:
    cmd = [sys.executable, "-m", "repro", "report", str(outdir), "--fast"]
    for prefix in ONLY:
        cmd += ["--only", prefix]
    return cmd


def journal_done_keys(outdir: pathlib.Path) -> list:
    """Keys of completed cell records, in journal order (with repeats —
    a key appearing twice means a journaled cell was recomputed)."""
    path = outdir / "journal.jsonl"
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return []
    keys = []
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("kind") == "cell" and record.get("status") == "done":
            keys.append(record.get("key"))
    return keys


def journal_cells(outdir: pathlib.Path) -> int:
    """Completed cell records currently journaled (defensive count)."""
    return len(journal_done_keys(outdir))


def report_files(outdir: pathlib.Path) -> dict:
    """Final report artifacts: name -> bytes (recovery.json excluded)."""
    files = {}
    for path in sorted(outdir.iterdir()):
        if path.suffix in (".txt", ".json") and path.name != "recovery.json":
            files[path.name] = path.read_bytes()
    return files


def main() -> int:
    base = (
        pathlib.Path(sys.argv[1])
        if len(sys.argv) > 1
        else pathlib.Path(tempfile.mkdtemp(prefix="kill-resume-"))
    )
    interrupted_dir = base / "interrupted"
    clean_dir = base / "clean"

    # -- 1. start the report and SIGTERM it mid-grid -------------------
    proc = subprocess.Popen(report_cmd(interrupted_dir))
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline and proc.poll() is None:
        if journal_cells(interrupted_dir) >= 1:
            break
        time.sleep(0.05)
    finished_early = proc.poll() is not None
    if not finished_early:
        proc.send_signal(signal.SIGTERM)
    code = proc.wait()
    if finished_early:
        print("note: report finished before the signal; resume-only check")
        assert code == 0, f"uninterrupted report failed with {code}"
    else:
        assert code == EXIT_RESUMABLE, (
            f"SIGTERM'd report exited {code}, expected {EXIT_RESUMABLE}"
        )
    cells_before = journal_cells(interrupted_dir)
    print(f"interrupted with {cells_before} cells journaled (exit {code})")

    # -- 2. resume ------------------------------------------------------
    resume = subprocess.run(report_cmd(interrupted_dir) + ["--resume"])
    assert resume.returncode == 0, f"--resume exited {resume.returncode}"

    # -- 3. journal replay is byte-stable ------------------------------
    # Delete the rendered artifacts (keeping the journal) and resume
    # again: every job re-renders purely from journaled summaries and
    # must reproduce the exact bytes.
    resumed_files = report_files(interrupted_dir)
    for name in resumed_files:
        (interrupted_dir / name).unlink()
    rerender = subprocess.run(report_cmd(interrupted_dir) + ["--resume"])
    assert rerender.returncode == 0, f"re-render exited {rerender.returncode}"
    rerendered_files = report_files(interrupted_dir)
    assert rerendered_files == resumed_files, (
        "re-rendering from the journal changed bytes: "
        f"{[n for n in resumed_files if rerendered_files.get(n) != resumed_files[n]]}"
    )

    # -- 4. every artifact matches a clean run -------------------------
    # (reports hold simulated quantities only, so an independent
    # uninterrupted run must reproduce every file byte for byte.)
    baseline = subprocess.run(report_cmd(clean_dir))
    assert baseline.returncode == 0, f"baseline exited {baseline.returncode}"
    clean_files = report_files(clean_dir)
    assert set(resumed_files) == set(clean_files), (
        f"artifact sets differ: {set(resumed_files) ^ set(clean_files)}"
    )
    mismatched = [n for n in clean_files if resumed_files[n] != clean_files[n]]
    assert not mismatched, f"resumed reports differ from clean run: {mismatched}"

    # -- 4. no cell lost, none doubled, none recomputed ----------------
    total = journal_cells(clean_dir)
    resumed_keys = journal_done_keys(interrupted_dir)
    assert len(resumed_keys) == total, (
        f"journal holds {len(resumed_keys)} cells after resume, grid has {total}"
    )
    doubled = {k for k in resumed_keys if resumed_keys.count(k) > 1}
    assert not doubled, (
        f"{len(doubled)} journaled cells were recomputed on resume: "
        f"{sorted(doubled)[:4]}"
    )
    recovery = json.loads((interrupted_dir / "recovery.json").read_text())
    replayed = recovery["counters"]["journal_hits"]
    print(
        f"resume ok: {cells_before} cells survived the kill "
        f"({replayed} replayed through the runner, the rest via skipped "
        f"jobs), {total} cells total, none recomputed; "
        f"{len(clean_files)} report files byte-identical"
    )
    return 0


if __name__ == "__main__":
    # The subprocesses need the same import path this script runs with.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    if src.is_dir():
        existing = os.environ.get("PYTHONPATH", "")
        os.environ["PYTHONPATH"] = (
            f"{src}{os.pathsep}{existing}" if existing else str(src)
        )
    raise SystemExit(main())
