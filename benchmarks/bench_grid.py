"""Benchmark for the result cache.

``test_warm_report_speedup`` is the acceptance gate for the
content-addressed cache: it regenerates the full ``--fast`` report
twice against one shared cache directory, asserts the warm pass is at
least 10x faster with **zero** cache misses, and asserts every ``.json``
report is byte-identical between the cold and warm runs (the cache
round-trips summaries exactly; a hit can never change a figure).

It writes its numbers to ``benchmarks/BENCH_grid.json``, the committed
before/after record.
"""

import contextlib
import io
import json
import pathlib
import time

from repro.cache import ResultCache
from repro.experiments.parallel import default_jobs
from repro.experiments.report_all import regenerate_all

BENCH_JSON = pathlib.Path(__file__).parent / "BENCH_grid.json"


def _read_bench() -> dict:
    try:
        return json.loads(BENCH_JSON.read_text())
    except (OSError, ValueError):
        return {}


def _write_bench(key: str, value: dict) -> None:
    data = _read_bench()
    data[key] = value
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_warm_report_speedup(tmp_path):
    """Warm ``--fast`` report: >= 10x faster, 0 misses, same bytes."""
    cache = ResultCache(tmp_path / "cache")
    jobs = min(4, default_jobs())

    def report(outdir: pathlib.Path):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            stats = regenerate_all(outdir, fast=True, jobs=jobs, cache=cache)
        return time.perf_counter() - start, stats

    cold_s, cold = report(tmp_path / "cold")
    warm_s, warm = report(tmp_path / "warm")
    speedup = cold_s / warm_s

    # recovery.json is the run's *own* accounting (cache hit/miss
    # counters), which legitimately differs between a cold and a warm
    # pass; the byte-identity gate is about the figures.
    mismatched = [
        f.name
        for f in sorted((tmp_path / "cold").glob("*.json"))
        if f.name != "recovery.json"
        and f.read_bytes() != (tmp_path / "warm" / f.name).read_bytes()
    ]

    _write_bench(
        "warm_report",
        {
            "scenario": f"repro report --fast --jobs {jobs}, shared cache dir",
            "cold_wall_s": round(cold_s, 3),
            "warm_wall_s": round(warm_s, 4),
            "speedup": round(speedup, 1),
            "cold": cold,
            "warm": warm,
        },
    )

    assert warm["cache_misses"] == 0, f"warm run missed: {warm}"
    assert warm["cache_hits"] == cold["cache_hits"] + cold["cache_misses"]
    assert not mismatched, f"cold/warm reports differ: {mismatched}"
    assert speedup >= 10.0, (
        f"warm report speedup {speedup:.1f}x "
        f"({cold_s:.1f}s -> {warm_s:.3f}s) fell below 10x"
    )
