#!/usr/bin/env python3
"""Run the full latency evaluation and leave CSV artifacts behind.

Three sweeps: decode latency over 500 symbols, the provider preset table,
and cold/warm end-to-end reads at two off-site latencies. Writes
samples/CDF CSVs into --out-dir and prints the summary tables. --quick
shrinks every sweep for a smoke run.
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from r2o import bench  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results",
                        help="directory for CSV artifacts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small sweeps for a fast smoke run")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    decode_count = 40 if args.quick else 500
    reps = 3 if args.quick else 10
    iterations = 3 if args.quick else 9
    reports = []

    print("== decode latency ==")
    decode = bench.bench_decode(decode_count, rng=random.Random(args.seed))
    reports.append(decode)
    print(bench.render_table(["scenario", "median_ms", "mean_ms", "p95_ms"],
                             bench.summary_rows([decode])))
    for line in bench.check_decode_bounds(decode):
        print(f"bound violated: {line}")

    print("\n== provider presets ==")
    rows = bench.bench_providers(repetitions=reps)
    print(bench.render_table(["provider", "median_ms"], rows))
    for line in bench.check_provider_bounds(rows):
        print(f"bound violated: {line}")

    print("\n== end to end ==")
    for offsite in (147.0, 306.0):
        rng = random.Random(args.seed)
        cold = bench.bench_end_to_end(11.0, offsite, use_cache=False,
                                      iterations=iterations, rng=rng)
        warm = bench.bench_end_to_end(11.0, offsite, use_cache=True,
                                      iterations=iterations, rng=rng)
        reports.extend([cold, warm])
        print(bench.render_table(
            ["scenario", "median_ms", "mean_ms", "p95_ms"],
            bench.summary_rows([cold, warm])))
        print(f"cache saving at offsite {offsite:g} ms: "
              f"{cold.median - warm.median:.2f} ms")
        for line in bench.check_composition_bounds(cold, 11.0, offsite):
            print(f"bound violated: {line}")
        for line in bench.check_warm_bounds(warm, offsite):
            print(f"bound violated: {line}")

    samples_csv = out / "samples.csv"
    cdf_csv = out / "cdf.csv"
    bench.write_samples_csv(reports, str(samples_csv))
    bench.write_cdf_csv(reports, str(cdf_csv))
    print(f"\nwrote {samples_csv} and {cdf_csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
