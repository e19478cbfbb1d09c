"""Layer times of the interval-removal system over the size ladder L = N - 1.

    python3 perfbench/ladder.py

Re-measures the per-layer baseline table (construct, build_gamma, the oracle,
numpy's SVD, the Gram build, the 128-trial sample, verify_certificate) with
n_max = 8, through the public API only, at L = 8, 16, 32, 64 and 96. Each cell
is the best of 5 wall-clock runs for L <= 32 and a single run above, as a
Markdown table. One L = 96 verify takes about 24 s, which is why the timed
workloads stop at L = 64.
"""

from __future__ import annotations

import sys
import time

import run

SIZES = (8, 16, 32, 64, 96)


def best_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def main() -> int:
    run.prepare()
    import numpy as np

    import expobasis as xb
    import reference as ref

    print("| L | construct | associated_matrix (Γ) | oracle | np.linalg.svd | Gram build "
          "| 128-trial sample (Gram prebuilt) | verify_certificate |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for big_m in SIZES:
        n = big_m + 1
        repeats = 5 if big_m <= 32 else 1
        lo, hi = ref.interval_removal_window(n)
        delta = 0.5 * (lo + hi)
        cert = xb.construct_interval_removal(n, n // 2, delta)
        matrix, _ = xb.associated_matrix(cert)
        freqs = cert.system.frequencies(8)
        form = xb.GramForm.build(cert.system, cert.domain_intervals, 8)
        cells = [
            best_ms(lambda: xb.construct_interval_removal(n, n // 2, delta), repeats),
            best_ms(lambda: xb.associated_matrix(cert), repeats),
            best_ms(lambda: xb.singular_values(matrix), repeats),
            best_ms(lambda: np.linalg.svd(matrix.entries, compute_uv=False), repeats),
            best_ms(lambda: xb.gram_matrix(freqs, cert.domain_intervals), repeats),
            best_ms(lambda: xb.riesz_ratio_sample(form, trials=128), repeats),
            best_ms(lambda: xb.verify_certificate(cert), repeats),
        ]
        print(f"| {big_m} | " + " | ".join(f"{c:.3g} ms" if c < 1e3 else f"{c / 1e3:.2f} s"
                                           for c in cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
