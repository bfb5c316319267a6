"""Ablation — sensitivity of the guardbanding gain to the delta_T margin.

Algorithm 1 compensates its convergence error with a small delta_T margin
(the paper uses the same threshold for convergence and compensation).  This
ablation sweeps delta_T and shows the gain it costs: too large a margin
gives back the very headroom thermal-aware timing recovered, while a tiny
margin risks optimism against the fixed-point residual.
"""

from repro.core.guardband import GuardbandConfig, thermal_aware_guardband
from repro.core.margins import guardband_gain, worst_case_frequency
from repro.reporting.tables import format_table

DELTA_TS = (0.5, 1.0, 2.0, 4.0, 8.0)
BENCH = "sha"


def test_ablation_delta_t(benchmark, suite_flows, fabric25):
    flow = suite_flows[BENCH]
    f_wc = worst_case_frequency(flow, fabric25)

    def sweep():
        rows = []
        for delta_t in DELTA_TS:
            result = thermal_aware_guardband(
                flow, fabric25, 25.0, config=GuardbandConfig(delta_t=delta_t)
            )
            rows.append(
                (
                    delta_t,
                    result.frequency_hz,
                    guardband_gain(result.frequency_hz, f_wc),
                    result.iterations,
                )
            )
        return rows

    rows = benchmark(sweep)
    print()
    print(
        format_table(
            ["delta_T (C)", "freq (MHz)", "gain (%)", "iterations"],
            [
                (dt, f"{f / 1e6:.1f}", f"{g * 100:.1f}", iters)
                for dt, f, g, iters in rows
            ],
            title=f"Ablation — delta_T margin on '{BENCH}' at Tamb=25C",
        )
    )
    gains = [g for _, _, g, _ in rows]
    # Monotone: more margin, less gain; but even 8 C of margin must keep a
    # large advantage over the worst-case baseline.
    assert all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))
    assert gains[-1] > 0.15
    # The paper's 2 C default sits in the flat region: within 3 points of
    # the aggressive 0.5 C setting.
    assert gains[0] - gains[2] < 0.03
