"""Paper Table I — architectural parameters used in COFFE.

Prints the architecture description and verifies it matches the published
configuration exactly (this one is a configuration table, not a measured
result).
"""

from repro.reporting.tables import format_table

PAPER_TABLE1 = {
    "K": "6",
    "N": "10",
    "Channel tracks": "320",
    "Wire segment length": "4",
    "Cluster global inputs": "40",
    "SBmux": "12",
    "CBmux": "64",
    "localmux": "25",
    "Vdd, Vlow power": "0.8V, 0.95V",
    "BRAM": "1024 x 32 bit",
}


def test_table1_architectural_parameters(benchmark, arch):
    rows = benchmark(arch.table1_rows)
    print()
    print(format_table(["Parameter", "Value"], rows,
                       title="Table I — architectural parameters"))
    assert dict(rows) == PAPER_TABLE1
