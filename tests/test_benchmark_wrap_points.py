"""The benchmark's tracer still finds and binds what it wraps.

perfbench/tracing.py replaces functions of nulgi's modules by name and its
counter hooks bind their arguments by name (dataset, n, tuples, config) and
call len(dataset). A rename in src/ would leave a wrap point missing or
break a hook only when the benchmark runs; this test runs the tracer, as
the benchmark's child installs it, on one small analysis per order.
"""

import sys
from pathlib import Path

import pytest

from nulgi.cli import EXIT_OK, main
from nulgi.dataio import write_dataset_csv
from nulgi.oscillation import OscParams
from nulgi.synthetic import generate_synthetic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer  # noqa: E402

PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)
PARAMS_JSON = '{"dm2": 2.4e-3, "sin2_2theta": 0.95, "baseline_km": 735.0}'

# Per-tuple scalar functions the analysis no longer calls, and the row
# writer that emit_report replaced: the tracer reports them missing and
# wraps everything else.
MISSING = [
    "nulgi.pipeline.evaluate_tuple",
    "nulgi.pipeline.write_table_csv",
    "nulgi.pipeline.k_n_quantum_from_survival",
    "nulgi.pipeline.k_n_classical",
    "nulgi.selection.k_n_quantum_from_survival",
    "nulgi.montecarlo.k_n_quantum_from_survival",
    "nulgi.montecarlo.survival_probability",
]


@pytest.fixture
def tracer():
    tracer = Tracer()
    missing, restore = tracer.install()
    try:
        yield tracer, missing
    finally:
        restore()


@pytest.mark.parametrize("order", [3, 4])
def test_the_tracer_wraps_and_counts_an_analysis(tmp_path, tracer, order):
    tracer, missing = tracer
    assert missing == MISSING
    data = tmp_path / "spectrum.csv"
    write_dataset_csv(generate_synthetic(PARAMS, "quantum", 30, 0.5, 50.0, 0.05, 0), data)
    argv = [
        "analyze", "--data", str(data), "--out-dir", str(tmp_path / "out"),
        "--params", PARAMS_JSON, "--order", str(order), "--tolerance", "0.005",
        "--replicas", "1000", "--seed", "0",
    ]
    assert tracer.call("cli", main, argv) == EXIT_OK
    assert tracer.counts["selection.tuples_kept"] > 0
    for name in ("dataio.parse", "selection.attach", "selection.select", "montecarlo.fit"):
        assert tracer.calls[name] == 1, name
    # tuples.csv, points.csv, curve.csv and null_counts.csv.
    assert tracer.calls["dataio.emit_report"] == 4
    # Order 3 draws its null from the exact law; order 4 runs the Monte
    # Carlo null, whose hook reads the dataset and the tuples.
    assert tracer.counts["montecarlo.null_tuples"] == (
        0 if order == 3 else tracer.counts["selection.tuples_kept"]
    )
    assert tracer.calls["montecarlo.null"] == (order == 4)
