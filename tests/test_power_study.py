"""Smoke test of scripts/power_study.py on a small grid."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "power_study.py"
_spec = importlib.util.spec_from_file_location("power_study", _SCRIPT)
power_study = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(power_study)


def study_rows(capsys, *argv):
    assert power_study.main(["--seeds", "2", "--replicas", "2000", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2 seeds, 2000 replicas, order {}, tolerance 0.005".format(
        argv[argv.index("--order") + 1] if "--order" in argv else 3
    )
    assert lines[1].split() == ["truth", "rel_err", "n", "z16", "median", "z84", "exact>=6s"]
    return [line.split() for line in lines[2:]]


def test_order3_cells_report_the_share_of_exact_six_sigma_tails(capsys):
    rows = study_rows(capsys)
    assert [(row[0], float(row[1])) for row in rows] == [
        (truth, rel_error) for truth in ("quantum", "classical_flat")
        for rel_error in (0.08, 0.05, 0.03, 0.02)
    ]
    for row in rows:
        # "<share>% of <spectra with a law>": every 30-bin order-3 spectrum has one.
        share, of, spectra = row[6:]
        assert of == "of" and spectra == row[2] == "2"
        assert share in ("0%", "50%", "100%")
        if row[0] == "classical_flat":
            assert share == "0%" and row[3:6] == ["0.000"] * 3
    # The tails are exact, so the shares are fixed: one of the two quantum
    # spectra is past 6 sigma at 3% and at 2% errors, neither at 8% or 5%.
    shares = [row[6] for row in rows if row[0] == "quantum"]
    assert shares == ["0%", "0%", "50%", "50%"]


def test_order4_cells_have_no_exact_tail(capsys):
    rows = study_rows(capsys, "--order", "4", "--rel-errors", "0.05")
    assert [row[6] for row in rows] == ["-", "-"]
