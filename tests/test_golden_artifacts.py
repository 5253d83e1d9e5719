"""Golden digests: every artifact and every CLI output, pinned byte for byte.

A seed-0, 30-bin quantum spectrum (5% errors) is analyzed at order 3 and,
with --fit-curve, at order 4 with 2000 replicas, and passed to `triples` at
both orders. A seed-0, 100-bin quantum spectrum (5% errors, 29 560 order-4
tuples) is analyzed at order 4 with --fit-curve and 200 replicas, and passed
to `triples` at order 4: the scale at which selection, the K columns and the
writers handle tens of thousands of tuples. The SHA-256 of every file the
runs write, and of each run's stdout and stderr, must match the digests
below. Refactors of the writers and serializers are checked against them: a
change that moves a single byte of any artifact fails here. `triples` writes
the tuples.csv and points.csv of `analyze` without --fit-curve, so its
digests repeat analyze's where the two runs share a spectrum and an order.

The digests were recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1
on x86-64 Linux. Other library versions can move the last bits of a
transcendental function and with them the digests, so a mismatch under
different versions is not by itself a regression.

The sampler is pinned apart: `simulate` on a classical_flat truth, with
--rel-error 0 (every sd is 0, so each bin is its clamped mean) and with
--rel-error 0.3 (many bins redraw), and the `curve` table on stdout.
"""

import hashlib

from nulgi.cli import EXIT_OK, main
from nulgi.dataio import write_dataset_csv
from nulgi.oscillation import OscParams
from nulgi.synthetic import generate_synthetic

PARAMS = OscParams(dm2=2.4e-3, sin2_2theta=0.95, baseline_km=735.0)
PARAMS_JSON = '{"dm2": 2.4e-3, "sin2_2theta": 0.95, "baseline_km": 735.0}'
VERSIONS = "Python 3.11.7, numpy 2.4.6, scipy 1.17.1"

ANALYZE_ARTIFACTS = (
    "report.json", "tuples.csv", "points.csv", "null_counts.csv", "curve.csv"
)
TRIPLES_ARTIFACTS = ("tuples.csv", "points.csv")

# (label and output directory, subcommand and its flags, files written);
# every run also gets --params and --data.
RUNS_30 = (
    ("analyze-n3", ["analyze", "--order", "3", "--replicas", "2000", "--seed", "0",
                    "--out-dir", "analyze-n3"], ANALYZE_ARTIFACTS),
    ("analyze-n4-fit", ["analyze", "--order", "4", "--replicas", "2000", "--seed", "0",
                        "--fit-curve", "--out-dir", "analyze-n4-fit"], ANALYZE_ARTIFACTS),
    ("triples-n3", ["triples", "--order", "3", "--out-dir", "triples-n3"], TRIPLES_ARTIFACTS),
    ("triples-n4", ["triples", "--order", "4", "--out-dir", "triples-n4"], TRIPLES_ARTIFACTS),
)
RUNS_100 = (
    ("analyze-n4-fit", ["analyze", "--order", "4", "--replicas", "200", "--seed", "0",
                        "--fit-curve", "--out-dir", "analyze-n4-fit"], ANALYZE_ARTIFACTS),
    ("triples-n4", ["triples", "--order", "4", "--out-dir", "triples-n4"], TRIPLES_ARTIFACTS),
)

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

DIGESTS = {
    "spectrum.csv": "277b16b2719a123664c2033f2bf1c756e430c45d50ed13269eb2b4f0804f7b94",
    "analyze-n3/stdout": "3faf9e28644cf55888c3be6575c1ad65982651156af3a31d010b25767c64c75c",
    "analyze-n3/stderr": EMPTY,
    "analyze-n3/report.json": "a0c0b6ff2d839ce7abe90a8545ad29d398212072909c2fcd5afbe80dfb22c389",
    "analyze-n3/tuples.csv": "bf1362605f4b846873558938efd52b6607b042f7be7d5fa7548557df45cad684",
    "analyze-n3/points.csv": "eacc5cd0bb5af00513a9186b0a1e7292beaa88072de7208216757b2ab08cc953",
    "analyze-n3/null_counts.csv": "955ccc7cbc4e27ec35e45e6dee0788897c53501f2a6b96653a95c71df35683fa",
    "analyze-n3/curve.csv": "6662bc52a3382502cb215a7da71404b425e7aebba9454ee31b82d74fd2d0cdf0",
    "analyze-n4-fit/stdout": "067cfba59e67d636051d8605d5dab8ba8b2a1030646a8ca639322ebb2a36afdd",
    "analyze-n4-fit/stderr": EMPTY,
    "analyze-n4-fit/report.json": "b2727e7950751753bcc21a789380b34c88f08fe919e2218a7273b05bd7a74d6a",
    "analyze-n4-fit/tuples.csv": "f892a239f9f3dde9a620923a74028da165df7a2f216b431a7af48524f01356a9",
    "analyze-n4-fit/points.csv": "eacc5cd0bb5af00513a9186b0a1e7292beaa88072de7208216757b2ab08cc953",
    "analyze-n4-fit/null_counts.csv": "558ed7b574106811e1304c526c03bae94565caa1b3850eff055b75ca785f17b6",
    "analyze-n4-fit/curve.csv": "5cff5aee2e4170678dcea835ae53c0f879eca33bcc769ca3a16cb8e88b32587c",
    "triples-n3/stdout": "1a69c62b4ff566d341a225a8301de9bbaa4fa8ae285293e215f055bef38ab074",
    "triples-n3/stderr": EMPTY,
    "triples-n3/tuples.csv": "bf1362605f4b846873558938efd52b6607b042f7be7d5fa7548557df45cad684",
    "triples-n3/points.csv": "eacc5cd0bb5af00513a9186b0a1e7292beaa88072de7208216757b2ab08cc953",
    "triples-n4/stdout": "0b1bc0efe56f9095462c717378af6231e34fdec9bb05c9b4c87121c99cd305fe",
    "triples-n4/stderr": EMPTY,
    "triples-n4/tuples.csv": "fd8766beb64ded816e708cf1ce795195715707ad0749dfc9db08958f3e3cae3a",
    "triples-n4/points.csv": "eacc5cd0bb5af00513a9186b0a1e7292beaa88072de7208216757b2ab08cc953",
}

DIGESTS_100 = {
    "spectrum.csv": "d1d994e6f1f9ffb072d0f63f6825f385d0c2822196505983dfd893e885df84d9",
    "analyze-n4-fit/stdout": "9dbe98aa20430d64304bb2a0d066b340fe92fdec4f99277cdf9385cfdd18bc89",
    "analyze-n4-fit/stderr": "52ff638b4cde0ba8956d21941dc3149593609d75aa9e8c953e96b28e4970c101",
    "analyze-n4-fit/report.json": "4e9720159f95f2d1e91a138b595794ff83d229277476426f1f0dde2fa76f6997",
    "analyze-n4-fit/tuples.csv": "f6dca851d54e59da21203c0df1cebcd0e49e20d0ee619ad87abf27de9df71285",
    "analyze-n4-fit/points.csv": "92b0f2f5d3b705d82fbe721700cd4a2078f0dac908dc09068b1040f9d470012e",
    "analyze-n4-fit/null_counts.csv": "90853e14ec6d1af6a937e3da50c62cae8559aebcfa832d19dad06e084db52757",
    "analyze-n4-fit/curve.csv": "a0255ffdc1a7420a2b406744b617e3a6ec518704273d152efc99879763d2c7b6",
    "triples-n4/stdout": "eea0253515b3713fdb35672293df8d909b9863fd10d251d3361e64296a77c865",
    "triples-n4/stderr": EMPTY,
    "triples-n4/tuples.csv": "88ef88ae8f06116c3cd818d179d9cdfeb919e1a00a5bbda52019ab4a9660047f",
    "triples-n4/points.csv": "92b0f2f5d3b705d82fbe721700cd4a2078f0dac908dc09068b1040f9d470012e",
}

# (label, subcommand and its flags, file written); every run also gets --params.
RUNS_SAMPLER = (
    ("simulate-flat", ["simulate", "--truth", "classical_flat", "--out", "flat.csv"], "flat.csv"),
    ("simulate-exact", ["simulate", "--rel-error", "0", "--out", "exact.csv"], "exact.csv"),
    ("simulate-wide", ["simulate", "--rel-error", "0.3", "--out", "wide.csv"], "wide.csv"),
    ("curve", ["curve"], None),
)

DIGESTS_SAMPLER = {
    "simulate-flat/stdout": "d6fc33738b6e425c776a7edc41883a3e1ca26a228ff1b9c6c5f7e774dfc1a9a2",
    "simulate-flat/stderr": EMPTY,
    "simulate-flat/flat.csv": "de5b47e55703b52814bafb68a2c0e4f836ae84c4a5ec14eed5f40c93e320cf0e",
    "simulate-exact/stdout": "effedc5a6629ba94d1ac66c0a652615ee5e5d7d94907a174c03d221edd036f50",
    "simulate-exact/stderr": EMPTY,
    "simulate-exact/exact.csv": "42da130f3c97e85f10b96d8a27fb4ddd9c9f2bf4a7f898de232b48499b762a8c",
    "simulate-wide/stdout": "9b51c6ede841024c2b4e0f292f7cdf2913929a89c7e996ab86291f343858ebcc",
    "simulate-wide/stderr": EMPTY,
    "simulate-wide/wide.csv": "77fe47afbf9684857f9316bdbc92f08682d47aa1fb102f547bf8805c2d93de39",
    "curve/stdout": "6662bc52a3382502cb215a7da71404b425e7aebba9454ee31b82d74fd2d0cdf0",
    "curve/stderr": EMPTY,
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_outputs(workdir, capsys, bins, runs) -> dict:
    """Run the golden commands on a seed-0 spectrum inside workdir.

    Maps each output to its digest. Paths are relative to workdir, because
    the config echo in report.json and the CLI's stdout both name them.
    """
    points = generate_synthetic(PARAMS, "quantum", bins, 0.5, 50.0, 0.05, seed=0)
    write_dataset_csv(points, workdir / "spectrum.csv")
    digests = {"spectrum.csv": _sha256((workdir / "spectrum.csv").read_bytes())}
    for label, argv, files in runs:
        code = main([argv[0], "--params", PARAMS_JSON, "--data", "spectrum.csv"] + argv[1:])
        assert code == EXIT_OK, label
        captured = capsys.readouterr()
        digests[f"{label}/stdout"] = _sha256(captured.out.encode("utf-8"))
        digests[f"{label}/stderr"] = _sha256(captured.err.encode("utf-8"))
        for name in files:
            digests[f"{label}/{name}"] = _sha256((workdir / label / name).read_bytes())
    return digests


def assert_golden(digests: dict, golden: dict) -> None:
    assert sorted(digests) == sorted(golden)
    changed = sorted(k for k in golden if digests[k] != golden[k])
    assert not changed, f"digests differ from the {VERSIONS} recording: {changed}"


def test_every_artifact_and_cli_output_matches_its_golden_digest(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert_golden(golden_outputs(tmp_path, capsys, 30, RUNS_30), DIGESTS)


def test_100_bin_artifacts_and_cli_output_match_their_golden_digests(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert_golden(golden_outputs(tmp_path, capsys, 100, RUNS_100), DIGESTS_100)


def test_sampler_outputs_match_their_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests = {}
    for label, argv, written in RUNS_SAMPLER:
        assert main([argv[0], "--params", PARAMS_JSON] + argv[1:]) == EXIT_OK, label
        captured = capsys.readouterr()
        digests[f"{label}/stdout"] = _sha256(captured.out.encode("utf-8"))
        digests[f"{label}/stderr"] = _sha256(captured.err.encode("utf-8"))
        if written is not None:
            digests[f"{label}/{written}"] = _sha256((tmp_path / written).read_bytes())
    assert_golden(digests, DIGESTS_SAMPLER)
