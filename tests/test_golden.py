"""Golden digests: every file of every command's run directory, at smoke
scale, must hash to the value recorded here.

Criterion 9 compares a rerun with the run before it; this test compares a
run with a recorded one, so an unintended output change between two
versions of the code fails here. The commands run inside a temporary
directory with relative paths, because the config hash covers `input`.

The digests were recorded with CPython 3.11 and numpy 2.4.6 on x86-64.
Another numpy build or CPU may round the last digit of a float differently
(vectorised `exp` in the KDE, summation order in the signatures), which
changes a digest without a change in the code.

After a deliberate output change, re-record with
`PYTHONPATH=src python tests/test_golden.py` and say why in CHANGES.md.
"""

import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

from moodsig.cli import main

# synth reads only RUN; every other command reads RUN and MODEL, except
# `spectrum --source true`, which reads neither the seed nor MODEL
RUN = ["--seed", "5", "-o", "runs"]
MODEL = ["--n-trees", "6", "--bootstrap-samples", "40"]
SPECTRUM = ["--resolution", "48"]


def _commands(cohort_csv):
    common = ["--input", cohort_csv] + RUN + MODEL
    return [
        ["classify"] + common,
        ["predict-state"] + common,
        ["predict-score"] + common,
    ] + [
        ["spectrum"] + common + ["--source", source] + SPECTRUM
        for source in ("classify", "state")
    ] + [["spectrum", "--input", cohort_csv, "-o", "runs", "--source", "true"] + SPECTRUM]


def run_digests():
    """Run every command in the current directory; {path: sha256} of the
    files under `runs/`."""
    assert main(["synth", "--sizes", "4,4,4", "--weeks", "24"] + RUN) == 0
    (cohort_csv,) = Path("runs").glob("synth-*/cohort.csv")
    for argv in _commands(cohort_csv.as_posix()):
        assert main(argv) == 0, argv
    return {
        p.relative_to("runs").as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path("runs").rglob("*"))
        if p.is_file()
    }


DIGESTS = {
    "classify-a3392ccf86f2/loo_points.tsv":
        "f36b0fdd274ae57b26d48d01948b839b8bfef8b1e32fc0753f1930c187fe2166",
    "classify-a3392ccf86f2/meta.json":
        "e07ae1058adcabc8f61da27b88e602b265a512443744e1630a6525ad729acd8f",
    "classify-a3392ccf86f2/report_mrsf.json":
        "80deed114d0c25fecee7f7730eb72229504a0044f1ec200103e597c85a70063c",
    "classify-a3392ccf86f2/report_naive.json":
        "3e02d4946b17dc43fe4afc3c75f10d2ef6675bf10b9fb178e20cb10422cb8b74",
    "predict-score-a3392ccf86f2/meta.json":
        "3de0f119cab60945e9389e3c14e4d5d6f2fb09349c6853ddc182299a0dd7449e",
    "predict-score-a3392ccf86f2/reports.json":
        "b9f3073b8bc030700ff021e6abea38e11ddd5e850d87077d11f224e5a7a91138",
    "predict-state-a3392ccf86f2/meta.json":
        "0ec53ce5dca08b9d1e0860a0ef93fd6be1240616ff7816f75a314807f5fe23c9",
    "predict-state-a3392ccf86f2/reports.json":
        "282e9c50f1459958c397b5332bd4c24fbb0ac3baf8d1d6d76af70f8775eae689",
    "spectrum-68ba32a1f5d4/meta.json":
        "0a429b106338f239225d70aeeb294934cad407e570d08bd4f2c35f9ac52040e2",
    "spectrum-68ba32a1f5d4/points.tsv":
        "a07acd8ad2207d37fc82d8bc478738ee732ebca8975f88d633fcb41b926bc50e",
    "spectrum-68ba32a1f5d4/spectrum_classify_BD.svg":
        "4cac0461e0e7c162b84dfb1b9ca7b6d4d5d677f30b3dd5a0cf3305fa9ffc288f",
    "spectrum-68ba32a1f5d4/spectrum_classify_BD.txt":
        "5d69d5251871f6e4ab9b9985d78700991bad1bc8f28e50d032ca02a5877aabac",
    "spectrum-68ba32a1f5d4/spectrum_classify_BPD.svg":
        "6225f095814f3fd70c85d590fe32b301527ede22f8037b5905b5bb6b900b5e53",
    "spectrum-68ba32a1f5d4/spectrum_classify_BPD.txt":
        "4eb6c0b465055d0c1dd82f48cd2cfb369a0da8d3e11257b85ef0e6b10095f0d0",
    "spectrum-68ba32a1f5d4/spectrum_classify_HC.svg":
        "5616e8932c9a7b91edf019c94e07435e419a17820648b8c02de3d24faa6bdae7",
    "spectrum-68ba32a1f5d4/spectrum_classify_HC.txt":
        "7ac6589adb196149401899150358f5fcbefd4533cd7aad99218ac20d838bbd8e",
    "spectrum-6d9f38bbb79f/meta.json":
        "d1709f6decaaf8db6565bf40070f60a0fa96ce44c252250f22b99c3f4a99ea3e",
    "spectrum-6d9f38bbb79f/points.tsv":
        "93ac64e70681df7cf7d31c6cbbe6a1d11f873c80bcd71f602dec5134e81b7c14",
    "spectrum-6d9f38bbb79f/spectrum_state_BD_ASRM.svg":
        "a929fb4565638fc56eb0df5b311e3a035400be40621a93fa0df5f8a493fde8df",
    "spectrum-6d9f38bbb79f/spectrum_state_BD_ASRM.txt":
        "957bbb926e165fd05988a621343472c088d83779cbdceaff6658390045541903",
    "spectrum-6d9f38bbb79f/spectrum_state_BD_QIDS.svg":
        "01f878d3c83a8c5c1a469903b0f749f84e307abff12d938c8055979d6550f70c",
    "spectrum-6d9f38bbb79f/spectrum_state_BD_QIDS.txt":
        "7125fd0fbf2f74164a9a9b9b99447cc9f294b6fb7a05c5556e1e2a4bdbb4d806",
    "spectrum-6d9f38bbb79f/spectrum_state_BPD_ASRM.svg":
        "fed75c8e0a02e50b3b00adfd06109c69aefa6195f22c54ac977dbc242096d426",
    "spectrum-6d9f38bbb79f/spectrum_state_BPD_ASRM.txt":
        "3fbb7f59d13e5114f4d7f061956d7adec275d008c7e1529b6d4fc04cef17c813",
    "spectrum-6d9f38bbb79f/spectrum_state_BPD_QIDS.svg":
        "7c7708121eabe82541e128f3d41fbf4f10bc9c5fd38a1fffe899949123ef20cb",
    "spectrum-6d9f38bbb79f/spectrum_state_BPD_QIDS.txt":
        "3f6e4a5c5c6585bb4890df3267ab00b4e9083d3976964a9d181f7d4ededa259c",
    "spectrum-6d9f38bbb79f/spectrum_state_HC_ASRM.svg":
        "614ddc9ffc152ba2776b15955886ad27f265d942815c9e1939d7544df698d3e9",
    "spectrum-6d9f38bbb79f/spectrum_state_HC_ASRM.txt":
        "74ed5ef8bddd9f5b7d16b52e376765acf30a985ed5c8cdf7248cbdc4aee5ed5e",
    "spectrum-6d9f38bbb79f/spectrum_state_HC_QIDS.svg":
        "9ffb52e3806c1947ff3e6c3254ed3c64ca7648c396829ec1790bf6345fdf62d8",
    "spectrum-6d9f38bbb79f/spectrum_state_HC_QIDS.txt":
        "8d0c057232e9b5ea17fa89482c9db1cd6194ea500741ec8cedd08d66380fa9b3",
    "spectrum-af69be2a1848/meta.json":
        "d53364b623b8a20af0595e8ccbe4708c4a96fcecb1ef241ea27f3c46cc579f64",
    "spectrum-af69be2a1848/points.tsv":
        "ffa83d7cfe3a34d386968623290b1fc1d694fda98bea4eec733d378baa164c08",
    "spectrum-af69be2a1848/spectrum_true_BD_ASRM.svg":
        "414b63286bd7db9eb3ec61eb675f4bc2b4194a418834bde8d3b445f3e30e5d6e",
    "spectrum-af69be2a1848/spectrum_true_BD_ASRM.txt":
        "8f57902eba91c4bdf09379a8928655eb40b08e4cccfa33e2ff24eb355736d9da",
    "spectrum-af69be2a1848/spectrum_true_BD_QIDS.svg":
        "583bbcea5c97654ede35f063dd94a63ba62837f72ecbb724ce40ee4b5fdc5baf",
    "spectrum-af69be2a1848/spectrum_true_BD_QIDS.txt":
        "3a17dae447a6c7891928e5a316520255ab19e8855ec30787c0419137b7928930",
    "spectrum-af69be2a1848/spectrum_true_BPD_ASRM.svg":
        "036622c3bf730e3008611e5605523c86b70f7504c15d457fa4c1154db1b9959c",
    "spectrum-af69be2a1848/spectrum_true_BPD_ASRM.txt":
        "7c6125f2233af5c8d68299bd25a359cba379f4f0d0b6a955ca6581f7eb512ecf",
    "spectrum-af69be2a1848/spectrum_true_BPD_QIDS.svg":
        "ae4014e0743cb105b040106966aa9ef2e8e782915a1e7cdd3681317f35362744",
    "spectrum-af69be2a1848/spectrum_true_BPD_QIDS.txt":
        "7c9ebc6d3db583a676a7ae92e3af1a35b83b175f9f65f8a3044833f839f6ab2b",
    "spectrum-af69be2a1848/spectrum_true_HC_ASRM.svg":
        "32e5ebd27b115daadc66b5dfee73d972a1e1632ace25dbb043ee498cd1f5fbe7",
    "spectrum-af69be2a1848/spectrum_true_HC_ASRM.txt":
        "08a372e65413f35fa8d5c7f2fdf77c9f948a060aed15963929158b24e2738398",
    "spectrum-af69be2a1848/spectrum_true_HC_QIDS.svg":
        "49945f58941f6970b364e6aa98b83528f17346f10b8dbf4c3357e9c9c75f292b",
    "spectrum-af69be2a1848/spectrum_true_HC_QIDS.txt":
        "7c47e36c7a4ceb91348f84bf1955154f5a71c2bc35ce4d8989c9ff878eec3d5e",
    "synth-b2d7af2af618/cohort.csv":
        "6a4e64904492eb8a1318086968d80ac18bf35689157f5a261b5cac8176a88886",
    "synth-b2d7af2af618/meta.json":
        "c9c384b22d5bf755689a8ba59eb0cccd21bccbcbcf388666806c0d0ba5e67dfe",
}


def test_run_files_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = run_digests()
    assert sorted(got) == sorted(DIGESTS)
    changed = [path for path in DIGESTS if got[path] != DIGESTS[path]]
    assert not changed, f"run files differ from the golden digests: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        with contextlib.redirect_stdout(sys.stderr):
            digests = run_digests()
    sys.stdout.write("DIGESTS = {\n")
    for path, digest in digests.items():
        sys.stdout.write(f'    "{path}":\n        "{digest}",\n')
    sys.stdout.write("}\n")
