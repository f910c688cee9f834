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
# `spectrum --source true`, which reads neither the seed nor MODEL; only
# classify and predict-* evaluate models, so only they read EVALUATE
RUN = ["--seed", "5", "-o", "runs"]
MODEL = ["--n-trees", "6"]
EVALUATE = ["--bootstrap-samples", "40"]
SPECTRUM = ["--resolution", "48"]


def _commands(cohort_csv):
    common = ["--input", cohort_csv] + RUN + MODEL
    return [
        [command] + common + EVALUATE
        for command in ("classify", "predict-state", "predict-score")
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
    "spectrum-363642967791/meta.json":
        "efbfb962c0a3bf0e2bc83f4c4445e2edb61fb37326952b8ccde4991737d286db",
    "spectrum-363642967791/points.tsv":
        "642cbc83e16f56317a285f0a4eb48980a3ea5cc7e9a5fceb130977316740527d",
    "spectrum-363642967791/spectrum_classify_BD.svg":
        "3fc4f27b7183e23326344ecd5d401098fed7d542d0bd824fff55570bcfdf9e97",
    "spectrum-363642967791/spectrum_classify_BD.txt":
        "181f82a0dfc147ecf31fb125b30cbc8b4a537f6b0a092067fcea37eef8109a9d",
    "spectrum-363642967791/spectrum_classify_BPD.svg":
        "e9998cdf22ab0f07e1b0f11b8037d99e19914f051bfe4ddbee74fa827e5d7f81",
    "spectrum-363642967791/spectrum_classify_BPD.txt":
        "2ee8b32bd1c56306d1b8993c0bec83d9e000dbf29a61aad78d21fd664d54534a",
    "spectrum-363642967791/spectrum_classify_HC.svg":
        "5a91e8bc1b9aa3f10ef4103a8cadc0c55acaf1e66c43f594e756d717e6a29353",
    "spectrum-363642967791/spectrum_classify_HC.txt":
        "25bcc3b9ee3283728163f78238f3b639422ba5974b260781112a94668da35a68",
    "spectrum-3868707f8ec1/meta.json":
        "7a6fbf23186a87901d7341c4af167dd47d3605e231b0bcee72c7adc3827b0886",
    "spectrum-3868707f8ec1/points.tsv":
        "82909afd1c904bc2f69061cfc5f3900a2899e28afe1404eccdafe26a3b4dff95",
    "spectrum-3868707f8ec1/spectrum_state_BD_ASRM.svg":
        "2ec0d38f05461f13a58056b26fb06900388689beeb192442c3f2ca671db6cb2f",
    "spectrum-3868707f8ec1/spectrum_state_BD_ASRM.txt":
        "9817ac77eaedd25eac2b17508bc5eb7402e82f7a255f457bb91f81a86c0ac0cc",
    "spectrum-3868707f8ec1/spectrum_state_BD_QIDS.svg":
        "d05a3dfbb3de961a7432cfb4b43c86b24325b01fc8eeb757814cc803ae3b29f0",
    "spectrum-3868707f8ec1/spectrum_state_BD_QIDS.txt":
        "e5f744a7add643ca5bcde6b530dadc7159890dd8081418cc367730011e0a5d97",
    "spectrum-3868707f8ec1/spectrum_state_BPD_ASRM.svg":
        "196a1262351ccc6ed4a6791115d9161ad6158e5bca52c1fe2b83275f369f3cad",
    "spectrum-3868707f8ec1/spectrum_state_BPD_ASRM.txt":
        "a07805a0b8d4e721493cbd1c0a62133871b855c55825a5c93ee7aa00af06b11b",
    "spectrum-3868707f8ec1/spectrum_state_BPD_QIDS.svg":
        "62363837e26adf716c61d8ef1663fddfc220f989bd3797afb3341976c17e8ae0",
    "spectrum-3868707f8ec1/spectrum_state_BPD_QIDS.txt":
        "c0de896c4128cd5d147ae9f02d42395935756d05aa9008e60a94a54a27f781a4",
    "spectrum-3868707f8ec1/spectrum_state_HC_ASRM.svg":
        "b131e4f76f9d3cb9eaa88d92db9fd6b3bb57ab321ea0933fa62f204bdd654adb",
    "spectrum-3868707f8ec1/spectrum_state_HC_ASRM.txt":
        "1f91404df36d001ba203ac6164cdf0f64a37e69c7b894698199c21fee19f00f6",
    "spectrum-3868707f8ec1/spectrum_state_HC_QIDS.svg":
        "3e601c4f5dc816033005d5ac6bd251f656016896bffe1017fef29b2621296452",
    "spectrum-3868707f8ec1/spectrum_state_HC_QIDS.txt":
        "516373902743f7aea964671b9268c00a793252ff8122fd43a52a5616e75bbc23",
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
