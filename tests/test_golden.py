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

COMMON = ["--seed", "5", "--n-trees", "6", "--bootstrap-samples", "40", "-o", "runs"]
SPECTRUM = ["--resolution", "48"]


def _commands(cohort_csv):
    common = ["--input", cohort_csv] + COMMON
    return [
        ["classify"] + common,
        ["predict-state"] + common,
        ["predict-score"] + common,
    ] + [
        ["spectrum"] + common + ["--source", source] + SPECTRUM
        for source in ("classify", "state", "true")
    ]


def run_digests():
    """Run every command in the current directory; {path: sha256} of the
    files under `runs/`."""
    assert main(["synth", "--sizes", "4,4,4", "--weeks", "24"] + COMMON) == 0
    (cohort_csv,) = Path("runs").glob("synth-*/cohort.csv")
    for argv in _commands(cohort_csv.as_posix()):
        assert main(argv) == 0, argv
    return {
        p.relative_to("runs").as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path("runs").rglob("*"))
        if p.is_file()
    }


DIGESTS = {
    "classify-4734790337fa/loo_points.tsv":
        "0e1df08871ddd57b0f425e2f9bfa60f04160689d124c07acb04300265b8cd3a3",
    "classify-4734790337fa/meta.json":
        "1494a4b5cde5d56e7b114ff8d963b6c4cbd7db484b7853e197ad86f6521590d9",
    "classify-4734790337fa/report_mrsf.json":
        "f3538c873a2dd301b71908de6b606ec01056ea369cbcb93bbcdb1253be3048f6",
    "classify-4734790337fa/report_naive.json":
        "10279b8169586bc7289bfeb9e2e8d81fd7ea273ba9e14db8c3337ed6588fcebc",
    "predict-score-4734790337fa/meta.json":
        "6dcf0de4db87a3da0e91e2edc37abc6ea06dcf08ed746c2e44f756b9eeca19e7",
    "predict-score-4734790337fa/reports.json":
        "54a3c25886c4fc778d6dc639399c7b87f24a8e4c5625eed2c9bc6a3405b0a3fb",
    "predict-state-4734790337fa/meta.json":
        "76c6d793250f3e17434898d65e6afa024f77c59733ba32b09dffa1973c190fc2",
    "predict-state-4734790337fa/reports.json":
        "495093528192d8e38f731c9cb952d6488be1cc6a4502f8afcf6a354fd415c491",
    "spectrum-384edc42c650/meta.json":
        "1b0c88a1184ef2368d2fa14451b71dbd117aacea88a6989861ef5b622a79d8fd",
    "spectrum-384edc42c650/points.tsv":
        "c211f33c959a7548862fbac068194a97705fd3d2e136c5c586d68f5f42993485",
    "spectrum-384edc42c650/spectrum_state_BD_ASRM.svg":
        "f542f47a3e3e33e2724d89c9826a76fbd17c8764cea2daad2c4e1527c3ee8215",
    "spectrum-384edc42c650/spectrum_state_BD_ASRM.txt":
        "af8906d3f27f26598426ff7a0f632a02bdbadedd31b08e7973836d050dcc0ccd",
    "spectrum-384edc42c650/spectrum_state_BD_QIDS.svg":
        "77d3d078522edff15da74ccf00135d55da16d22444640bb99ded8e5ee92a7fab",
    "spectrum-384edc42c650/spectrum_state_BD_QIDS.txt":
        "e8f6437e11b28da00f42f983627dcf6441ab2ebfc9ac33f01ccf51ae92c439d0",
    "spectrum-384edc42c650/spectrum_state_BPD_ASRM.svg":
        "27d1e1b6e2fba1d959d32aa4dc0fd4ae6494648d1e8fb18599e90eed020c1b75",
    "spectrum-384edc42c650/spectrum_state_BPD_ASRM.txt":
        "0a38d486402979122926519997e4d01dedaf5216b7c8013bb9438ff9c0c1196e",
    "spectrum-384edc42c650/spectrum_state_BPD_QIDS.svg":
        "519ae2c5221aabf938604dcae0b77655b20aeaaa4f29a074b2e9de29b90c559d",
    "spectrum-384edc42c650/spectrum_state_BPD_QIDS.txt":
        "a69af4e7a21d7a71fe9b3b7ddae72c33eb1699a53c5bc543fa37a8c9c446d009",
    "spectrum-384edc42c650/spectrum_state_HC_ASRM.svg":
        "c3b1afad36a9b140b3947508542f08f56adbb0a47ec39e3307a16749bc92194c",
    "spectrum-384edc42c650/spectrum_state_HC_ASRM.txt":
        "001911f8f7d2ecf100363c46d8316ac60f25dc1ba25c53dc23bc4dc70eb689ee",
    "spectrum-384edc42c650/spectrum_state_HC_QIDS.svg":
        "202ced9d9d3d2023bd2ca2b32900ac0ed4a167328d470d80965f4e2037ee68d5",
    "spectrum-384edc42c650/spectrum_state_HC_QIDS.txt":
        "ae28d99b869a81301906ce7803a43b14025b3de2c853bb6f412964d66e70ffcd",
    "spectrum-690b80fdc3d8/meta.json":
        "84e0856894873c15f9fb6881c93fa1de3c011a5581b29c692178f3ad4d286da0",
    "spectrum-690b80fdc3d8/points.tsv":
        "b7bed3dc688fe6a42af10f2c25c6aeb4ab6e53b4a5ab45b17966eb02f4ea08cc",
    "spectrum-690b80fdc3d8/spectrum_classify_BD.svg":
        "eba2f79d0f794675ade56961f070cac0bdb97b20b275450ee10bf2016f7aabf0",
    "spectrum-690b80fdc3d8/spectrum_classify_BD.txt":
        "611d929ec8ea3968693555f64d66eb94f06d50e8a75ad12cee917727dcbdd5e9",
    "spectrum-690b80fdc3d8/spectrum_classify_BPD.svg":
        "ebbc11e49ab43851b340ac0570d825fbea5dfbee9d63fc91ea33cd96b375924a",
    "spectrum-690b80fdc3d8/spectrum_classify_BPD.txt":
        "56e081f8deecd8daf8405eea96096e93c08345ffb018c1999aeb2679db9bbc68",
    "spectrum-690b80fdc3d8/spectrum_classify_HC.svg":
        "01acfb540ad529e6af0d4df9232467bd0fd967fdfe2011b80cb9a812f0c6179b",
    "spectrum-690b80fdc3d8/spectrum_classify_HC.txt":
        "d758649cd6cb2a34965d49cd5d3e382733d12b91a42d42d75d2c42e2cdd48448",
    "spectrum-7226dcaf6fca/meta.json":
        "077862e4c42dc5b5d44198cb24d29773b317f15075153a7e511553e382cee75b",
    "spectrum-7226dcaf6fca/points.tsv":
        "7b542603cc960ddb212f024c188834a234e93548a66578785104503fc2cb8987",
    "spectrum-7226dcaf6fca/spectrum_true_BD_ASRM.svg":
        "d9ce6796dfb89487b34424e4989370c3c85d4c86ee6675b2794b32165fb6f7a1",
    "spectrum-7226dcaf6fca/spectrum_true_BD_ASRM.txt":
        "d3082ea77af1137d1e3979e7bd63d78c5de16e714ccac8afe9fc4624e67987ed",
    "spectrum-7226dcaf6fca/spectrum_true_BD_QIDS.svg":
        "2514a4bb1b5dc485d12c3d82b9cfbfd148e847e2a5ed10d4f8fb0f90bf394108",
    "spectrum-7226dcaf6fca/spectrum_true_BD_QIDS.txt":
        "5496824f473881f22add4fb13a170a5b6b906273dd29f068ac28cff72a9b68e9",
    "spectrum-7226dcaf6fca/spectrum_true_BPD_ASRM.svg":
        "fba827b3cafd87b0d547fd439dd4e830a6639d9b9e9027fa45d355b12344a1e9",
    "spectrum-7226dcaf6fca/spectrum_true_BPD_ASRM.txt":
        "d63c97bf0f6b993b9947b0b27da2a1c60cc2480dd72213569bdeed29c2d73c7c",
    "spectrum-7226dcaf6fca/spectrum_true_BPD_QIDS.svg":
        "f1065c8bb868b8f31651bdbee7be4620379a8f0cf5eee9dfb61edc6001958d5a",
    "spectrum-7226dcaf6fca/spectrum_true_BPD_QIDS.txt":
        "c7d36bc1321f57237c54dfb9c2e800d26f83ba3de7f8b6dcfd4082692e74b2ce",
    "spectrum-7226dcaf6fca/spectrum_true_HC_ASRM.svg":
        "17c2562ffed497197116291d79d721f29317738f0caea8dc7ccd3216773869e2",
    "spectrum-7226dcaf6fca/spectrum_true_HC_ASRM.txt":
        "0d73b52260eb03ca8c3415a5337c6f52ece3a528dd84ff988684d71bdcb45206",
    "spectrum-7226dcaf6fca/spectrum_true_HC_QIDS.svg":
        "e1727c425360905bc8d6bb52ac601da56a3d3540c5e5b5c572ccccd2b9bf3381",
    "spectrum-7226dcaf6fca/spectrum_true_HC_QIDS.txt":
        "594a08a540bd01f76775e2689d8b2fa12cf87c0ffc7c3db7eed61046e2fc80fe",
    "synth-90e6e9962772/cohort.csv":
        "6a4e64904492eb8a1318086968d80ac18bf35689157f5a261b5cac8176a88886",
    "synth-90e6e9962772/meta.json":
        "5e9efdb6e7ce3583b70fad4fca577a233c0bf2f873b540d65e25bb00201a26a0",
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
