"""The CSV of every preset, cut to 1 s, as write_csv writes it and as the
runner streams it, against sha256 digests recorded before the switching
functions, the validation and the block size of the runner were last
refactored; and the standard output of ``smcsim verify``
on four presets at their full 30-s horizon, against digests recorded
before the plants took over the row loop.

Logs are a bit-for-bit contract: a change that is meant to keep them must
leave these digests alone, and a change that moves one must say why. The
digests hold for float64 sin/cos as this platform's numpy rounds them.
"""

import hashlib

import pytest

from smcsim.cli import main
from smcsim.config import build_scenario, list_presets, load_config, preset_path
from smcsim.sim import run_scenario, write_csv

DIGESTS = {
    "compare-smooth-adaptive": "f254b00487d178bfc437cb8eb9dc12cbd6ff5df6da45d8172247df70d7d277fa",
    "compare-smooth-plestan-fast": "7199401baa9878a944c79bbf6e3066bc196cdc119c600643d7e1693084a9e410",
    "compare-smooth-plestan-slow": "d08bf904a78e243dd866544bb8b300df30bea55e1b3a1218db2f0b53cb7f3b73",
    "regulation-smooth": "53631f57df64bf1030cdcc97e6a0c8c40642cf9cf856310f975ab162acca8c49",
    "regulation-smooth-boundary-layer":
        "a1a7a6fef0dabad1227f35408a7dd295712660d7171b1ad37624c7f41a40619c",
    "regulation-smooth-classical": "e53af05593f56505ae5c8f7582802061800ad98ca51ff40f27c5c88fb2e63797",
    "regulation-smooth-utkin": "647df768dfd1f02b34a6fcc03262e5cc9469943fc0ceb42082cb7d3fb4e840c5",
    "regulation-square": "fb585606c558487b0abd37a2720bdb15bbe12ed140b6dad3660a94147012d672",
    "tracking": "6ff55d68928053cae257a7a55172af1421e7275127f46fd084cc9fbbf8879e7e",
}


def test_every_preset_has_a_digest():
    assert sorted(DIGESTS) == list_presets()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_preset_csv_digest(name, tmp_path):
    # 10 001 rows: the streamed CSV is written in two spans.
    raw = load_config(preset_path(name))
    raw["integration"]["t_end"] = 1.0
    written, streamed = tmp_path / "written.csv", tmp_path / "streamed.csv"
    write_csv(run_scenario(build_scenario(raw)), written)
    run_scenario(build_scenario(raw), csv_path=streamed)
    for path in (written, streamed):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name], path.name


VERIFY_DIGESTS = {
    "compare-smooth-adaptive": "aef77bfbd728fe8667f8a644b4affff5f3782e193caac6c3c0d24da37b3df94a",
    "regulation-smooth": "6c4e9f3bdcdbf85d74fbd9c0b174c63faaf4f7805f268300173c782e07030e6c",
    "regulation-square": "e0aca76182a2c4d867c40b60282ab1d00311ab37b005d0b9a2905314d2f68b08",
    "tracking": "30acf503d044e6c4fa9970fd1e11f9252b4c132aa02b7578e5dfe5bcea54da29",
}


@pytest.mark.parametrize("name", sorted(VERIFY_DIGESTS))
def test_verify_stdout_digest(name, capsys):
    assert main(["verify", name]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_DIGESTS[name]
