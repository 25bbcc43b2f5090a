"""The CSV of every preset, cut to 1 s, against sha256 digests recorded
before the switching functions, the validation and the block size of the
runner were last refactored.

Logs are a bit-for-bit contract: a change that is meant to keep them must
leave these digests alone, and a change that moves one must say why. The
digests hold for float64 sin/cos as this platform's numpy rounds them.
"""

import hashlib

import pytest

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
    raw = load_config(preset_path(name))
    raw["integration"]["t_end"] = 1.0
    path = tmp_path / f"{name}.csv"
    write_csv(run_scenario(build_scenario(raw)), path, precision=17)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]
