"""Byte-level goldens of the channel bases every benchmark scene builds.

sha256 of each basis's ``state_tensor``, ``ambient_gains`` and
``ambient_delays``, and of the shared ``frequencies_hz`` grid, for the
wall-array scenes of ``perfbench``: the three ``search-single`` sessions,
the six ``serve-mixed`` sessions (placements 0 to 4 at N = 256, and the
N = 64 joint scene), and the ``joint-moving`` session with eight
``Testbed.bases_for_points`` receivers at fixed offsets.  The values were
recorded before the cold build ran as array operations; any change to a
basis's bits, a signed zero included, shows here.
"""

import hashlib

import numpy as np
import pytest

from repro.em.geometry import Point
from repro.serve.scenarios import ScenarioSpec, build_session

FREQUENCIES = "ffb92716c1e8f6e94b2eb6ae561514e554287b4b42ae399a7bc461d894deabb2"

#: (placement, N) -> sha256 of (state_tensor, ambient_gains, ambient_delays).
SCENES = {
    (0, 256): (
        "e63f5de04a3956ae2fad7bc79afaa2108b1f6023e00bd4a5b228c01b840b9900",
        "774821504ee65fef6f87e001b38dc87ce95bfad680d214a009be85af4762dd40",
        "caf43d34de552ccf53901890b8a588cb1a4094e97d41853d023080bb4296a9f1",
    ),
    (1, 256): (
        "e63f5de04a3956ae2fad7bc79afaa2108b1f6023e00bd4a5b228c01b840b9900",
        "d3f72a9be172f27d94c78cca76fe03146020524b45f7b1f47aa6fb985168748f",
        "acc85c227facd5b2b509127c2f0bba3f78b775db6073e556fcf3cebcd5d3a60f",
    ),
    (2, 256): (
        "e63f5de04a3956ae2fad7bc79afaa2108b1f6023e00bd4a5b228c01b840b9900",
        "8b4d0795b95387d3a8cf25cb5c818f970ed718ec5acb3c0be5ddc80054f1368c",
        "5b780d5a0977f83153dae19236240325ea50c9974ebc45d5ed70452037a5fec0",
    ),
    (3, 256): (
        "e63f5de04a3956ae2fad7bc79afaa2108b1f6023e00bd4a5b228c01b840b9900",
        "77eed784319f5712b41e91e62e220488448f7fa8818d3f1119f33f50042e78de",
        "b4352f63a61f30eaa7d8b8250c4a36e11393c0bae80fb27979b8101510f30755",
    ),
    (4, 256): (
        "e63f5de04a3956ae2fad7bc79afaa2108b1f6023e00bd4a5b228c01b840b9900",
        "65fb192effe4b6c2662743c7d08805e5c71914738010207dd6f746b7d00ab188",
        "7c783a1dcc0c180f3a28ee63b273786c66d8d03e2be53d25523ea6b8f4447a46",
    ),
    (0, 1024): (
        "14ed503faf7ad21d7862d0968972058b945318b49c93bdcf5d9b27c86b920bf1",
        "774821504ee65fef6f87e001b38dc87ce95bfad680d214a009be85af4762dd40",
        "caf43d34de552ccf53901890b8a588cb1a4094e97d41853d023080bb4296a9f1",
    ),
    (0, 64): (
        "e2b018c08d7b76e68f5c6d434af7a2afc7d00ac78e057a957ca24bef920cda75",
        "774821504ee65fef6f87e001b38dc87ce95bfad680d214a009be85af4762dd40",
        "caf43d34de552ccf53901890b8a588cb1a4094e97d41853d023080bb4296a9f1",
    ),
}

#: sha256 of (state_tensor, ambient_gains, ambient_delays) of each
#: receiver of :func:`_points` on the N = 64 scene.
POINTS = (
    (
        "7b0d04ca8fe24e14fb992c2aa5c933fd63fb14ca8b58d059627d25df803d4088",
        "ccf231a6a9ee54ad6614fe0798862fbb2b110a5370456aed96f3e41f93b41e6a",
        "a74af6d2db29a6cf4c687681019a2fb8d927d30c7df01dc4f27c9b53b5b3fd4a",
    ),
    (
        "dff006f08f3f36f96fd055496291537748090c9e452435f050b3a076957145e0",
        "99bff75c10948363911caa6a2c4f5ded44e1c6ef50238a034a408e471ea3e162",
        "d0433ccc0c19325c19c4751973f5e0e0cf0e19012e31e6bf8ea417ff883f1b37",
    ),
    (
        "74a738e13ee6e45a9186b3cc5236735d6e72942d661625a38e100b8d6df9849a",
        "6e62ab23409cdd2355020319ff8052104a14a4997ea486438f8210116b96d3e8",
        "205306439eeac03d86a9ff0c2847582cf18688ab40d7ec2e876e1fec34e04e2b",
    ),
    (
        "c3fe62b048a3ae079206fba58dbcd795746fcd63b169eef0b5448ae1dd10f2ce",
        "173e2e92b3136b89266b452f9a18737fe0cb8fae2b350b8bcb64ed57f869ace1",
        "3146ecd4434df2af4df42a37936662e25902ebf20672fc0da2d79f40747c74cb",
    ),
    (
        "d5c5edb4bddce7886150095439f0e3c74a5be9ab1e51f8e6e7b2c91934ba2b27",
        "bc5f8a88992645309133e59c24c86563779356c0ad2b610d662765b900bc03de",
        "0c8728ae93606dc45187e495891b0676a2b9b7825675fbd853bc02afc7bb0fa3",
    ),
    (
        "b07d108255139e357bc2778b0f9e88ea83110366772da85464a8b3f036a8eb81",
        "2e1659478181ac72de0df3a4e8a6ecc9695b6986d7439042de391b0f18a62f85",
        "29db31e3e0d89a2bd7a71cccfdc9893b6f8b23e53f295fb939070983d25a72b5",
    ),
    (
        "cfd741e168c4957e6d8281a4c85bf4ca13e919121397e2961d931aa3010646ae",
        "da268672c3e448e3d6f2b3acfa07ee40fa3997eea3204cf1958854dd623f6f4e",
        "ae8e89c577ae72fecb64e6661f385e0543b78accf8dfc09d74545cec24885ac9",
    ),
    (
        "275f106b5f457675309c71d78a760c37071e4bd342e94468a510b1e284bdefba",
        "bbad176e492846e043c3ff0a4a22b0f7ca274d47f4f2c6018435efbd3faec65a",
        "5aebd17b3a337a0055a9baff7140683c75894f6642dc0751366e1441679530aa",
    ),
)


def _shas(basis) -> tuple:
    fields = (basis.state_tensor, basis.ambient_gains, basis.ambient_delays)
    return tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in fields)


def _points(rx0: Point) -> list:
    return [Point(rx0.x + 0.25 * i - 0.9, rx0.y - 0.2 * i + 0.7) for i in range(8)]


@pytest.mark.parametrize("placement,num_elements", list(SCENES))
def test_benchmark_scene_basis_bytes(placement, num_elements):
    session = build_session(
        ScenarioSpec(kind="large", placement=placement, num_elements=num_elements)
    )
    assert _shas(session.basis) == SCENES[placement, num_elements]
    assert hashlib.sha256(session.basis.frequencies_hz.tobytes()).hexdigest() == FREQUENCIES


def test_joint_moving_point_bases_bytes():
    setup = build_session(ScenarioSpec(kind="large", placement=0, num_elements=64)).setup
    bases = setup.testbed.bases_for_points(
        setup.tx_device, _points(setup.rx_device.position), setup.rx_device.chains[0].antenna
    )
    assert tuple(_shas(basis) for basis in bases) == POINTS
