"""Golden bytes: the finite listings print exactly what they printed before the
coset-lookup family tables, the per-coset lattice and Light's associativity
test, and (at orders 32-64) before the lattice grew each subgroup once and
the normalizers tested one element per coset.  The digests are sha256 of
stdout, frozen from the code before each change; any change to a record's
content or order shows here.  The named-group entries (SHOWN, LISTINGS and the
refusal messages in REFUSED) were frozen before group names parsed straight
to their tables; the five out-of-range refusals (C0, D0, S0, S5, C2xS5) were
re-frozen when their messages came to name the factor as written.  To re-freeze after an intended output change, print the
digest of each command's stdout.
"""

import hashlib

import pytest

from powergroups.cli import main

GOLDEN = {
    ("subquotients", "S4", "24"): (
        "eb8c81058d1acc3dc02ae6158024be0ea07affc9bf1f68a77c0f3a99358a72cf",
        "group=S4 subquotients=93\n",
    ),
    ("subquotients", "D12", "24"): (
        "628f67e3de4e2f3f000310dacc7f8d0a8abaa6e400ec882bd70aa4fc753723c1",
        "group=D12 subquotients=125\n",
    ),
    ("subquotients", "C2xC2xC6", "24"): (
        "3c1ee86ccbe510fe73e0f1f6d99bfab23251c76c21f79b2bfc7c863aa1cf692b",
        "group=C2xC2xC6 subquotients=198\n",
    ),
    ("subquotients", "D4xC2xC2xC2", "64"): (
        "01db6e320e8355f53949b54408dc057a0c92ee2ec83a5a4a8a333158b17ac3ec",
        "group=D4xC2xC2xC2 subquotients=16890\n",
    ),
    ("subquotients", "C2xC2xC2xC2xC2", "32"): (
        "c2d9e86a0df8c45901f4a5e00122f8d4d269524d8a1d5eba217f41c69646ca1f",
        "group=C2xC2xC2xC2xC2 subquotients=5769\n",
    ),
    ("enum", "D6", "12"): (
        "0c8281020aa57fed1d2b2689d8f30fa348c07e192ac3998fe20f7b69e3020ef4",
        "group=D6 families=49 subquotients=49\n",
    ),
    ("enum", "S4xC2", "48"): (
        "df7b6a5f70df2e5254c75e710f530e31aa93940649f2b447f84ca6dfc5e78825",
        "group=S4xC2 families=501 subquotients=501\n",
    ),
}


# Every way a name reaches a table: the catalog, aliases, case, leading zeros,
# products and the degenerate members of each family.  Frozen like GOLDEN.
SHOWN = {  # catalog show --group NAME
    "trivial": "acc05d828d67b8e6aaef8f3e52c2eec9f055f32a381c64f52825b40635da5cc4",
    "C2": "886385bb22c0a26a0a9381586009585d29496539c0b7a9ffad08b9591691ce27",
    "C3": "af5e4c539d75ead7937f39c8c868d46d26bf73a73facaecbe263f18eecfb007e",
    "C4": "3287c8f118f164ee196cda40ecb9025571fa66dd58c8eeccdf3eda748aa8bc3e",
    "C5": "8a2f69bab3ccd541ffb310f68a6a1f275ce1ffdb0208d42984e1eb91766f462c",
    "C6": "457feaf0682b09c8f7b52178bceb329975a69dee48d77cbb68da154b8a1e29ec",
    "C7": "c643231a8aee1f4f88fde278750d23c27135bcf16b2b45a63e28bf44c735043f",
    "C8": "69ec0512d003eb1c88575ad6b8e29429b1ce60194191f81d885a8bc619632839",
    "klein4": "3090e99b4bc0443aedb514d7c9d1326a541f7f5f7ddda471fcdcdd3a6306a437",
    "V4xC2": "b66f45174f4b0df63f1d4130083da973aecb8c91f5f0879a28acd71b87456a75",
    "C2xC2xC2": "ab8dbf592f341276b9d35a0f2aea6e619a7f9363970d558ca001a9a3bf6c5568",
    "S3": "0d11aeb1559d0a6c89b688267d294556180269393b85b4f2cde2d1226bb56f9d",
    "S4": "2f00f2c1e729d6553cdd4cbcf69b19465bcf7adf8cf92ddacec22299fee10f54",
    "D4": "0310abfe4af63c79551e201fc744ef57eeabe3f98f92013410ae0c20f3acb7fc",
    "D5": "2a462b746e2a8d4fbaa6b876ee84b855e35ce96ab9c0c8fa637041602a1e4eb3",
    "D6": "d170535e0b3c374e93b8dcf80d5e62b8f07315a4a4210b84229f3528fc175fd7",
    "Q8": "c8b3f8bc05c34c1a04604367e7df8c1502111fddbcc6ff6e596758d53b57a84c",
    "C2xC3": "666145f2ec82b4dfec86acc836d74d91551992b9f5d3a66969d6f7d0bfc16799",
    "c2*c2": "362f799554d6c508f978dbf45785f2ad30a159b2e746640a65ecf3a964ab488f",
    "klein4xC2": "5e2d84348b3953f1c8dd0d7568cff7030948297ab81a0fbf88fef93e2b5f0835",
    "q8xC2": "4ed47364878cac03eaa60ddc4d1ed072797cee4a498f9bc1b4ef3b84d39e408d",
    "1": "47fb8cb38bc909a1816fd1a1371d9088993881a5de323ab5261e586351599225",
    "c01": "c2a1103f10ee7abcf0d03fe36d08c5b802b2cce630a005d3388182b3ac7c0a75",
    "S1": "fa9a81539a5011026b02f82533080a7565332c6e8a757fa36a19b72afe05d7ed",
    "D1": "53655df3536ad0ac6f880d342c13da766ecd06b21c25d334c5b19cd5962c25d0",
    "D2": "1fbe368c21c5786fdf2bdc17596e9b944e021f99720b65dfb3bb9f535792d782",
    "D8": "84defd70b6cf22f41d7d97d61f37759adad5cf0cead15b4ef8b16c596d461e6d",
    "C16": "d9a2346037fb8ef3c547118a383d3265e55ac4346fcf1b015c8a964bd32c03bf",
}
LISTINGS = {
    ("catalog", "list"): "7ab00f81a5d1cf0084fe906cdaadf3c80593e370a7fa9085fe44cd0a580e6974",
    ("underlies", "--matrix", "default"): "99c1de3e297d518dd8810041ba5a1b534b9850b57e5f3f29fc110319e18795bc",
}
# catalog show --group NAME on a refused name: exit 2, this stderr, no stdout.
REFUSED = {
    "C0": "error: group name 'C0': cyclic C<n> needs n >= 1\n",
    "D0": "error: group name 'D0': dihedral D<n> needs n >= 1\n",
    "S0": "error: group name 'S0': symmetric degree must be in [1, 4]\n",
    "S5": "error: group name 'S5': symmetric degree must be in [1, 4]\n",
    "X9": "error: unknown group name 'X9'\n",
    "C2xS5": "error: group name 'S5': symmetric degree must be in [1, 4]\n",
    "C100000": "error: group order 100000 exceeds cap 64\n",
    "D33": "error: group order 66 exceeds cap 64\n",
    "C-1": "error: unknown group name 'C-1'\n",
}


@pytest.mark.parametrize("command", sorted(GOLDEN), ids="-".join)
def test_listing_bytes_match_the_frozen_digest(command, capsys):
    verb, group, cap = command
    digest, err = GOLDEN[command]
    code = main([verb, "--group", group, "--max-order", cap])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def _digest(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err


@pytest.mark.parametrize("name", sorted(SHOWN))
def test_named_group_bytes_match_the_frozen_digest(name, capsys):
    assert _digest(["catalog", "show", "--group", name], capsys) == (0, SHOWN[name], "")


@pytest.mark.parametrize("argv", sorted(LISTINGS), ids="-".join)
def test_catalog_listing_bytes_match_the_frozen_digest(argv, capsys):
    assert _digest(argv, capsys) == (0, LISTINGS[argv], "")


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_group_name_prints_the_frozen_message(name, capsys):
    empty = hashlib.sha256(b"").hexdigest()
    assert _digest(["catalog", "show", "--group", name], capsys) == (2, empty, REFUSED[name])
