"""Golden bytes: the finite listings print exactly what they printed before the
coset-lookup family tables, the per-coset lattice and Light's associativity
test.  The digests are sha256 of stdout, frozen from the code before that
change; any change to a record's content or order shows here.  To re-freeze
after an intended output change, print the digest of each command's stdout.
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
    ("enum", "D6", "12"): (
        "0c8281020aa57fed1d2b2689d8f30fa348c07e192ac3998fe20f7b69e3020ef4",
        "group=D6 families=49 subquotients=49\n",
    ),
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
