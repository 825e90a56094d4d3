"""The README's command-line examples, run in order, with their outputs pinned.

Each ``charcol ...`` line of the "Command line" block runs through ``cli.main``
in one working directory, since the ingest example reads the file the export
example writes. Exit codes and stdout SHA-256 digests were recorded from the
examples as documented; a change to an example or to its output shows here.
"""

import hashlib
import re
import shlex
from pathlib import Path

from charcol.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

EXPECTED = [
    ('charcol column --chain sym --class "[3,1,1,1]" --n 6 --paper-order', 0,
     "ba2a3588dd96ad3e19c27719eab3fdefffc886df0817533148a378b4fbe3e64e"),
    ('charcol column --chain sym --class "[2]" --n 9 --odd --oracle', 0,
     "57d752857e566edafa0e30d9ed84edd61c5daca1347dc99f1ec5385f0353bd82"),
    ('charcol column --chain z2wreath --class "1:[2]" --n 4', 0,
     "d2e581bf9c0e9c5711cf119a7c6ac657f7d6eea49b962729bb4bd3316e497fc7"),
    ('charcol lift --chain sym --k 5 --label "[3,2]" --n 9', 0,
     "1fc60dd201f85f5c4fd424e9c736ec8a9fd2c25b73e36004f59ecba3d94aed4b"),
    ("charcol indres --chain sym --n 6 --dump", 0,
     "53e612c2fba5c61f502f8abb30329397a7c13f37c7d08708b270364fcc448bae"),
    ("charcol mckay --chain sym --n 6 --reduced --format dot", 0,
     "4a8f270cfb469d958e58263589b732faefd7ddfc9040d1f12308906a6ca64d31"),
    ("charcol table --chain z2wreath --k 2", 0,
     "2a2d2f44759438379bb4afd1d7e3f140ab5277c3b420e1b2c0ba30a32bc67da4"),
    ("charcol verify --chain sym --suite all --maxN 7", 0,
     "188f2cae4c04e326e5e4a5264a4d771d8acfe14cd85e965f1ba034073251df90"),
    ("charcol verify --chain sym --maxN 5 --export sym-chain.json", 0,
     "235f5c62cc35ca2189121d1eef99b1c168b2b32e1d011cc96a039e15644969b2"),
    ("charcol verify --chain sym-chain.json --suite jeongha --maxN 5", 0,
     "46e2ace072b41ca48040f0af53ed1d5cb55202476a583db6a3e86bec24e121cb"),
]


def readme_commands() -> list[list[str]]:
    """The argv of each ``charcol`` line of the "Command line" block, comments dropped."""
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    assert block, "README has no Command line block"
    return [shlex.split(line, comments=True) for line in block.group(1).splitlines()
            if line.startswith("charcol ")]


def test_readme_command_examples_keep_their_exit_codes_and_outputs(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [shlex.split(line) for line, _, _ in EXPECTED] == commands
    for argv, (line, code, digest) in zip(commands, EXPECTED):
        assert main(argv[1:]) == code, line
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, line
