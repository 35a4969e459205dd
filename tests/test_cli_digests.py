"""CLI outputs pinned byte for byte: SHA-256 digests of the exit code,
stdout and stderr of the coinvariant, Hamiltonian, bracket and stratum
commands and of the singularity commands (Milnor, Tjurina, gap, HP0,
degenerate locus) on every committed corpus document but the cyclic and
katsura systems, recorded in ``cli_digests.json``.  A change that should leave
these outputs as they are keeps them; record them again, from the
repository root and with the sources to pin on the path, with
``PYTHONPATH=src python tests/test_cli_digests.py``."""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from leafalg import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("cli_digests.json")

# each command and its flags; the input document goes after the command
COMMANDS = [
    ["coinv", "--family", "hamiltonian-top"],
    ["coinv", "--family", "hamiltonian-top", "--format", "json"],
    ["coinv", "--family", "derivations"],
    ["coinv", "--family", "derivations", "--format", "json"],
    ["verify-hp0"],
    ["sym2-brute"],
    ["hamgen"],
    ["bracket", "-f", "x", "-g", "y"],
    ["hamvec", "-f", "x"],
    ["strata"],
    ["leaves"],
    ["milnor"],
    ["milnor", "--format", "json"],
    ["tjurina"],
    ["tjurina", "--format", "json"],
    ["tjurina", "--order", "lex"],
    ["gap"],
    ["gap", "--format", "json"],
    ["hp0"],
    ["hp0", "--format", "json"],
    ["degenerate"],
    ["degenerate", "--format", "json"],
]


def runs():
    """(name, argv) of each pinned run, the document given by its path
    from the repository root (the JSON report echoes it)."""
    for path in sorted((ROOT / "bench" / "corpus").glob("*.json")):
        if not path.stem.startswith(("cyclic", "katsura")):
            for command, *flags in COMMANDS:
                yield " ".join([command, path.stem, *flags]), [command, "-i", f"bench/corpus/{path.name}", *flags]


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def test_outputs_match_the_recorded_digests(monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = {name: digest(argv) for name, argv in runs()}
    assert list(actual) == list(expected)
    assert [name for name in expected if actual[name] != expected[name]] == []


if __name__ == "__main__":
    os.chdir(ROOT)
    recorded = {name: digest(argv) for name, argv in runs()}
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
