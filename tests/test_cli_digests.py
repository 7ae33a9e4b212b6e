"""scripts/cli_digests.py: the CLI's output compared between two checkouts."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "scripts" / "cli_digests.py")
cli_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_digests)


def test_differences_name_each_differing_field():
    rec = {"exit": 0, "stdout": "a\n", "stderr": "", "dirs": ["out"],
           "artifacts": {"out/x.csv": "1"}}
    moved = dict(rec, exit=1, dirs=["NEW", "out"], artifacts={"out/y.csv": "2"})
    assert cli_digests.differences({"c": rec, "d": rec}, {"c": rec, "d": moved}) == [
        ("d", ["exit", "dirs", "artifact out/x.csv", "artifact out/y.csv"])
    ]


def test_this_checkout_against_itself_differs_nowhere(capsys):
    assert cli_digests.main([str(ROOT), str(ROOT)]) == 0
    out = capsys.readouterr().out
    assert out == f"0 of {len(cli_digests.CORPUS)} cases differ\n"
