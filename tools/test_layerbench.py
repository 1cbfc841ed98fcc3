"""Smoke test of tools/layerbench.py at tiny sizes; run with
`python -m pytest tools`."""

import json
from pathlib import Path

import layerbench

ROOT = Path(__file__).resolve().parents[1]


def test_layerbench_against_this_tree_at_tiny_sizes(tmp_path, capsys):
    out = tmp_path / "summary.json"
    assert layerbench.main(["--against", str(ROOT), "--blocks", "2", "--repeats", "1",
                            "--hours", "4", "--json", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert sorted(summary) == sorted(layerbench.layer_names())
    for name, row in summary.items():
        assert row["bits_equal"], name
        assert row["this"]["sha256"] == row["again"]["sha256"] == row["base"]["sha256"]
        assert row["this"]["calls"] == 2 * layerbench.repeats_for(name, 1)
        assert row["ratio"]["blocks"] == row["aa"]["blocks"] == 2
        assert row["this"]["median_us"] > 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == layerbench.layer_names()
