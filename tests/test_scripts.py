"""Smoke runs of the experiment scripts against what the README says they show."""

import subprocess
import sys

from .conftest import SCRIPTS


def _rows(path):
    header, *lines = path.read_text().splitlines()
    names = header.split(",")
    return [dict(zip(names, map(float, line.split(",")))) for line in lines]


def _run(script, *args):
    subprocess.run([sys.executable, str(SCRIPTS / script), *map(str, args)], check=True,
                   capture_output=True)


def test_degenerate_sweep_drives_empty_rate_to_zero(tmp_path):
    out = tmp_path / "degenerate_sweep.csv"
    _run("degenerate_sweep.py", "--out", out)
    rows = _rows(out)
    assert rows[0]["empty_rate"] == 1.0
    assert rows[-1]["empty_rate"] == 0.0


def test_beam_width_study_plain_bleu_falls_penalized_stays_flat(tmp_path):
    _run("beam_width_study.py", "--outdir", tmp_path)
    plain = _rows(tmp_path / "width_plain.csv")
    assert [row["k"] for row in plain] == [1, 2, 4, 8]
    bleus = [row["bleu"] for row in plain]
    assert all(a > b for a, b in zip(bleus, bleus[1:]))
    for name in ("width_square.csv", "width_greedy.csv"):
        assert [row["bleu"] for row in _rows(tmp_path / name)] == [100.0] * 4
