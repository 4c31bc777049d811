"""Byte-for-byte CLI output for a fixed list of commands.

Each command runs through ``qig.cli.main`` in-process and its stdout must
equal the file ``tests/golden/<name>.txt``.  Regenerate the files, after a
change that is meant to move output, with ``python tests/test_golden.py``.
"""

import contextlib
import io
from pathlib import Path

import pytest

from qig.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "helstrom": ["helstrom", "--point", "0.3,0.2,0.1"],
    "helstrom_spherical": ["helstrom", "--point", "0.3,0.2,0.1", "--spherical"],
    **{f"fisher_n{n}": ["fisher", "--n", str(n), "--point", "0.3,-0.2,0.45"]
       for n in (2, 3, 4, 5, 6)},
    **{f"gm_trace_{metric}_n{n}": ["gm-trace", "--metric", metric, "--n", str(n),
                                   "--r", "0.63", "--theta", "0.9", "--phi", "2.3"]
       for metric in ("helstrom", "yuen-lax", "quasi-bures") for n in (3, 4, 5, 7, 20)},
    "gm_trace_quasi-bures_n6_default_angles": ["gm-trace", "--metric", "quasi-bures",
                                               "--n", "6", "--r", "0.4"],
    **{f"curves_figure{k}": ["curves", "--figure", str(k)] for k in range(1, 7)},
    **{f"volume_n{n}": ["volume", "--n", str(n)] for n in (3, 4, 5)},
    "dominance_n6_4.99": ["dominance", "--n", "6", "--scalar", "4.99"],
    "bound_radius": ["bound-radius"],
    "normalize_quasi-bures": ["normalize", "--prior", "quasi-bures"],
    "coding_quasi-bures": ["coding", "--prior", "quasi-bures", "--N", "100", "--r", "0.37"],
}


def run(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_is_byte_identical(name):
    assert run(COMMANDS[name]) == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.txt").write_text(run(argv))
