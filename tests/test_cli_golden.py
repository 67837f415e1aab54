"""CLI byte identity: recorded exit codes and stdout of seeded commands.

Only exact outputs are recorded (``pgf`` in every format, ``eval --kind
pgf``, ``moments``, ``regions`` and ``verify``); the digits of the float
kinds depend on the platform's libm.  Every command is replayed in-process
through :func:`hypergen.cli.main`.

To re-record after an intended output change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import random
from pathlib import Path

from hypergen.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden.json"
SEED = 20240501


def _triple(rng, max_N):
    N = rng.randint(0, max_N)
    return N, rng.randint(0, N), rng.randint(0, N)


def _rational(rng):
    num = rng.randint(-30, 30)
    if rng.random() < 0.4:
        return str(num)
    return f"{num}/{rng.randint(1, 12)}"


def golden_commands():
    """The seeded command list: about 300 argv lists."""
    rng = random.Random(SEED)
    cmds = []
    for _ in range(120):
        N, K, n = _triple(rng, 40)
        cmds.append(["pgf", str(N), str(K), str(n), "--format", rng.choice(["coeffs", "json", "latex"])])
    for _ in range(90):
        N, K, n = _triple(rng, 40)
        cmds.append(["eval", str(N), str(K), str(n), f"--at={_rational(rng)}", "--kind", "pgf"])
    for _ in range(70):
        N, K, n = _triple(rng, 16)
        max_r = rng.choice([1, 2, 3, 5, 8]) if rng.random() < 0.8 else rng.randint(9, 40)
        cmds.append(["moments", str(N), str(K), str(n), "--max-r", str(max_r)])
    cmds += [["regions", str(N)] for N in range(7)]
    cmds += [["verify", "--n-max", str(m)] for m in range(7)]
    # usage and domain errors: exit 2 with empty stdout
    cmds += [["pgf", "4", "5", "1"], ["moments", "4", "2", "3", "--max-r", "0"], ["eval", "4", "2", "3", "--at", "1.5"]]
    return cmds


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _record():
    rows = []
    for argv in golden_commands():
        code, stdout = _run(argv)
        rows.append({"argv": argv, "code": code, "stdout": stdout})
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")


def test_recorded_commands_are_the_seeded_ones():
    recorded = json.loads(DATA.read_text())
    assert [row["argv"] for row in recorded] == golden_commands()


def test_cli_output_is_byte_identical(monkeypatch):
    monkeypatch.delenv("HYPERGEN_N_MAX", raising=False)
    for row in json.loads(DATA.read_text()):
        assert _run(row["argv"]) == (row["code"], row["stdout"]), row["argv"]


if __name__ == "__main__":
    _record()
