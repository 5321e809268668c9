"""Golden corpus: exact outputs that a change meant to keep results must keep.

Each line is ``key<TAB>value``.  Two parts:

* the standard output and exit code of ``gwidiv.cli.main`` run in process
  for every preset, for ``classify`` and, at n in ``CLI_NS``, for
  ``hellinger``, ``divergence``, ``entropy``, ``bayes`` and ``nptest``;
* ``float.hex`` of every pair in ``Constellation(params, lam).uppers`` and of
  the ``log_hellinger_bounds`` report, on seeded SP2-SP3d draws at every
  lambda in ``LAMBDAS``.

``tests/test_golden.py`` recomputes the corpus and compares it with the
committed ``tests/golden_corpus.txt`` line by line.  To regenerate the file
after a change that is meant to alter results, run from the repository root

    PYTHONPATH=src python tests/golden_corpus.py

and review the diff of ``tests/golden_corpus.txt``.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np

from gwidiv import GWIError, log_hellinger_bounds
from gwidiv.cli import PRESETS, main
from gwidiv.recursions import Constellation

from conftest import random_params

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_corpus.txt")

CLI_COMMANDS = ("hellinger", "divergence", "entropy", "bayes", "nptest")
CLI_NS = (1, 5, 50, 2000, 10**5)

BOUND_CASES = ("SP2", "SP3a", "SP3b", "SP3c", "SP3d")
LAMBDAS = (0.1, 0.3, 0.5, 0.7, 0.9)
DRAWS = 4
#: (omega0, n) of the log_hellinger_bounds entries
HORIZONS = ((1, 1), (3, 7), (1, 60), (2, 2000))
SEED = 20261019


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"{code} {out.getvalue()}".rstrip("\n").replace("\n", "\\n")


def _hex(*values) -> str:
    return " ".join(v.hex() for v in values)


def cli_lines():
    for preset in sorted(PRESETS):
        yield f"cli classify {preset}", _cli(["classify", "--preset", preset])
        for command in CLI_COMMANDS:
            for n in CLI_NS:
                argv = [command, "--preset", preset, "--n", str(n)]
                yield f"cli {command} {preset} n={n}", _cli(argv)


def bound_lines():
    rng = np.random.default_rng(SEED)
    for case in BOUND_CASES:
        for lam in LAMBDAS:
            for draw in range(DRAWS):
                params = random_params(rng, case, lam)
                key = f"{case} lam={lam} draw={draw}"
                yield f"params {key}", _hex(params.beta_a, params.beta_h,
                                            params.alpha_a, params.alpha_h)
                c = Constellation(params, lam)
                for pair in c.uppers:
                    yield f"uppers {key} {pair.label}", _hex(pair.p, pair.q)
                for omega0, n in HORIZONS:
                    try:
                        report = log_hellinger_bounds(params, lam, omega0, n)
                        value = f"{_hex(report.log_lower, report.log_upper)} {report.method}"
                    except GWIError as exc:
                        value = f"{type(exc).__name__}: {exc}"
                    yield f"bounds {key} omega0={omega0} n={n}", value


def corpus() -> list[str]:
    return [f"{key}\t{value}" for lines in (cli_lines(), bound_lines()) for key, value in lines]


if __name__ == "__main__":
    with open(PATH, "w") as f:
        f.write("\n".join(corpus()) + "\n")
    print(f"wrote {PATH}")
