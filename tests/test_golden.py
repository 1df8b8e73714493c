"""Seeded outputs of every CLI subcommand, compared byte for byte.

Each case runs ``simlab.cli.main`` in a fresh working directory with
relative paths only, so the echoed ``run.json`` does not depend on where
the test runs.  Inputs are literal JSON and config text, independent of
the package's own encoders.  The expected files live in
``tests/data/golden/<case>/``; to rewrite them after a deliberate change
of output, run ``python tests/test_golden.py [case ...]`` from the
repository root (no names: every case; an unknown name exits non-zero)
and say in the change why the outputs moved.  The rewrite prints one
line per file: ``unchanged``, or ``changed`` and whether its skeleton
(the bytes with every number masked: keys, CSV header, PASS/FAIL text)
is identical; for an identical skeleton, also how many numbers moved and
the largest relative move; for a JSON file whose skeleton differs, whether
it parses to the same values (a change of layout only) and which
top-level keys were added or removed.
"""

import json
import math
import os
import re
import sys

import pytest

from simlab.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")

INPUTS = {
    "theta.json": '{"cutoff": 2, "coeffs": [[0.0, 0.0], [0.5, 0.25], [0.0, 0.0],'
    ' [1.0, 0.0], [0.5, -0.25]]}',
    "g_discrete.json": '{"kind": "discrete", "atoms": [[0.1, 0.25], [0.4, 0.5],'
    " [0.75, 0.25]]}",
    # period-4 values on the closed 16-interval grid: trapezoid mass is 1
    "g_grid.json": '{"kind": "grid", "values": [1.0, 1.5, 1.0, 0.5, 1.0, 1.5, 1.0,'
    " 0.5, 1.0, 1.5, 1.0, 0.5, 1.0, 1.5, 1.0, 0.5, 1.0]}",
    "g_fourier.json": '{"kind": "fourier", "coeffs": [[0.1, -0.1], [0.25, 0.0],'
    " [1.0, 0.0], [0.25, 0.0], [0.1, 0.1]]}",
    "sieve.cfg": "n = 100\npreset = adaptive\nl_max = 8\n",
    "dp.cfg": "mass = 1.0\ntruncation = 20\nbase_grid = 64\nbase_amplitude = 0.5\n",
    "smooth.cfg": "nu = 1.5\nradius = 2.0\ngrid = 64\n",
    "post_dp.cfg": "g_prior = dp\npreset = adaptive\nl_max = 2\n"
    "mass = 1.0\ntruncation = 30\nbase_grid = 128\n",
    "post_smooth.cfg": "g_prior = smooth\npreset = adaptive\nl_max = 2\n"
    "nu = 1.5\nradius = 2.0\n",
}

SIMULATE_DATA = [
    "simulate", "--theta", "in/theta.json", "--g", "in/g_grid.json",
    "--n", "10", "--cutoff", "2", "--seed", "3", "--out", "in/obs.json",
]

# case name -> list of (argv, expected exit code); outputs go under out/
CASES = {
    **{
        f"simulate_{kind}": [(
            ["simulate", "--theta", "in/theta.json", "--g", f"in/g_{kind}.json",
             "--n", "8", "--cutoff", "3", "--seed", "5", "--out", "out/obs.json"],
            0,
        )]
        for kind in ("discrete", "grid", "fourier")
    },
    **{
        f"prior_sample_{kind}": [(
            ["prior-sample", "--kind", kind, "--config", f"in/{kind}.cfg",
             "--count", "2", "--seed", "1", "--out", "out"],
            0,
        )]
        for kind in ("sieve", "dp", "smooth")
    },
    "posterior_dp": [
        (SIMULATE_DATA, 0),
        (["posterior", "--data", "in/obs.json", "--prior", "in/post_dp.cfg",
          "--steps", "30", "--seed", "4", "--out", "out"], 0),
    ],
    "posterior_smooth": [
        (SIMULATE_DATA, 0),
        (["posterior", "--data", "in/obs.json", "--prior", "in/post_smooth.cfg",
          "--steps", "4", "--seed", "4", "--out", "out"], 0),
    ],
    "contraction": [(
        ["contraction", "--truth", "in/truth", "--ns", "12,25", "--steps", "30",
         "--cutoff", "2", "--control-n", "30", "--seed", "6",
         "--out", "out/table.csv"],
        0,
    )],
    "fano_net": [(
        ["fano-net", "--p", "4", "--certify", "--samples", "4000", "--seed", "2",
         "--out", "out"],
        0,
    )],
    "verify": [(
        ["verify", "--instances", "2", "--samples", "2000", "--seed", "7",
         "--out", "out/report.csv"],
        0,
    )],
    "bessel_table": [(
        ["bessel-table", "--n-max", "3", "--a-max", "2.0", "--step", "0.5",
         "--out", "out/bessel.csv"],
        0,
    )],
}


def run_case(name: str, workdir: str) -> dict[str, bytes]:
    """Run one case inside ``workdir``; return its outputs by relative name."""
    cwd = os.getcwd()
    os.makedirs(os.path.join(workdir, "in", "truth"))
    os.makedirs(os.path.join(workdir, "out"))
    for fname, text in INPUTS.items():
        with open(os.path.join(workdir, "in", fname), "w") as fh:
            fh.write(text)
    for fname, src in (("theta.json", "theta.json"), ("g.json", "g_grid.json")):
        with open(os.path.join(workdir, "in", "truth", fname), "w") as fh:
            fh.write(INPUTS[src])
    os.chdir(workdir)
    try:
        for argv, code in CASES[name]:
            assert main(argv) == code, argv
    finally:
        os.chdir(cwd)
    out = {}
    root = os.path.join(workdir, "out")
    for fname in sorted(os.listdir(root)):
        with open(os.path.join(root, fname), "rb") as fh:
            out[fname] = fh.read()
    return out


def _golden(name: str) -> dict[str, bytes]:
    root = os.path.join(GOLDEN, name)
    out = {}
    for fname in sorted(os.listdir(root)):
        with open(os.path.join(root, fname), "rb") as fh:
            out[fname] = fh.read()
    return out


NUMBER = re.compile(
    rb"(?<![\w.])-?(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|NaN|Infinity|nan|inf)(?![\w.])"
)


def skeleton(data: bytes) -> bytes:
    """The bytes with every number replaced by ``#``."""
    return NUMBER.sub(b"#", data)


def describe(old: bytes | None, new: bytes | None) -> str:
    """How a rewritten golden file compares with the copy it replaces."""
    if old is None or new is None:
        return "added" if old is None else "removed"
    if old == new:
        return "unchanged"
    same = skeleton(old) == skeleton(new)
    return f"changed, skeleton {'identical' if same else 'differs'}"


def number_moves(old: bytes, new: bytes) -> tuple[int, float]:
    """How many numbers differ between two files of identical skeleton, and
    the largest relative move ``|new - old| / |old|`` among them."""
    pairs = zip(NUMBER.findall(old), NUMBER.findall(new))
    moved = [(float(a), float(b)) for a, b in pairs if a != b]
    worst = max(
        (abs(b - a) / abs(a) if a else (math.inf if b else 0.0) for a, b in moved),
        default=0.0,
    )
    return len(moved), worst


def same_values(old: bytes, new: bytes) -> bool:
    """Whether two JSON files parse to the same values, every number to the
    same bits: their parses re-encode to the same text."""
    old, new = (json.dumps(json.loads(data), sort_keys=True) for data in (old, new))
    return old == new


def key_changes(old: bytes, new: bytes) -> str:
    """The top-level keys of one JSON object missing from the other, as
    ``keys added: ...`` and ``keys removed: ...``; empty when they agree."""
    old, new = (set(json.loads(data)) for data in (old, new))
    changes = (("added", new - old), ("removed", old - new))
    return ", ".join(f"keys {what}: {', '.join(sorted(keys))}" for what, keys in changes if keys)


def test_number_moves_counts_changed_numbers():
    old = b'{"H2": -1.5e-07, "seed": 4}\nn,eps_n\n12,0.5\n'
    assert number_moves(old, old) == (0, 0.0)
    count, worst = number_moves(old, old.replace(b"0.5", b"0.25"))
    assert count == 1 and worst == 0.5
    count, worst = number_moves(old, old.replace(b"-1.5e-07", b"-1.5000000000000002e-07"))
    assert count == 1 and 0.0 < worst < 1e-15
    assert number_moves(b"x 0 y 2", b"x 1 y 4") == (2, math.inf)
    assert number_moves(b"x 0 y 2", b"x 0.0 y 2") == (1, 0.0)


def test_same_values_ignores_layout_only():
    old = b'{\n "b": [\n  1.5,\n  NaN\n ],\n "a": -0.0\n}'
    assert same_values(old, b'{"a": -0.0, "b": [1.5, NaN]}')
    assert not same_values(old, b'{"a": 0.0, "b": [1.5, NaN]}')
    assert not same_values(old, b'{"a": -0.0, "b": [1.5000000000000002, NaN]}')
    assert not same_values(b'{"a": 1}', b'{"a": 1.0}')


def test_key_changes_names_top_level_keys_only():
    old = b'{"seed": 0, "threads": 1, "cfg": {"x": 1}}'
    assert key_changes(old, old) == ""
    assert key_changes(old, b'{"cfg": {"y": 1}, "seed": 2}') == "keys removed: threads"
    assert key_changes(b'{"a": 1}', b'{"c": 1, "b": 2}') == "keys added: b, c, keys removed: a"


def test_skeleton_masks_numbers_only():
    text = b'{"H2": -1.5e-07, "seed": 4, "x": NaN}\nn,eps_n\n12,0.5\nPASS 3 of 4\n'
    want = b'{"H2": #, "seed": #, "x": #}\nn,eps_n\n#,#\nPASS # of #\n'
    assert skeleton(text) == want
    assert describe(text, text) == "unchanged"
    assert describe(text, text.replace(b"0.5", b"0.25")) == "changed, skeleton identical"
    assert describe(text, text.replace(b"PASS", b"FAIL")) == "changed, skeleton differs"


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_byte_identical(name, tmp_path):
    got = run_case(name, str(tmp_path / name))
    want = _golden(name)
    assert sorted(got) == sorted(want)
    for fname in want:
        assert got[fname] == want[fname], f"{name}/{fname} differs from the golden copy"


if __name__ == "__main__":
    import shutil
    import tempfile

    names = sys.argv[1:] or sorted(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        known = ", ".join(sorted(CASES))
        sys.exit(f"unknown golden case(s) {', '.join(unknown)}; known: {known}")
    with tempfile.TemporaryDirectory() as tmp:
        for case in names:
            files = run_case(case, os.path.join(tmp, case))
            target = os.path.join(GOLDEN, case)
            old = _golden(case) if os.path.isdir(target) else {}
            shutil.rmtree(target, ignore_errors=True)
            os.makedirs(target)
            for fname, data in files.items():
                with open(os.path.join(target, fname), "wb") as fh:
                    fh.write(data)
            for fname in sorted(set(old) | set(files)):
                before, after = old.get(fname), files.get(fname)
                line = describe(before, after)
                if line == "changed, skeleton identical":
                    count, worst = number_moves(before, after)
                    line += f", {count} numbers moved, largest relative move {worst:.1e}"
                elif line == "changed, skeleton differs" and fname.endswith(".json"):
                    line += f", values {'equal' if same_values(before, after) else 'differ'}"
                    if keys := key_changes(before, after):
                        line += f", {keys}"
                print(f"{case}/{fname}: {line}")
