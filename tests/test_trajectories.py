"""Seeded outputs pinned byte for byte.

Each case runs one CLI command at a fixed seed and compares the sha256
of its output lines, the provenance header excepted (it holds the
command line and the package version), with a digest recorded once.
A change to the draw order, to a chain's move rule or to the output
format shows up here as a digest mismatch.
"""

import hashlib

import pytest

from kheights.cli import main

CASES = {
    "run updown rect:16x16": (
        ["run", "--chain", "updown", "--graph", "rect:16x16", "--k", "3",
         "--steps", "5000", "--seed", "11", "--emit-every", "500"],
        "8e45085e4ea67c83c8d520595313ff16"
        "071edbbc840c40330c6c74bd7fe8131b"),
    "run block hex:8x8": (
        ["run", "--chain", "block", "--graph", "hex:8x8", "--k", "2",
         "--steps", "300", "--seed", "12", "--emit-every", "50"],
        "90069ec71ae430a2d3b365a042cf98ea"
        "6021027ffc06a2efca2c7044df044133"),
    "run block rect:8x8": (
        ["run", "--chain", "block", "--graph", "rect:8x8", "--k", "2",
         "--steps", "40", "--seed", "15", "--emit-every", "10"],
        "b94e693b88f43500633c555689a06efe"
        "4a812e5a8ce7e998f34099878caf4534"),
    "run block complete:4": (
        ["run", "--chain", "block", "--graph", "complete:4", "--k", "3",
         "--steps", "300", "--seed", "16", "--emit-every", "50"],
        "a7aa52efb30aad0cf4eacb23d11ef5b2"
        "a3524ee0a2bb4b2545b08dc791e5a799"),
    "sample rect:4x4": (
        ["sample", "--graph", "rect:4x4", "--k", "2", "--n", "5",
         "--seed", "13"],
        "c8bd7931426c564a93e9c3e0af615c18"
        "fdcfb9f9eab36a5a25952ab65e3ab8db"),
    # n = 36 is not a power of two: the vertex draws take the Lemire
    # rejection test, whose threshold 2^32 mod 36 = 4 is not 0
    "sample rect:6x6": (
        ["sample", "--graph", "rect:6x6", "--k", "2", "--n", "5",
         "--seed", "17"],
        "ccbab71fbadfbd57a40462679b5d3fb0"
        "8051b4733c43ca9444e30e0e0426287f"),
    "couple-time updown rect:6x6": (
        ["couple-time", "--chain", "updown", "--graph", "rect:6x6",
         "--k", "2", "--trials", "3", "--seed", "14"],
        "c91659607dbcae0dfc6924dc82c46fe5"
        "932921931ddaa06ac90072d6e49fbe19"),
    "couple-time block hex:4x4": (
        ["couple-time", "--chain", "block", "--graph", "hex:4x4",
         "--k", "2", "--trials", "1", "--seed", "0"],
        "7178759c128f780af66b3c85f3f21671"
        "7b8a9c4043618489f542c9ce661e197d"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_digest(name, capsys):
    argv, digest = CASES[name]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines
    got = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert got == digest
