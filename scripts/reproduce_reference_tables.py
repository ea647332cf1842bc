#!/usr/bin/env python3
"""Regenerate every published reference artifact into an output directory.

Writes the hexagonal and rectangular divergence tables, the full
boundary-case catalog for k in {2, 3}, and the bound reports for all
block families.  Useful as a one-shot check that the exact pipeline
still matches the frozen golden data.
"""

import argparse
import json
import pathlib

from kheights.cli import main as cli_main


def run(argv, dest: pathlib.Path):
    code = cli_main([*argv, "--out", str(dest)])
    print(f"{' '.join(argv):<60} -> {dest.name} (exit {code})")
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="reference_out")
    ap.add_argument("--kmax", type=int, default=6)
    args = ap.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    worst = 0
    for k in range(2, args.kmax + 1):
        worst = max(worst, run(["tables", "--id", "hex", "--k", str(k)],
                               out / f"hex_k{k}.csv"))
    for k in (1, 2, 3):
        worst = max(worst, run(["tables", "--id", "rect", "--k", str(k)],
                               out / f"rect_k{k}.csv"))
    for k in (2, 3):
        for ident in ("type1", "type2"):
            worst = max(worst, run(["tables", "--id", ident, "--k", str(k)],
                                   out / f"{ident}_k{k}.csv"))
    combos = [(fam, k) for fam in ("rect", "hex", "regular3", "dual4")
              for k in (2, 3)] + [("regular2", 2)]
    for fam, k in combos:
        code = run(["bound", "--family", fam, "--k", str(k),
                    "--n", "1024", "--eps", "0.125"],
                   out / f"bound_{fam}_k{k}.json")
        worst = max(worst, code)

    summary = {"worst_exit": worst}
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(f"worst exit code: {worst}")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
