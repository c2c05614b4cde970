"""``python -m repro.analysis`` — the static analysis command line.

Examples::

    python -m repro.analysis src/repro
    python -m repro.analysis src/repro --format json
    python -m repro.analysis src/repro --format github   # CI annotations
    python -m repro.analysis src/repro --format sarif    # code scanning
    python -m repro.analysis src/repro --write-baseline
    python -m repro.analysis --list-rules

Findings go to stdout; errors go to stderr.  Exit codes: 0 clean, 1 new
findings, 2 stale waivers only (the baseline lists waivers whose code has
since been fixed — delete them), 3 bad baseline file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import Baseline, BaselineError, format_baseline
from repro.analysis.project import analyze_paths
from repro.analysis.report import (
    render_github,
    render_json,
    render_rules,
    render_sarif,
    render_text,
)

#: Default baseline filename, looked up relative to the working directory.
DEFAULT_BASELINE = "DETERMINISM_BASELINE.txt"

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_STALE = 2
EXIT_BAD_BASELINE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Statically enforce the simulator's invariants: "
        "determinism (DET: seeded RNG only, no wall clock, no hash()-derived "
        "seeds, no unsorted set iteration, ...), sim-time hygiene (SIM), "
        "fork/pickle safety in the parallel runner (FRK), sharded-engine "
        "invariants via the whole-program pass (SHD), and numpy bit-parity "
        "and RNG draw order on delivery-log-reaching paths (VEC).  Per-file "
        "findings are joined by interprocedural ones: DET taints flow "
        "through the project call graph and fire at the cross-module call "
        "site with the chain in the message; VEC parity-sensitivity flows "
        "the other way, from the delivery-log roots down into their "
        "callees.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro, else .)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        metavar="FILE",
        help=f"waiver file (default: {DEFAULT_BASELINE}; missing file "
        "means no waivers)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to waive every current finding "
        "(existing justifications are kept; new entries get a TODO marker)",
    )
    parser.add_argument(
        "--allow-stale",
        action="store_true",
        help="do not fail on stale waivers (still reported)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "github", "sarif"],
        default="text",
        help="report format (default: text; github emits workflow-command "
        "annotations for CI; sarif emits a SARIF 2.1.0 payload for GitHub "
        "code scanning)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _default_paths() -> List[str]:
    return ["src/repro"] if Path("src/repro").is_dir() else ["."]


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(render_rules())
        return EXIT_CLEAN
    paths = args.paths or _default_paths()
    for path in paths:
        if not Path(path).exists():
            parser.error(f"no such path: {path}")
    findings = analyze_paths(paths)
    try:
        baseline = Baseline.load(args.baseline)
    except BaselineError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_BAD_BASELINE
    if args.write_baseline:
        text = format_baseline(findings, baseline)
        Path(args.baseline).write_text(text, encoding="utf-8")
        print(f"wrote {args.baseline} ({len(findings)} waiver(s))")
        return EXIT_CLEAN
    new, stale = baseline.apply(findings)
    waived_count = len(findings) - len(new)
    if args.format == "json":
        print(json.dumps(render_json(new, stale, waived_count), indent=2))
    elif args.format == "sarif":
        print(json.dumps(render_sarif(new, stale, waived_count), indent=2))
    elif args.format == "github":
        print(render_github(new, stale, waived_count))
    else:
        print(render_text(new, stale, waived_count))
    if new:
        return EXIT_FINDINGS
    if stale and not args.allow_stale:
        return EXIT_STALE
    return EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
