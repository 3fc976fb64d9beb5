#!/usr/bin/env python3
"""Print every synthesis flow's output in a stable, diffable form.

For each specification of ``repro.stg.specs.ALL_SPECS`` (or the names
given on the command line) this runs ``synthesize_si``,
``synthesize_rt`` and ``synthesize_burst_mode`` and prints, per flow:

* the covers, one line per signal, in selection order;
* the netlist's ``describe()``;
* the back-annotated constraints and unused assumptions (RT only);
* the inserted state signals, their insertion points and the implied
  orderings of the state encoding;
* or the error text, when the flow raises.

Nothing time- or host-dependent is printed, so two trees that implement
the same flow print byte-identical text.  To check a change, run it
from the root of the change and of a clone of its parent (copy the
script into the clone if the parent predates it) and diff the two::

    PYTHONPATH=src python scripts/synth_dump.py --skip rappid_control > new.txt
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, List

from repro.stg import specs
from repro.synthesis import (
    synthesize_burst_mode,
    synthesize_rt,
    synthesize_si,
)

FLOWS = (
    ("si", synthesize_si),
    ("rt", synthesize_rt),
    ("bm", synthesize_burst_mode),
)


def _indent(text: str, prefix: str = "    ") -> List[str]:
    return [prefix + line for line in text.splitlines()]


def dump_flow(result) -> List[str]:
    """The stable text of one flow's result."""
    lines = ["  covers:"]
    for signal, cover in result.covers.items():
        cubes = " ".join(str(cube) for cube in cover) or "(empty)"
        lines.append(f"    {signal}: {cubes}")
    lines.append("  netlist:")
    lines.extend(_indent(result.netlist.describe()))
    annotation = getattr(result, "back_annotation", None)
    if annotation is not None:
        lines.append("  back-annotation:")
        lines.extend(_indent(annotation.describe()))
    encoding = result.encoding
    lines.append(f"  inserted signals: {list(encoding.inserted_signals)}")
    for point in encoding.insertion_points:
        lines.append(f"    insertion: {point}")
    for before, after in encoding.implied_orderings:
        lines.append(f"    implied ordering: {before} before {after}")
    return lines


def dump(names: Iterable[str]) -> str:
    """The dump of every flow of every named specification."""
    lines: List[str] = []
    for name in names:
        for flow, synthesize in FLOWS:
            lines.append(f"== {name} {flow}")
            try:
                result = synthesize(specs.load_spec(name))
            except Exception as exc:  # the error text is part of the output
                lines.append(f"  error {type(exc).__name__}: {exc}")
                continue
            lines.extend(dump_flow(result))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "specs", nargs="*", help="spec names (default: every ALL_SPECS entry)"
    )
    parser.add_argument(
        "--skip", action="append", default=[], metavar="NAME",
        help="leave out this spec (repeatable)",
    )
    args = parser.parse_args(argv)
    names = args.specs or list(specs.ALL_SPECS)
    unknown = sorted(set(names) - set(specs.ALL_SPECS))
    if unknown:
        parser.error(f"unknown spec(s): {', '.join(unknown)}")
    sys.stdout.write(dump(name for name in names if name not in args.skip))
    return 0


if __name__ == "__main__":
    sys.exit(main())
