"""Per-layer table from a trace file written by a traced benchmark run.

    python3 perfbench/report.py perfbench/out/pretrain-fixedres.trace.json [...]

For each layer: self ms, inclusive ms and calls per unit operation (a
training step, or a deploy cycle on eval-decode) and the self time's share
of the unit. The untraced remainder is the unit time no layer span covers,
so self times plus the remainder add up to the unit time by definition.
"""

import sys

import tracing


def format_table(doc):
    n = len(doc["units"])
    table, unit_s, remainder_s = tracing.unit_summary(doc["spans"], doc["units"])
    unit_ms, remainder_ms = unit_s * 1e3, remainder_s * 1e3
    head = doc["header"]
    lines = [f"{head['workload']} seed {head['seed']}: {n} traced {head['unit']}s, "
             f"{unit_ms:.2f} ms per {head['unit']}, tracing overhead {head['overhead_pct']:+.1f}%",
             f"{'layer':<24}{'self ms':>10}{'incl ms':>10}{'calls':>10}{'share':>8}"]
    rows = sorted(table.items(), key=lambda kv: -kv[1][0])
    for layer, (self_s, incl_s, calls) in rows:
        if calls:
            lines.append(f"{layer:<24}{self_s / n * 1e3:>10.3f}{incl_s / n * 1e3:>10.3f}"
                         f"{calls / n:>10.1f}{100 * self_s / n * 1e3 / unit_ms:>7.1f}%")
    lines.append(f"{'(untraced remainder)':<24}{remainder_ms:>10.3f}{'':>20}"
                 f"{100 * remainder_ms / unit_ms:>7.1f}%")
    return "\n".join(lines)


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        print(format_table(tracing.read_trace(path)))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
